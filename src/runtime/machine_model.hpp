// Machine cost model for the simulated distributed-memory runtime.
//
// The paper's experiments ran on Intrepid, an IBM Blue Gene/P, with MPI over
// a 3-D torus. This box has one core and no MPI, so pmc executes the same
// per-rank algorithms under a discrete-event simulation and *models* time
// with the standard alpha-beta (latency + inverse-bandwidth) communication
// model plus a per-work-unit compute cost:
//
//   compute: t += work_units * seconds_per_work
//   message: arrival = send_clock + latency + bytes * seconds_per_byte,
//            FIFO-ordered per (src, dst) channel like MPI;
//   collective (allreduce/barrier): ceil(log2 P) * (latency + 16 B * beta).
//
// The absolute constants are rough (documented below); the reproduction
// targets the *shape* of the paper's scaling curves, which depends on the
// ratios (latency vs per-edge compute vs bandwidth), not absolute values.
#pragma once

#include <string>

namespace pmc {

/// Cost model constants for the simulated machine.
struct MachineModel {
  /// Seconds per abstract work unit (one adjacency-arc touch).
  double seconds_per_work = 20e-9;
  /// Per-message latency in seconds (MPI alpha).
  double latency = 3.5e-6;
  /// Per-byte transfer time in seconds (MPI beta, 1/bandwidth).
  double seconds_per_byte = 2.7e-9;
  /// Per-message CPU overhead charged to the *sender* (the LogP "o"): the
  /// software cost of posting one MPI send. This is the cost the paper's
  /// message bundling amortizes — without it, thousands of tiny messages
  /// would pipeline for free and bundling could never win.
  double send_overhead = 1.5e-6;
  /// Fixed envelope bytes charged per message on top of the payload.
  double header_bytes = 32.0;
  /// Threads per rank for hybrid MPI+OpenMP execution (the paper's §6
  /// outlook): local computation is shared by the threads while messaging
  /// stays per-rank. 1 = pure MPI.
  int threads_per_rank = 1;
  /// Parallel efficiency of the extra threads (1.0 = perfect speedup;
  /// realistic shared-memory graph kernels achieve ~0.7-0.9).
  double thread_efficiency = 0.8;
  /// Human-readable name for reports.
  std::string name = "custom";

  /// Blue Gene/P-like: 850 MHz PowerPC 450 cores (slow per-edge compute),
  /// low-latency custom torus network. Calibrated so a 1M-edge sequential
  /// pass costs ~0.02 s, in line with the paper's absolute timings.
  [[nodiscard]] static MachineModel blue_gene_p();

  /// Commodity cluster: faster cores, much higher latency (Ethernet-ish).
  [[nodiscard]] static MachineModel commodity_cluster();

  /// Zero-cost model: all costs 0. Used by tests that check algorithm
  /// semantics only (results must be independent of the cost model).
  [[nodiscard]] static MachineModel zero_cost();

  /// Cost in seconds of an allreduce / barrier among `ranks` processors.
  [[nodiscard]] double collective_seconds(int ranks) const;

  /// Cost in seconds of transferring one message with `payload_bytes`.
  [[nodiscard]] double message_seconds(double payload_bytes) const;

  /// How much faster a rank's threads compute than one thread:
  /// 1 + (threads - 1) * efficiency.
  [[nodiscard]] double thread_speedup() const {
    return 1.0 + (threads_per_rank - 1) * thread_efficiency;
  }

  /// Cost in seconds of `work_units` of local computation, accounting for
  /// hybrid threads: work * seconds_per_work / thread_speedup().
  /// CommFabric::Lane::charge prices the same way.
  [[nodiscard]] double compute_seconds(double work_units) const {
    return work_units * seconds_per_work / thread_speedup();
  }

  /// Returns a copy of this model with `threads` threads per rank. Throws
  /// pmc::Error unless threads >= 1 and 0 <= efficiency <= 1.
  [[nodiscard]] MachineModel with_threads(int threads,
                                          double efficiency = 0.8) const;
};

}  // namespace pmc
