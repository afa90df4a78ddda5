// Distributed-memory speculative greedy coloring — the paper's Section 4
// algorithm (the Bozdağ et al. framework plus the new neighbor-customized
// communication), executed on the simulated BSP runtime.
//
// Each round has a tentative coloring phase (supersteps of size s: color s
// owned vertices with the information available, then exchange boundary
// colors) and a conflict-detection phase (local; the loser of each conflict
// edge — chosen by deterministic per-vertex random priorities — is recolored
// next round).
//
// The coloring distance is the distribution's halo (DistGraph::build): at
// halo 1 a proper distance-1 coloring, at halo 2 a distance-2 one, where a
// vertex avoids and is checked against every color within two hops and its
// color goes to every rank owning a vertex there. Nothing else differs.
// color_distance2_distributed_native (coloring/distance2.hpp) is the
// distance-2 entry point.
//
// Three communication modes reproduce the paper's comparison:
//
//   * kBroadcastUnion      (FIAB) — every rank sends the union of its
//     superstep's boundary colors to every other rank;
//   * kCustomizedAll       (FIAC) — customized (possibly empty) message to
//     every other rank: less volume, same message count;
//   * kCustomizedNeighbors (NEW)  — customized messages only to neighboring
//     ranks: fewer messages AND less volume. The paper's contribution.
#pragma once

#include <cstdint>
#include <vector>

#include "coloring/coloring.hpp"
#include "coloring/sequential.hpp"
#include "graph/csr_graph.hpp"
#include "partition/partition.hpp"
#include "runtime/comm_stats.hpp"
#include "runtime/dist_graph.hpp"
#include "runtime/exec/backend.hpp"
#include "runtime/fabric.hpp"
#include "runtime/machine_model.hpp"

namespace pmc {

/// Who receives a superstep's boundary color updates. The three modes are
/// the fabric's send policies (runtime/fabric.hpp): kBroadcastUnion (FIAB),
/// kCustomizedAll (FIAC), kCustomizedNeighbors (the paper's new algorithm).
using CommMode = SendPolicy;

/// Whether supersteps run with or without a global barrier.
enum class SuperstepMode { kAsync, kSync };

/// Order in which a rank colors its vertices within a round.
enum class LocalOrder { kInteriorFirst, kBoundaryFirst, kNatural };

/// Options for a distributed coloring run.
struct DistColoringOptions {
  VertexId superstep_size = 1000;
  CommMode comm_mode = CommMode::kCustomizedNeighbors;
  SuperstepMode superstep_mode = SuperstepMode::kAsync;
  LocalOrder local_order = LocalOrder::kInteriorFirst;
  ColorStrategy strategy = ColorStrategy::kFirstFit;
  /// Wire codec for the boundary-color frames (kFixed is the legacy
  /// fixed-width ablation baseline).
  WireCodec codec = WireCodec::kCompact;
  MachineModel model = MachineModel::blue_gene_p();
  std::uint64_t seed = 0;
  /// Safety bound on rounds (the framework converges in ~6 on real inputs).
  int max_rounds = 1000;
  /// Deterministic fault injection. A dropped boundary-color message makes
  /// the *sender* reset the affected vertices and re-enter them into the
  /// conflict-repair loop (their colors were invisible to the receiver, so
  /// conflict detection there could not have been symmetric); the final
  /// coloring stays conflict-free. Disabled by default.
  FaultConfig faults;
  /// Instrumentation options (optional JSONL trace sink).
  TraceConfig trace;
  /// Execution backend: with exec.threads > 1 the rank callbacks run on a
  /// thread pool, bit-identically to sequential execution, in synchronous
  /// supersteps, post-barrier drains and conflict detection, and in every
  /// asynchronous superstep whose mid-superstep polls the snapshot harvest
  /// can settle up front (the rest run rank by rank; see
  /// DistColoringResult's snapshot counters).
  ExecConfig exec;

  /// FIAB preset: broadcast-based, superstep ~100 (paper: best for
  /// poorly-partitioned graphs among the broadcast variants).
  [[nodiscard]] static DistColoringOptions fiab();
  /// FIAC preset: customized-to-all, superstep ~1000.
  [[nodiscard]] static DistColoringOptions fiac();
  /// The paper's new algorithm: customized-to-neighbors, superstep ~1000.
  [[nodiscard]] static DistColoringOptions improved();
};

/// Result of a distributed coloring run.
struct DistColoringResult {
  Coloring coloring;  ///< Global coloring (indexed by global vertex id).
  RunResult run;
  int rounds = 0;
  std::vector<EdgeId> conflicts_per_round;  ///< Vertices recolored per round.
  std::int64_t total_supersteps = 0;
  /// Vertices re-entered into repair because their color announcement was
  /// dropped by the fault layer (0 when faults are disabled).
  std::int64_t fault_reentries = 0;
  /// Asynchronous supersteps harvested up front (parallel-capable) vs. run
  /// rank by rank (the fallback); both 0 in sync mode.
  /// Pure functions of the modelled clocks, identical at every thread count.
  std::int64_t snapshot_parallel_supersteps = 0;
  std::int64_t snapshot_fallback_supersteps = 0;
};

/// Runs the distributed coloring on a pre-built distribution, at distance
/// dist's halo.
[[nodiscard]] DistColoringResult color_distributed(
    const DistGraph& dist, const DistColoringOptions& options = {});

/// Convenience overload: builds the halo-1 distribution from (g, p) first.
[[nodiscard]] DistColoringResult color_distributed(
    const Graph& g, const Partition& p, const DistColoringOptions& options = {});

}  // namespace pmc
