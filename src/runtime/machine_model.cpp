#include "runtime/machine_model.hpp"

#include <cmath>

#include "support/error.hpp"

namespace pmc {

MachineModel MachineModel::blue_gene_p() {
  MachineModel m;
  m.seconds_per_work = 20e-9;   // ~17 cycles/arc at 850 MHz
  m.latency = 3.5e-6;           // BG/P MPI short-message latency
  m.seconds_per_byte = 2.7e-9;  // ~375 MB/s per torus link
  m.send_overhead = 1.5e-6;     // software cost of posting one send
  m.header_bytes = 32.0;
  m.name = "BlueGene/P";
  return m;
}

MachineModel MachineModel::commodity_cluster() {
  MachineModel m;
  m.seconds_per_work = 4e-9;    // ~3 GHz cores, ~12 cycles/arc
  m.latency = 50e-6;            // TCP/Ethernet-class latency
  m.seconds_per_byte = 1e-9;    // ~1 GB/s
  m.send_overhead = 5e-6;
  m.header_bytes = 64.0;
  m.name = "commodity";
  return m;
}

MachineModel MachineModel::zero_cost() {
  MachineModel m;
  m.seconds_per_work = 0.0;
  m.latency = 0.0;
  m.seconds_per_byte = 0.0;
  m.send_overhead = 0.0;
  m.header_bytes = 0.0;
  m.name = "zero-cost";
  return m;
}

double MachineModel::collective_seconds(int ranks) const {
  if (ranks <= 1) return 0.0;
  const double stages = std::ceil(std::log2(static_cast<double>(ranks)));
  return stages * (latency + 16.0 * seconds_per_byte);
}

double MachineModel::message_seconds(double payload_bytes) const {
  return latency + (payload_bytes + header_bytes) * seconds_per_byte;
}

MachineModel MachineModel::with_threads(int threads, double efficiency) const {
  PMC_REQUIRE(threads >= 1,
              "need at least one thread per rank, got " << threads);
  // Written so that a NaN efficiency fails too.
  PMC_REQUIRE(efficiency >= 0.0 && efficiency <= 1.0,
              "thread efficiency must lie in [0, 1], got " << efficiency);
  MachineModel m = *this;
  m.threads_per_rank = threads;
  m.thread_efficiency = efficiency;
  m.name += "+" + std::to_string(threads) + "t";
  return m;
}

}  // namespace pmc
