// Ablation A1 — message bundling in the distributed matching algorithm.
//
// The paper attributes its matching scalability to "aggressive message
// bundling, where messages sent between the same pair of processors are
// grouped as often as possible" (§1, §3.3). This ablation runs the same
// matching with bundling on and off and reports message counts, volumes and
// modelled time across processor counts.
#include "bench_common.hpp"

#include <iostream>

namespace pmc::bench {
namespace {

int run(int argc, const char** argv) {
  Options opts;
  opts.add("grid", "256", "grid side length");
  opts.add("ranks", "16,64,256,1024", "comma-separated processor counts");
  opts.add("csv", "", "optional CSV output path");
  opts.add("rounds-csv", "", "optional per-round series CSV output path");
  (void)opts.parse(argc, argv);
  const auto side = static_cast<VertexId>(opts.get_int("grid"));

  const std::vector<int> rank_list = opts.get_int_list("ranks");

  banner("Ablation A1 — message bundling (matching)",
         "bundling cuts the message count by orders of magnitude and with "
         "it the modelled time; the matching itself is unchanged");

  const Graph g = grid_2d(side, side, WeightKind::kUniformRandom, 61);
  TextTable table({"procs", "variant", "messages", "records", "volume (B)",
                   "sim (s)", "speedup"},
                  {Align::kRight, Align::kLeft, Align::kRight, Align::kRight,
                   Align::kRight, Align::kRight, Align::kRight});
  table.set_title("bundled vs unbundled distributed matching");
  CsvSink csv(opts.get("csv"), {"ranks", "variant", "messages", "records",
                                "bytes", "sim_seconds"});
  CsvSink rounds_csv(opts.get("rounds-csv"),
                     {"ranks", "variant", "round", "messages", "records",
                      "bytes"});
  // Per-round series for the largest processor count (printed after the
  // summary table).
  CommBreakdown last_bundled, last_unbundled;
  int last_ranks = 0;

  for (const int ranks : rank_list) {
    Rank pr = 0, pc = 0;
    factor_processor_grid(static_cast<Rank>(ranks), pr, pc);
    const Partition p = grid_2d_partition(side, side, pr, pc);
    const DistGraph dist = DistGraph::build(g, p);

    DistMatchingOptions bundled;
    DistMatchingOptions unbundled;
    unbundled.bundled = false;
    const auto rb = match_distributed(dist, bundled);
    const auto ru = match_distributed(dist, unbundled);
    PMC_CHECK(rb.matching.mate == ru.matching.mate,
              "bundling changed the matching");

    table.add_row({cell_count(ranks), "bundled",
                   cell_count(rb.run.comm.messages),
                   cell_count(rb.run.comm.records),
                   cell_count(rb.run.comm.bytes),
                   cell_sci(rb.run.sim_seconds),
                   cell(ru.run.sim_seconds / rb.run.sim_seconds, 2) + "x"});
    table.add_row({cell_count(ranks), "unbundled",
                   cell_count(ru.run.comm.messages),
                   cell_count(ru.run.comm.records),
                   cell_count(ru.run.comm.bytes),
                   cell_sci(ru.run.sim_seconds), "1.00x"});
    csv.row({std::to_string(ranks), "bundled",
             std::to_string(rb.run.comm.messages),
             std::to_string(rb.run.comm.records),
             std::to_string(rb.run.comm.bytes),
             std::to_string(rb.run.sim_seconds)});
    csv.row({std::to_string(ranks), "unbundled",
             std::to_string(ru.run.comm.messages),
             std::to_string(ru.run.comm.records),
             std::to_string(ru.run.comm.bytes),
             std::to_string(ru.run.sim_seconds)});
    for (std::size_t round = 0; round < rb.run.breakdown.per_round.size();
         ++round) {
      const CommStats& s = rb.run.breakdown.per_round[round];
      rounds_csv.row({std::to_string(ranks), "bundled", std::to_string(round),
                      std::to_string(s.messages), std::to_string(s.records),
                      std::to_string(s.bytes)});
    }
    for (std::size_t round = 0; round < ru.run.breakdown.per_round.size();
         ++round) {
      const CommStats& s = ru.run.breakdown.per_round[round];
      rounds_csv.row({std::to_string(ranks), "unbundled",
                      std::to_string(round), std::to_string(s.messages),
                      std::to_string(s.records), std::to_string(s.bytes)});
    }
    last_bundled = rb.run.breakdown;
    last_unbundled = ru.run.breakdown;
    last_ranks = ranks;
  }
  table.print(std::cout);
  if (last_ranks != 0) {
    // The per-round view: bundling compresses the same record stream into
    // far fewer messages at every activation depth.
    comm_rounds_table("per-activation-depth comm, bundled, p=" +
                          std::to_string(last_ranks),
                      last_bundled)
        .print(std::cout);
    comm_rounds_table("per-activation-depth comm, unbundled, p=" +
                          std::to_string(last_ranks),
                      last_unbundled)
        .print(std::cout);
  }
  std::cout << "(paper: bundling is the key enabler for scaling to tens of "
               "thousands of processors)\n";
  return 0;
}

}  // namespace
}  // namespace pmc::bench

int main(int argc, const char** argv) {
  try {
    return pmc::bench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "bench_ablation_bundling: " << e.what() << '\n';
    return 1;
  }
}
