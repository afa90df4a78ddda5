// Ablation A2 — coloring communication modes: FIAB vs FIAC vs the paper's
// new neighbor-customized scheme (§4.2).
//
//   FIAB: union of superstep colors broadcast to every rank.
//   FIAC: customized (possibly empty) message to every rank — lower volume,
//         same message count.
//   NEW:  customized messages to neighboring ranks only — lower volume AND
//         lower count. The paper's improvement.
//
// Broadcast modes send P-1 messages per rank per superstep, so this
// ablation runs at modest processor counts.
#include "bench_common.hpp"

#include <iostream>
#include <utility>

namespace pmc::bench {
namespace {

int run(int argc, const char** argv) {
  Options opts;
  opts.add("vertices", "20000", "circuit graph size");
  opts.add("ranks", "16,64,256", "comma-separated processor counts");
  opts.add("csv", "", "optional CSV output path");
  opts.add("rounds-csv", "", "optional per-round series CSV output path");
  (void)opts.parse(argc, argv);
  const auto n = static_cast<VertexId>(opts.get_int("vertices"));

  const std::vector<int> rank_list = opts.get_int_list("ranks");

  banner("Ablation A2 — coloring communication modes (FIAB / FIAC / NEW)",
         "FIAC reduces volume but not message count vs FIAB; the new "
         "neighbor-customized mode reduces both");

  const Graph g = circuit_like(n, n * 2, 6, WeightKind::kUnit, 62);
  TextTable table({"procs", "mode", "messages", "volume (B)", "rounds",
                   "colors", "sim (s)"},
                  {Align::kRight, Align::kLeft, Align::kRight, Align::kRight,
                   Align::kRight, Align::kRight, Align::kRight});
  table.set_title("coloring communication-mode comparison");
  CsvSink csv(opts.get("csv"), {"ranks", "mode", "messages", "bytes",
                                "rounds", "colors", "sim_seconds"});
  CsvSink rounds_csv(opts.get("rounds-csv"),
                     {"ranks", "mode", "round", "messages", "records",
                      "bytes", "collectives"});
  // Per-round series for the largest processor count, one per mode.
  std::vector<std::pair<std::string, CommBreakdown>> last_breakdowns;
  int last_ranks = 0;

  for (const int ranks : rank_list) {
    const Partition p = multilevel_partition(
        g, static_cast<Rank>(ranks), MultilevelConfig::metis_like(3));
    const DistGraph dist = DistGraph::build(g, p);
    struct ModeSpec {
      const char* name;
      DistColoringOptions options;
    };
    const ModeSpec modes[] = {
        {"FIAB", DistColoringOptions::fiab()},
        {"FIAC", DistColoringOptions::fiac()},
        {"NEW", DistColoringOptions::improved()},
    };
    if (ranks != last_ranks) last_breakdowns.clear();
    last_ranks = ranks;
    for (const auto& mode : modes) {
      const auto res = color_distributed(dist, mode.options);
      PMC_CHECK(is_proper_coloring(g, res.coloring), "improper coloring");
      table.add_row({cell_count(ranks), mode.name,
                     cell_count(res.run.comm.messages),
                     cell_count(res.run.comm.bytes),
                     cell_count(res.rounds),
                     cell_count(res.coloring.num_colors()),
                     cell_sci(res.run.sim_seconds)});
      csv.row({std::to_string(ranks), mode.name,
               std::to_string(res.run.comm.messages),
               std::to_string(res.run.comm.bytes),
               std::to_string(res.rounds),
               std::to_string(res.coloring.num_colors()),
               std::to_string(res.run.sim_seconds)});
      for (std::size_t round = 0; round < res.run.breakdown.per_round.size();
           ++round) {
        const CommStats& s = res.run.breakdown.per_round[round];
        rounds_csv.row({std::to_string(ranks), mode.name,
                        std::to_string(round), std::to_string(s.messages),
                        std::to_string(s.records), std::to_string(s.bytes),
                        std::to_string(s.collectives)});
      }
      last_breakdowns.emplace_back(mode.name, res.run.breakdown);
    }
  }
  table.print(std::cout);
  // Per-round curves for the largest processor count: the modes differ most
  // in the first (busiest) speculative rounds.
  for (const auto& [name, breakdown] : last_breakdowns) {
    comm_rounds_table("per-round comm, " + name + ", p=" +
                          std::to_string(last_ranks),
                      breakdown)
        .print(std::cout);
  }
  std::cout << "(paper §4.2: NEW < FIAC in both count and volume; "
               "FIAC < FIAB in volume only)\n";
  return 0;
}

}  // namespace
}  // namespace pmc::bench

int main(int argc, const char** argv) {
  try {
    return pmc::bench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "bench_ablation_comm_modes: " << e.what() << '\n';
    return 1;
  }
}
