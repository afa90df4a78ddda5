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
  TextTable table("coloring communication-mode comparison",
                  {{"procs", "ranks", kCount},
                   {"mode", "mode"},
                   {"messages", "messages", kCount},
                   {"volume (B)", "bytes", kCount},
                   {"rounds", "rounds", kCount},
                   {"colors", "colors", kCount},
                   {"sim (s)", "sim_seconds", kSci}});
  TextTable rounds("", {{"", "ranks"},
                        {"", "mode"},
                        {"round", "round", kCount},
                        {"messages", "messages", kCount},
                        {"records", "records", kCount},
                        {"volume (B)", "bytes", kCount},
                        {"collectives", "collectives", kCount}});
  // The largest processor count's rounds are printed after the summary.
  std::size_t last_first_round = 0;
  int last_ranks = 0;

  struct ModeSpec {
    const char* name;
    DistColoringOptions options;
  };
  const ModeSpec modes[] = {
      {"FIAB", DistColoringOptions::fiab()},
      {"FIAC", DistColoringOptions::fiac()},
      {"NEW", DistColoringOptions::improved()},
  };
  for (const int ranks : rank_list) {
    const Partition p = multilevel_partition(
        g, static_cast<Rank>(ranks), MultilevelConfig::metis_like(3));
    const DistGraph dist = DistGraph::build(g, p);
    last_first_round = rounds.rows();
    last_ranks = ranks;
    for (const auto& mode : modes) {
      const auto res = color_distributed(dist, mode.options);
      PMC_CHECK(is_proper_coloring(g, res.coloring), "improper coloring");
      table.add({ranks, mode.name, res.run.comm.messages, res.run.comm.bytes,
                 res.rounds, res.coloring.num_colors(), res.run.sim_seconds});
      const auto& per_round = res.run.breakdown.per_round;
      for (std::size_t round = 0; round < per_round.size(); ++round) {
        const CommStats& s = per_round[round];
        rounds.add({ranks, mode.name, round, s.messages, s.records, s.bytes,
                    s.collectives});
      }
    }
  }
  table.write_csv(opts.get("csv"));
  rounds.write_csv(opts.get("rounds-csv"));
  table.print(std::cout);
  // Per-round curves for the largest processor count: the modes differ most
  // in the first (busiest) speculative rounds.
  for (const auto& mode : modes) {
    TextTable last = rounds.slice(last_first_round, rounds.rows())
                         .where("mode", mode.name);
    last.set_title(std::string("per-round comm, ") + mode.name +
                   ", p=" + std::to_string(last_ranks));
    last.print(std::cout);
  }
  std::cout << "(paper §4.2: NEW < FIAC in both count and volume; "
               "FIAC < FIAB in volume only)\n";
  return 0;
}

}  // namespace
}  // namespace pmc::bench

int main(int argc, const char** argv) {
  return pmc::bench::run_main(argc, argv, pmc::bench::run);
}
