// Ablation A3 — superstep size sweep for the speculative coloring.
//
// The framework paper asked "how large should the superstep size s be?" and
// settled on ~1000 for well-partitioned graphs (~100 for poorly
// partitioned). Small s means frequent small messages (latency-bound);
// large s means more same-round speculation and therefore more conflicts
// and rounds. This sweep exposes the trade-off.
#include "bench_common.hpp"

#include <iostream>

namespace pmc::bench {
namespace {

int run(int argc, const char** argv) {
  Options opts;
  opts.add("vertices", "40000", "circuit graph size");
  opts.add("ranks", "64", "processor count");
  opts.add("csv", "", "optional CSV output path");
  (void)opts.parse(argc, argv);
  const auto n = static_cast<VertexId>(opts.get_int("vertices"));
  const auto ranks = opts.get_int<Rank>("ranks");

  banner("Ablation A3 — superstep size sweep (coloring)",
         "small s: latency-dominated; large s: more conflicts/rounds; "
         "s ~ 1000 balances the two (the FIAC/NEW setting)");

  const Graph g = circuit_like(n, n * 2, 6, WeightKind::kUnit, 63);
  const Partition p =
      multilevel_partition(g, ranks, MultilevelConfig::metis_like(3));
  const DistGraph dist = DistGraph::build(g, p);

  TextTable table("superstep size sweep at " + std::to_string(ranks) +
                      " processors",
                  {{"superstep s", "superstep", kCount},
                   {"rounds", "rounds", kCount},
                   {"total conflicts", "conflicts", kCount},
                   {"messages", "messages", kCount},
                   {"colors", "colors", kCount},
                   {"sim (s)", "sim_seconds", kSci}});

  for (const VertexId s : {1, 10, 100, 1000, 10000}) {
    DistColoringOptions o = DistColoringOptions::improved();
    o.superstep_size = s;
    const auto res = color_distributed(dist, o);
    PMC_CHECK(is_proper_coloring(g, res.coloring), "improper coloring");
    EdgeId conflicts = 0;
    for (EdgeId c : res.conflicts_per_round) conflicts += c;
    table.add({s, res.rounds, conflicts, res.run.comm.messages,
               res.coloring.num_colors(), res.run.sim_seconds});
  }
  table.write_csv(opts.get("csv"));
  table.print(std::cout);
  std::cout << "(framework paper: s in the order of a thousand is best for "
               "well-partitioned inputs)\n";
  return 0;
}

}  // namespace
}  // namespace pmc::bench

int main(int argc, const char** argv) {
  return pmc::bench::run_main(argc, argv, pmc::bench::run);
}
