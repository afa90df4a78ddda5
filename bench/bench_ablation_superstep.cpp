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

  TextTable table({"superstep s", "rounds", "total conflicts", "messages",
                   "colors", "sim (s)"},
                  {Align::kRight, Align::kRight, Align::kRight, Align::kRight,
                   Align::kRight, Align::kRight});
  table.set_title("superstep size sweep at " + std::to_string(ranks) +
                  " processors");
  CsvSink csv(opts.get("csv"), {"superstep", "rounds", "conflicts",
                                "messages", "colors", "sim_seconds"});

  for (const VertexId s : {1, 10, 100, 1000, 10000}) {
    DistColoringOptions o = DistColoringOptions::improved();
    o.superstep_size = s;
    const auto res = color_distributed(dist, o);
    PMC_CHECK(is_proper_coloring(g, res.coloring), "improper coloring");
    EdgeId conflicts = 0;
    for (EdgeId c : res.conflicts_per_round) conflicts += c;
    table.add_row({cell_count(s), cell_count(res.rounds),
                   cell_count(conflicts),
                   cell_count(res.run.comm.messages),
                   cell_count(res.coloring.num_colors()),
                   cell_sci(res.run.sim_seconds)});
    csv.row({std::to_string(s), std::to_string(res.rounds),
             std::to_string(conflicts),
             std::to_string(res.run.comm.messages),
             std::to_string(res.coloring.num_colors()),
             std::to_string(res.run.sim_seconds)});
  }
  table.print(std::cout);
  std::cout << "(framework paper: s in the order of a thousand is best for "
               "well-partitioned inputs)\n";
  return 0;
}

}  // namespace
}  // namespace pmc::bench

int main(int argc, const char** argv) {
  try {
    return pmc::bench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "bench_ablation_superstep: " << e.what() << '\n';
    return 1;
  }
}
