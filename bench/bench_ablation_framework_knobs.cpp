// Ablation A5 — the remaining framework knobs (paper §4.1 question list):
//
//   (iii) "Should interior vertices be colored before, after, or
//         interleaved with boundary vertices?"
//   (iv)  "How should a processor choose a color for a vertex (first-fit,
//         staggered first-fit, least-used ...)?"
//   (ii)  "Should the supersteps be run synchronously or asynchronously?"
//
// The framework paper found interior strictly before/after boundary with
// asynchronous supersteps and first-fit best for well-partitioned inputs.
#include "bench_common.hpp"

#include <iostream>

namespace pmc::bench {
namespace {

const char* order_name(LocalOrder o) {
  switch (o) {
    case LocalOrder::kInteriorFirst: return "interior-first";
    case LocalOrder::kBoundaryFirst: return "boundary-first";
    case LocalOrder::kNatural: return "interleaved";
  }
  return "?";
}

const char* strategy_name(ColorStrategy s) {
  switch (s) {
    case ColorStrategy::kFirstFit: return "first-fit";
    case ColorStrategy::kStaggeredFirstFit: return "staggered-ff";
    case ColorStrategy::kLeastUsed: return "least-used";
  }
  return "?";
}

int run(int argc, const char** argv) {
  Options opts;
  opts.add("vertices", "40000", "circuit graph size");
  opts.add("ranks", "64", "processor count");
  opts.add("csv", "", "optional CSV output path");
  (void)opts.parse(argc, argv);
  const auto n = static_cast<VertexId>(opts.get_int("vertices"));
  const auto ranks = opts.get_int<Rank>("ranks");

  banner("Ablation A5 — framework knobs: vertex order, color strategy, "
         "superstep synchrony",
         "framework paper: interior strictly before/after boundary + async "
         "supersteps + first-fit wins on well-partitioned inputs");

  const Graph g = circuit_like(n, n * 2, 6, WeightKind::kUnit, 93);
  const Partition p =
      multilevel_partition(g, ranks, MultilevelConfig::metis_like(3));
  const DistGraph dist = DistGraph::build(g, p);

  TextTable table("framework knob sweep at " + std::to_string(ranks) +
                      " processors",
                  {{"order", "order"},
                   {"strategy", "strategy"},
                   {"mode", "mode"},
                   {"colors", "colors", kCount},
                   {"rounds", "rounds", kCount},
                   {"conflicts", "conflicts", kCount},
                   {"sim (s)", "sim_seconds", kSci}});

  for (const LocalOrder order :
       {LocalOrder::kInteriorFirst, LocalOrder::kBoundaryFirst,
        LocalOrder::kNatural}) {
    for (const ColorStrategy strategy :
         {ColorStrategy::kFirstFit, ColorStrategy::kStaggeredFirstFit,
          ColorStrategy::kLeastUsed}) {
      for (const SuperstepMode mode :
           {SuperstepMode::kAsync, SuperstepMode::kSync}) {
        DistColoringOptions o = DistColoringOptions::improved();
        o.local_order = order;
        o.strategy = strategy;
        o.superstep_mode = mode;
        const auto res = color_distributed(dist, o);
        PMC_CHECK(is_proper_coloring(g, res.coloring), "improper coloring");
        EdgeId conflicts = 0;
        for (EdgeId c : res.conflicts_per_round) conflicts += c;
        const char* mode_name =
            mode == SuperstepMode::kAsync ? "async" : "sync";
        table.add({order_name(order), strategy_name(strategy), mode_name,
                   res.coloring.num_colors(), res.rounds, conflicts,
                   res.run.sim_seconds});
      }
    }
  }
  table.write_csv(opts.get("csv"));
  table.print(std::cout);
  return 0;
}

}  // namespace
}  // namespace pmc::bench

int main(int argc, const char** argv) {
  return pmc::bench::run_main(argc, argv, pmc::bench::run);
}
