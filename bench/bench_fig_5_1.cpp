// Fig 5.1 — Weak scaling of matching (top) and coloring (bottom) on
// five-point grid graphs with uniform 2-D distribution.
//
// Paper setup: k x k grids from 8,000^2 (|V| ~ 64M) to 32,000^2 (|V| ~ 1B)
// on 1,024 / 4,096 / 16,384 Blue Gene/P processors — a fixed subgrid per
// processor, so ideal weak scaling is a flat line. The paper observed
// near-flat curves (matching ~2.5-6.5e-2 s, coloring ~1e-3..1e-2 s).
//
// This reproduction keeps the processor counts and the 2-D distribution but
// shrinks the per-processor subgrid (default 16x16, --subgrid to change;
// paper: 250x250) so a single host can simulate 16,384 ranks.
#include "bench_common.hpp"

#include <iostream>

namespace pmc::bench {
namespace {

int run(int argc, const char** argv) {
  Options opts;
  opts.add("subgrid", "16", "per-rank subgrid side length (paper: 250)");
  opts.add("ranks", "1024,4096,16384", "comma-separated processor counts");
  opts.add("csv", "", "optional CSV output path");
  (void)opts.parse(argc, argv);
  const auto subgrid = static_cast<VertexId>(opts.get_int("subgrid"));

  const std::vector<int> rank_list = opts.get_int_list("ranks");

  banner("Fig 5.1 — weak scaling on five-point grid graphs",
         "near-flat compute time as processors and input grow together "
         "(excellent weak scaling)");

  // The CSV keeps one row per run in run order; each curve prints its own.
  TextTable fig("", {{"", "problem"},
                     {"procs", "ranks", kCount.aligned(Align::kLeft)},
                     {"input", "grid", kText.aligned(Align::kRight)},
                     {"actual (s)", "sim_seconds", kSci},
                     {"ideal (s)", "", kSci},
                     {"efficiency", "", percent(2)},
                     {"", "messages"},
                     {"", "bytes"},
                     {"extra", "extra", fixed(4)}});
  ScalingLaw match_law(/*strong=*/false);
  ScalingLaw color_law(/*strong=*/false);

  for (const int ranks : rank_list) {
    Rank pr = 0, pc = 0;
    factor_processor_grid(static_cast<Rank>(ranks), pr, pc);
    const VertexId rows = subgrid * pr;
    const VertexId cols = subgrid * pc;
    std::ostringstream label;
    label << rows << " x " << cols;

    // Paper: "the edges in the graphs were assigned random weights" so the
    // grid structure does not matter for matching.
    const Graph g = grid_2d(rows, cols, WeightKind::kUniformRandom, 51);
    const Partition p = grid_2d_partition(rows, cols, pr, pc);
    const DistGraph dist = DistGraph::build(g, p);

    DistMatchingOptions mopts;  // Blue Gene/P model, bundling on
    const auto mres = match_distributed(dist, mopts);
    PMC_CHECK(is_valid_matching(g, mres.matching), "invalid matching");
    const auto m = match_law.at(ranks, mres.run.sim_seconds);
    fig.add({"matching", ranks, label.str(), mres.run.sim_seconds, m.ideal,
             m.efficiency, mres.run.comm.messages, mres.run.comm.bytes,
             matching_weight(g, mres.matching)});

    const auto cres =
        color_distributed(dist, DistColoringOptions::improved());
    PMC_CHECK(is_proper_coloring(g, cres.coloring), "improper coloring");
    const auto c = color_law.at(ranks, cres.run.sim_seconds);
    fig.add({"coloring", ranks, label.str(), cres.run.sim_seconds, c.ideal,
             c.efficiency, cres.run.comm.messages, cres.run.comm.bytes,
             cres.coloring.num_colors()});
  }

  fig.write_csv(opts.get("csv"));
  print_curve(fig, "matching", "Fig 5.1 (top): matching, weak scaling",
              "matching weight");
  std::cout << '\n';
  print_curve(fig, "coloring", "Fig 5.1 (bottom): coloring, weak scaling",
              "colors");
  std::cout << "(paper: both curves stay near the flat ideal line up to "
               "16,384 processors)\n";
  return 0;
}

}  // namespace
}  // namespace pmc::bench

int main(int argc, const char** argv) {
  return pmc::bench::run_main(argc, argv, pmc::bench::run);
}
