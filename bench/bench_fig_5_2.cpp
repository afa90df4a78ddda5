// Fig 5.2 — Strong scaling of matching (top) and coloring (bottom) on one
// five-point grid graph with uniform 2-D distribution.
//
// Paper setup: a fixed 32,000 x 32,000 grid (|V| ~ 1B, |E| ~ 2B) on 512 to
// 16,384 Blue Gene/P processors; both algorithms tracked the ideal halving
// line closely (log-log plots).
//
// This reproduction keeps the processor counts but shrinks the grid
// (default 512x512, --grid to change) so one host can simulate the runs.
#include "bench_common.hpp"

#include <iostream>

namespace pmc::bench {
namespace {

int run(int argc, const char** argv) {
  Options opts;
  opts.add("grid", "2048", "grid side length (paper: 32000)");
  opts.add("ranks", "512,1024,2048,4096,8192,16384",
           "comma-separated processor counts");
  opts.add("csv", "", "optional CSV output path");
  (void)opts.parse(argc, argv);
  const auto side = static_cast<VertexId>(opts.get_int("grid"));

  const std::vector<int> rank_list = opts.get_int_list("ranks");

  banner("Fig 5.2 — strong scaling on a five-point grid graph",
         "compute time tracks the ideal 1/p line on a log-log plot from 512 "
         "to 16,384 processors");

  std::ostringstream glabel;
  glabel << side << " x " << side;
  const Graph g = grid_2d(side, side, WeightKind::kUniformRandom, 52);

  // The CSV keeps one row per run in run order; each curve prints its own.
  TextTable fig("", {{"", "problem"},
                     {"procs", "ranks", kCount.aligned(Align::kLeft)},
                     {"input", "", kText.aligned(Align::kRight)},
                     {"actual (s)", "sim_seconds", kSci},
                     {"ideal (s)", "", kSci},
                     {"efficiency", "", percent(2)},
                     {"", "messages"},
                     {"", "bytes"},
                     {"extra", "extra", fixed(4)}});
  ScalingLaw match_law(/*strong=*/true);
  ScalingLaw color_law(/*strong=*/true);

  const Weight seq_weight = matching_weight(g, locally_dominant_matching(g));

  for (const int ranks : rank_list) {
    Rank pr = 0, pc = 0;
    factor_processor_grid(static_cast<Rank>(ranks), pr, pc);
    const Partition p = grid_2d_partition(side, side, pr, pc);
    const DistGraph dist = DistGraph::build(g, p);

    DistMatchingOptions mopts;
    const auto mres = match_distributed(dist, mopts);
    const Weight w = matching_weight(g, mres.matching);
    // Paper: the matching weight is identical for every processor count.
    PMC_CHECK(w == seq_weight, "matching weight changed with rank count");
    const auto m = match_law.at(ranks, mres.run.sim_seconds);
    fig.add({"matching", ranks, glabel.str(), mres.run.sim_seconds, m.ideal,
             m.efficiency, mres.run.comm.messages, mres.run.comm.bytes, w});

    const auto cres =
        color_distributed(dist, DistColoringOptions::improved());
    PMC_CHECK(is_proper_coloring(g, cres.coloring), "improper coloring");
    const auto c = color_law.at(ranks, cres.run.sim_seconds);
    fig.add({"coloring", ranks, glabel.str(), cres.run.sim_seconds, c.ideal,
             c.efficiency, cres.run.comm.messages, cres.run.comm.bytes,
             cres.coloring.num_colors()});
  }

  fig.write_csv(opts.get("csv"));
  print_curve(fig, "matching",
              "Fig 5.2 (top): matching, strong scaling, " + glabel.str(),
              "matching weight");
  std::cout << '\n';
  print_curve(fig, "coloring",
              "Fig 5.2 (bottom): coloring, strong scaling, " + glabel.str(),
              "colors");
  std::cout << "(paper: actual curves hug the ideal halving line; the "
               "matching weight is identical at every processor count)\n";
  return 0;
}

}  // namespace
}  // namespace pmc::bench

int main(int argc, const char** argv) {
  return pmc::bench::run_main(argc, argv, pmc::bench::run);
}
