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

  CsvSink csv(opts.get("csv"),
              {"problem", "ranks", "sim_seconds", "messages", "bytes",
               "extra"});
  ScalingSeries match_series("Fig 5.2 (top): matching, strong scaling, " +
                                 glabel.str(),
                             "matching weight");
  ScalingSeries color_series("Fig 5.2 (bottom): coloring, strong scaling, " +
                                 glabel.str(),
                             "colors");

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
    match_series.add({ranks, glabel.str(), mres.run.sim_seconds, w});
    csv.row({"matching", std::to_string(ranks),
             std::to_string(mres.run.sim_seconds),
             std::to_string(mres.run.comm.messages),
             std::to_string(mres.run.comm.bytes), std::to_string(w)});

    const auto cres =
        color_distributed(dist, DistColoringOptions::improved());
    PMC_CHECK(is_proper_coloring(g, cres.coloring), "improper coloring");
    color_series.add({ranks, glabel.str(), cres.run.sim_seconds,
                      static_cast<double>(cres.coloring.num_colors())});
    csv.row({"coloring", std::to_string(ranks),
             std::to_string(cres.run.sim_seconds),
             std::to_string(cres.run.comm.messages),
             std::to_string(cres.run.comm.bytes),
             std::to_string(cres.coloring.num_colors())});
  }

  match_series.to_table(/*strong=*/true).print(std::cout);
  std::cout << '\n';
  color_series.to_table(/*strong=*/true).print(std::cout);
  std::cout << "(paper: actual curves hug the ideal halving line; the "
               "matching weight is identical at every processor count)\n";
  return 0;
}

}  // namespace
}  // namespace pmc::bench

int main(int argc, const char** argv) {
  try {
    return pmc::bench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "bench_fig_5_2: " << e.what() << '\n';
    return 1;
  }
}
