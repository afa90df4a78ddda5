// Extension E1 — hybrid MPI+OpenMP execution (the paper's §6 outlook).
//
// "Implementations that harness the full potential of such architectures
// will need to rely on the use of hybrid distributed-memory and
// shared-memory programming, for example, via the combined use of MPI and
// OpenMP."
//
// We model a hybrid configuration as fewer ranks with `t` threads each:
// local computation speeds up by 1 + (t-1)*efficiency while the message
// protocol runs between ranks only — fewer ranks means fewer boundary
// vertices, fewer messages and cheaper collectives. At a fixed core budget
// this trades thread efficiency against communication volume; the sweep
// shows where hybrid wins.
#include "bench_common.hpp"

#include <iostream>

namespace pmc::bench {
namespace {

int run(int argc, const char** argv) {
  Options opts;
  opts.add("cores", "4096", "total core budget (ranks x threads)");
  opts.add("grid", "1024", "grid side length");
  opts.add("efficiency", "0.8", "per-thread parallel efficiency");
  opts.add("csv", "", "optional CSV output path");
  (void)opts.parse(argc, argv);
  const auto cores = opts.get_int<int>("cores");
  PMC_REQUIRE(cores >= 1, "option --cores must be at least 1, got " << cores);
  const auto side = static_cast<VertexId>(opts.get_int("grid"));
  const double eff = opts.get_double("efficiency");

  banner("Extension E1 — hybrid MPI+OpenMP at a fixed core budget",
         "paper §6 outlook: fewer, fatter ranks trade thread efficiency "
         "against communication; hybrid wins once communication dominates");

  const Graph g = grid_2d(side, side, WeightKind::kUniformRandom, 81);
  std::ostringstream title;
  title << "hybrid sweep at " << cores << " cores on a " << side << " x "
        << side << " grid (thread efficiency " << eff << ")";
  TextTable table(title.str(), {{"ranks", "ranks", kCount},
                                {"threads", "threads", kCount},
                                {"matching (s)", "match_seconds", kSci},
                                {"coloring (s)", "color_seconds", kSci},
                                {"match msgs", "match_msgs", kCount},
                                {"color msgs", "color_msgs", kCount}});

  for (const int threads : {1, 2, 4, 8, 16}) {
    const int ranks = cores / threads;
    if (ranks < 1) break;
    const MachineModel model =
        MachineModel::blue_gene_p().with_threads(threads, eff);
    Rank pr = 0, pc = 0;
    factor_processor_grid(static_cast<Rank>(ranks), pr, pc);
    const Partition p = grid_2d_partition(side, side, pr, pc);
    const DistGraph dist = DistGraph::build(g, p);

    DistMatchingOptions mopts;
    mopts.model = model;
    const auto mres = match_distributed(dist, mopts);

    DistColoringOptions copts = DistColoringOptions::improved();
    copts.model = model;
    const auto cres = color_distributed(dist, copts);
    PMC_CHECK(is_proper_coloring(g, cres.coloring), "improper coloring");

    table.add({ranks, threads, mres.run.sim_seconds, cres.run.sim_seconds,
               mres.run.comm.messages, cres.run.comm.messages});
  }
  table.write_csv(opts.get("csv"));
  table.print(std::cout);
  std::cout << "(the computed matching/coloring is identical in every row — "
               "only the modelled execution differs)\n";
  return 0;
}

}  // namespace
}  // namespace pmc::bench

int main(int argc, const char** argv) {
  return pmc::bench::run_main(argc, argv, pmc::bench::run);
}
