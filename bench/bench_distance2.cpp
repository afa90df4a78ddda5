// Extension E2 — distributed distance-2 coloring (the Jacobian/Hessian
// compression variant the paper's introduction motivates).
//
// Compares the native implementation (the speculative driver on a halo-2
// distribution) against the squared-graph formulation (distance-1 framework
// on G²) across processor counts: both must produce proper distance-2
// colorings; the native version ships color records only to two-hop
// neighbor ranks.
#include "bench_common.hpp"

#include <iostream>

namespace pmc::bench {
namespace {

int run(int argc, const char** argv) {
  Options opts;
  opts.add("vertices", "40000", "circuit graph size");
  opts.add("ranks", "16,64,256,1024", "comma-separated processor counts");
  opts.add("csv", "", "optional CSV output path");
  (void)opts.parse(argc, argv);
  const auto n = static_cast<VertexId>(opts.get_int("vertices"));

  const std::vector<int> rank_list = opts.get_int_list("ranks");

  banner("Extension E2 — distributed distance-2 coloring",
         "speculative framework generalizes to distance-2 (Jacobian "
         "compression); native two-hop views vs the squared-graph reference");

  const Graph g = circuit_like(n, n * 2, 6, WeightKind::kUnit, 91);
  const Coloring seq = greedy_distance2_coloring(g);
  std::cout << "input: " << g.summary()
            << "; sequential D2 colors=" << seq.num_colors() << "\n\n";

  // The CSV names the variants "native" and "squared".
  TextTable table("distance-2 coloring: native two-hop vs squared graph",
                  {{"procs", "ranks", kCount},
                   {"variant", ""},
                   {"", "variant"},
                   {"colors", "colors", kCount},
                   {"rounds", "rounds", kCount},
                   {"messages", "messages", kCount},
                   {"volume (B)", "bytes", kCount},
                   {"sim (s)", "sim_seconds", kSci}});

  const Graph squared = square_graph(g);
  for (const int ranks : rank_list) {
    const Partition p = multilevel_partition(
        g, static_cast<Rank>(ranks), MultilevelConfig::metis_like(3));

    const auto native = color_distance2_distributed_native(g, p);
    std::string why;
    PMC_CHECK(is_proper_distance2_coloring(g, native.coloring, &why), why);
    table.add({ranks, "native 2-hop", "native", native.coloring.num_colors(),
               native.rounds, native.run.comm.messages,
               native.run.comm.bytes, native.run.sim_seconds});

    const auto sq =
        color_distributed(squared, p, DistColoringOptions::improved());
    PMC_CHECK(is_proper_distance2_coloring(g, sq.coloring, &why), why);
    table.add({ranks, "squared graph", "squared", sq.coloring.num_colors(),
               sq.rounds, sq.run.comm.messages, sq.run.comm.bytes,
               sq.run.sim_seconds});
  }
  table.write_csv(opts.get("csv"));
  table.print(std::cout);
  std::cout << "(both formulations color every distance-<=2 pair distinctly; "
               "the native version avoids materializing G^2)\n";
  return 0;
}

}  // namespace
}  // namespace pmc::bench

int main(int argc, const char** argv) {
  return pmc::bench::run_main(argc, argv, pmc::bench::run);
}
