// Fig 5.4 — Strong scaling of the coloring algorithm on the adjacency graph
// of a circuit-simulation matrix with a *poor* partition.
//
// Paper setup: adjacency graph of G3_circuit (1.5M vertices, 3M edges),
// partitioned with ParMETIS (~40% edge cut at 4,096 parts!), 2 to 4,096
// processors. Observed: still-good but visibly degraded scaling relative to
// Fig 5.3 — the cost of the much larger cut.
//
// This reproduction uses a circuit-like adjacency graph at reduced scale
// (default 60k vertices, --vertices; paper: 1.5M) and the ParMETIS-like
// multilevel preset (shallow coarsening + perturbation) to reach a
// comparable cut regime.
#include "bench_common.hpp"

#include <iostream>

namespace pmc::bench {
namespace {

int run(int argc, const char** argv) {
  Options opts;
  opts.add("vertices", "150000", "graph size (paper: 1.5M)");
  opts.add("ranks", "2,8,32,128,512,2048,4096",
           "comma-separated processor counts");
  opts.add("csv", "", "optional CSV output path");
  (void)opts.parse(argc, argv);
  const auto n = static_cast<VertexId>(opts.get_int("vertices"));

  const std::vector<int> rank_list = opts.get_int_list("ranks");

  banner("Fig 5.4 — coloring strong scaling, circuit-simulation adjacency "
         "graph (ParMETIS-like partition)",
         "good but visibly degraded scaling (vs Fig 5.3) due to ~40% edge "
         "cut; max/min degree 6 and 2");

  // Adjacency graph of a circuit matrix: bounded degree [2, 6] like
  // G3_circuit.
  const Graph g = circuit_like(n, n * 2, 6, WeightKind::kUnit, 54);
  std::cout << "input: |V|=" << g.num_vertices() << " |E|=" << g.num_edges()
            << " degree range [" << g.min_degree() << ", " << g.max_degree()
            << "]\n\n";

  const Coloring seq = greedy_coloring(g);
  TextTable table("Fig 5.4: coloring, strong scaling",
                  {{"procs", "ranks", kCount.aligned(Align::kLeft)},
                   {"input", "", kText.aligned(Align::kRight)},
                   {"", "cut_fraction"},
                   {"actual (s)", "sim_seconds", kSci},
                   {"ideal (s)", "", kSci},
                   {"efficiency", "", percent(2)},
                   {"", "messages"},
                   {"", "bytes"},
                   {"colors", "colors", fixed(4)},
                   {"", "rounds"}});
  ScalingLaw law(/*strong=*/true);
  double max_cut = 0.0;

  for (const int ranks : rank_list) {
    const Partition p = multilevel_partition(
        g, static_cast<Rank>(ranks), MultilevelConfig::parmetis_like(7));
    const auto metrics = compute_metrics(g, p);
    max_cut = std::max(max_cut, metrics.cut_fraction);

    const auto res = color_distributed(g, p, DistColoringOptions::improved());
    PMC_CHECK(is_proper_coloring(g, res.coloring), "improper coloring");
    const auto pt = law.at(ranks, res.run.sim_seconds);
    table.add({ranks, "", metrics.cut_fraction, res.run.sim_seconds,
               pt.ideal, pt.efficiency, res.run.comm.messages,
               res.run.comm.bytes, res.coloring.num_colors(), res.rounds});
  }

  table.write_csv(opts.get("csv"));
  table.print(std::cout);
  std::cout << "max edge cut over the sweep: " << cell_pct(max_cut, 1)
            << " (paper: ~40% at 4,096 parts)\n"
            << "sequential greedy colors: " << seq.num_colors()
            << " (paper: parallel color count stays near the serial one)\n";
  return 0;
}

}  // namespace
}  // namespace pmc::bench

int main(int argc, const char** argv) {
  return pmc::bench::run_main(argc, argv, pmc::bench::run);
}
