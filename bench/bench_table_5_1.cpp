// Table 5.1 — Overview of the experimental setup (inputs, distribution,
// processor counts). This binary regenerates the overview from the actual
// configurations the other bench binaries run, including measured cut
// fractions for the partitioned inputs.
#include "bench_common.hpp"

#include <iostream>

namespace pmc::bench {
namespace {

int run(int argc, const char** argv) {
  Options opts;
  opts.add("csv", "", "optional CSV output path");
  (void)opts.parse(argc, argv);

  banner("Table 5.1 — overview of experimental setup",
         "summary of the four scaling studies (grid weak/strong, circuit "
         "matching, circuit coloring)");

  // The table spells each setting out; the CSV keeps short names.
  TextTable table("Table 5.1 (reproduced; sizes scaled to this host)",
                  {{"Figure", ""},
                   {"", "figure"},
                   {"Problem", ""},
                   {"", "problem"},
                   {"Scaling", ""},
                   {"", "scaling"},
                   {"Input graph", "input"},
                   {"Distribution", ""},
                   {"", "distribution"},
                   {"Max proc", "max_proc", kCount},
                   {"", "cut_at_max"}});

  // Fig 5.1 — weak scaling grids (defaults of bench_fig_5_1).
  {
    Rank pr = 0, pc = 0;
    factor_processor_grid(16384, pr, pc);
    std::ostringstream in;
    in << "k x k grids, largest " << 16 * pr << " x " << 16 * pc;
    table.add({"Fig 5.1", "5.1", "matching & coloring", "matching+coloring",
               "Weak", "weak", in.str(), "Uniform 2D", "uniform2d", 16384,
               Cell{}});
  }
  // Fig 5.2 — strong scaling grid.
  {
    const Graph g = grid_2d(2048, 2048);
    std::ostringstream in;
    in << "2048 x 2048 grid, |V|=" << cell_count(g.num_vertices())
       << " |E|=" << cell_count(g.num_edges());
    table.add({"Fig 5.2", "5.2", "matching & coloring", "matching+coloring",
               "Strong", "strong", in.str(), "Uniform 2D", "uniform2d", 16384,
               Cell{}});
  }
  // Fig 5.3 — circuit bipartite graph, METIS-like partition at max ranks.
  {
    const Graph netlist =
        circuit_like(150000, 300000, 6, WeightKind::kUniformRandom, 53);
    BipartiteInfo info;
    const Graph g =
        bipartite_double_cover(netlist, info, /*with_diagonal=*/true, 53);
    const Partition p =
        multilevel_partition(g, 4096, MultilevelConfig::metis_like(7));
    const auto metrics = compute_metrics(g, p);
    std::ostringstream in;
    in << "circuit bipartite, |V|=" << cell_count(g.num_vertices())
       << " |E|=" << cell_count(g.num_edges()) << " ("
       << cell_pct(metrics.cut_fraction, 1) << " edge cut)";
    table.add({"Fig 5.3", "5.3", "matching", "matching", "Strong", "strong",
               in.str(), "METIS-like multilevel", "metis-like", 4096,
               metrics.cut_fraction});
  }
  // Fig 5.4 — circuit adjacency graph, ParMETIS-like partition.
  {
    const Graph g = circuit_like(150000, 300000, 6, WeightKind::kUnit, 54);
    const Partition p =
        multilevel_partition(g, 4096, MultilevelConfig::parmetis_like(7));
    const auto metrics = compute_metrics(g, p);
    std::ostringstream in;
    in << "circuit adjacency, |V|=" << cell_count(g.num_vertices())
       << " |E|=" << cell_count(g.num_edges()) << " ("
       << cell_pct(metrics.cut_fraction, 1) << " edge cut), deg ["
       << g.min_degree() << ", " << g.max_degree() << "]";
    table.add({"Fig 5.4", "5.4", "coloring", "coloring", "Strong", "strong",
               in.str(), "ParMETIS-like multilevel", "parmetis-like", 4096,
               metrics.cut_fraction});
  }

  table.write_csv(opts.get("csv"));
  table.print(std::cout);
  std::cout << "(paper: grids to 1B vertices; G3_circuit 3.2M/1.5M vertices; "
               "METIS 6% vs ParMETIS 40% cut at 4,096 parts)\n";
  return 0;
}

}  // namespace
}  // namespace pmc::bench

int main(int argc, const char** argv) {
  return pmc::bench::run_main(argc, argv, pmc::bench::run);
}
