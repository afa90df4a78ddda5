// Fig 5.3 — Strong scaling of the matching algorithm on the bipartite graph
// of a circuit-simulation matrix.
//
// Paper setup: bipartite representation of G3_circuit (3.2M vertices, 7.7M
// edges), partitioned with METIS (~6% edge cut at 4,096 parts), 2 to 4,096
// processors. Observed: near-ideal scaling that tapers at high processor
// counts as cross edges start to dominate.
//
// This reproduction builds a circuit-like matrix at reduced scale (default
// 60k rows, --rows to change; paper: 1.6M) and partitions it with the
// METIS-like multilevel preset.
#include "bench_common.hpp"

#include <iostream>

namespace pmc::bench {
namespace {

int run(int argc, const char** argv) {
  Options opts;
  opts.add("rows", "150000", "matrix dimension (paper: ~1.6M)");
  opts.add("ranks", "2,8,32,128,512,2048,4096",
           "comma-separated processor counts");
  opts.add("csv", "", "optional CSV output path");
  (void)opts.parse(argc, argv);
  const auto rows = static_cast<VertexId>(opts.get_int("rows"));

  const std::vector<int> rank_list = opts.get_int_list("ranks");

  banner("Fig 5.3 — matching strong scaling, circuit-simulation bipartite "
         "graph (METIS-like partition)",
         "highly impressive though sub-ideal scaling from 2 to 4,096 "
         "processors; ~6% of edges cut at 4,096 parts");

  // Circuit netlist -> symmetric matrix -> bipartite representation,
  // mirroring the paper's derivation from G3_circuit.
  const Graph netlist =
      circuit_like(rows, rows * 2, 6, WeightKind::kUniformRandom, 53);
  BipartiteInfo info;
  const Graph g = bipartite_double_cover(netlist, info,
                                         /*with_diagonal=*/true, 53);
  std::ostringstream glabel;
  glabel << "|V|=" << g.num_vertices() << " |E|=" << g.num_edges();
  std::cout << "input: " << glabel.str() << "\n\n";

  TextTable table("Fig 5.3: matching, strong scaling",
                  {{"procs", "ranks", kCount.aligned(Align::kLeft)},
                   {"input", "", kText.aligned(Align::kRight)},
                   {"", "cut_fraction"},
                   {"actual (s)", "sim_seconds", kSci},
                   {"ideal (s)", "", kSci},
                   {"efficiency", "", percent(2)},
                   {"cut %", "", fixed(4)},
                   {"", "messages"},
                   {"", "bytes"},
                   {"", "weight"}});
  ScalingLaw law(/*strong=*/true);

  const Weight seq_weight = matching_weight(g, locally_dominant_matching(g));
  double max_cut = 0.0;

  for (const int ranks : rank_list) {
    const Partition p = multilevel_partition(
        g, static_cast<Rank>(ranks), MultilevelConfig::metis_like(7));
    const auto metrics = compute_metrics(g, p);
    max_cut = std::max(max_cut, metrics.cut_fraction);

    DistMatchingOptions mopts;
    const auto res = match_distributed(g, p, mopts);
    const Weight w = matching_weight(g, res.matching);
    PMC_CHECK(w == seq_weight, "matching weight changed with rank count");
    const auto pt = law.at(ranks, res.run.sim_seconds);
    table.add({ranks, "", metrics.cut_fraction, res.run.sim_seconds,
               pt.ideal, pt.efficiency, metrics.cut_fraction * 100.0,
               res.run.comm.messages, res.run.comm.bytes, w});
  }

  table.write_csv(opts.get("csv"));
  table.print(std::cout);
  std::cout << "max edge cut over the sweep: " << cell_pct(max_cut, 1)
            << " (paper: ~6% at 4,096 parts)\n"
            << "(paper: scaling degrades gracefully as cross edges grow but "
               "stays strong to 4,096 processors)\n";
  return 0;
}

}  // namespace
}  // namespace pmc::bench

int main(int argc, const char** argv) {
  return pmc::bench::run_main(argc, argv, pmc::bench::run);
}
