// Integration tests: full pipelines across modules, exactly as the
// benchmark harness and the paper's experiments wire them together.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/experiment.hpp"
#include "core/pmc.hpp"
#include "support/table.hpp"

namespace pmc {
namespace {

TEST(Integration, GridPipelineMatchingAndColoring) {
  // The Fig 5.1/5.2 pipeline at miniature scale: grid -> 2-D uniform
  // distribution -> both algorithms -> verification.
  const VertexId k = 24;
  const Graph g = grid_2d(k, k, WeightKind::kUniformRandom, 11);
  Rank pr = 0, pc = 0;
  factor_processor_grid(16, pr, pc);
  const Partition p = grid_2d_partition(k, k, pr, pc);
  const DistGraph dist = DistGraph::build(g, p);
  dist.validate(g, p);

  DistMatchingOptions mopts;  // BG/P model
  const auto mres = match_distributed(dist, mopts);
  EXPECT_TRUE(is_valid_matching(g, mres.matching));
  EXPECT_TRUE(is_maximal_matching(g, mres.matching));
  EXPECT_DOUBLE_EQ(matching_weight(g, mres.matching),
                   matching_weight(g, locally_dominant_matching(g)));
  EXPECT_GT(mres.run.sim_seconds, 0.0);

  const auto cres = color_distributed(dist, DistColoringOptions::improved());
  EXPECT_TRUE(is_proper_coloring(g, cres.coloring));
  EXPECT_GT(cres.run.sim_seconds, 0.0);
}

TEST(Integration, CircuitPipelineWithBothPartitioners) {
  // The Fig 5.3/5.4 pipeline: circuit-like graph, METIS-like and
  // ParMETIS-like partitions, matching on the good one, coloring on the bad
  // one — and the bad partition must show more cross traffic.
  const Graph g = circuit_like(3000, 6300, 6, WeightKind::kUniformRandom, 12);
  const Partition good =
      multilevel_partition(g, 16, MultilevelConfig::metis_like(1));
  const Partition bad =
      multilevel_partition(g, 16, MultilevelConfig::parmetis_like(1));
  const auto good_metrics = compute_metrics(g, good);
  const auto bad_metrics = compute_metrics(g, bad);
  EXPECT_LT(good_metrics.cut_fraction, bad_metrics.cut_fraction);

  DistMatchingOptions mopts;
  const auto m_good = match_distributed(g, good, mopts);
  const auto m_bad = match_distributed(g, bad, mopts);
  EXPECT_TRUE(is_valid_matching(g, m_good.matching));
  EXPECT_TRUE(is_valid_matching(g, m_bad.matching));
  // Same matching regardless of the partition; more traffic on the bad one.
  EXPECT_EQ(m_good.matching.mate, m_bad.matching.mate);
  EXPECT_LT(m_good.run.comm.records, m_bad.run.comm.records);

  const auto c_bad = color_distributed(g, bad, DistColoringOptions::improved());
  EXPECT_TRUE(is_proper_coloring(g, c_bad.coloring));
}

TEST(Integration, MatrixMarketToMatchingQuality) {
  // The Table 1.1 pipeline: matrix file -> bipartite graph -> approximate
  // and exact matchings -> quality ratio.
  const std::string path = ::testing::TempDir() + "/pmc_quality.mtx";
  {
    BipartiteInfo info;
    const Graph g = random_bipartite(40, 40, 220, info,
                                     WeightKind::kUniformRandom, 13);
    const SparseMatrix m = bipartite_to_matrix(g, info);
    std::ofstream out(path);
    write_matrix_market(out, m);
  }
  const SparseMatrix m = read_matrix_market_file(path);
  BipartiteInfo info;
  const Graph g = matrix_to_bipartite(m, info);
  const Matching approx = locally_dominant_matching(g);
  const Matching exact = exact_max_weight_bipartite_matching(g, info);
  const Weight wa = matching_weight(g, approx);
  const Weight we = matching_weight(g, exact);
  EXPECT_GE(wa, 0.5 * we);
  EXPECT_LE(wa, we + 1e-9);
  EXPECT_GT(wa / we, 0.85);  // paper reports > 90% in practice
}

TEST(Integration, MatrixMarketToColoring) {
  // The Fig 5.4 input preparation: symmetric matrix -> adjacency graph ->
  // distributed coloring on a poor partition.
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "6 6 8\n"
      "2 1 1.0\n3 1 1.0\n3 2 1.0\n4 3 1.0\n5 4 1.0\n6 4 1.0\n6 5 1.0\n"
      "5 1 1.0\n");
  const SparseMatrix m = read_matrix_market(in);
  const Graph g = matrix_to_adjacency(m);
  const Partition p = cyclic_partition(g.num_vertices(), 3);
  const auto result = color_distributed(g, p, DistColoringOptions::improved());
  EXPECT_TRUE(is_proper_coloring(g, result.coloring));
}

TEST(Integration, WeakScalingShapeIsFlat) {
  // Miniature Fig 5.1: fixed per-rank subgrid, growing rank count. The
  // modelled time may grow slowly (boundary exchanges, allreduce) but must
  // stay within a small factor of the single-config time — the paper's
  // weak-scaling claim.
  ScalingLaw weak(/*strong=*/false);
  ScalingLaw::Point last{};
  const VertexId per_rank = 8;
  for (const Rank ranks : {4, 16, 64}) {
    Rank pr = 0, pc = 0;
    factor_processor_grid(ranks, pr, pc);
    const VertexId rows = per_rank * pr;
    const VertexId cols = per_rank * pc;
    const Graph g = grid_2d(rows, cols, WeightKind::kUniformRandom, 14);
    const Partition p = grid_2d_partition(rows, cols, pr, pc);
    DistMatchingOptions opts;
    const auto result = match_distributed(g, p, opts);
    last = weak.at(ranks, result.run.sim_seconds);
  }
  // Within 6x of the first point's time.
  EXPECT_GT(last.efficiency, 1.0 / 6.0);
}

TEST(Integration, StrongScalingShapeDecreases) {
  // Miniature Fig 5.2: fixed graph, growing rank count; the modelled time
  // must decrease substantially from 1 rank to many.
  const VertexId k = 64;
  const Graph g = grid_2d(k, k, WeightKind::kUniformRandom, 15);
  double t1 = 0.0;
  double t16 = 0.0;
  for (const Rank ranks : {1, 16}) {
    Rank pr = 0, pc = 0;
    factor_processor_grid(ranks, pr, pc);
    const Partition p = grid_2d_partition(k, k, pr, pc);
    DistMatchingOptions opts;
    const auto result = match_distributed(g, p, opts);
    if (ranks == 1) t1 = result.run.sim_seconds;
    else t16 = result.run.sim_seconds;
  }
  EXPECT_LT(t16, t1 / 3.0);
}

TEST(Integration, EndToEndHighLevelApi) {
  const Graph g = circuit_like(800, 1700, 6, WeightKind::kUniformRandom, 16);
  const auto mres = match_on_ranks(g, 8);
  const auto cres = color_on_ranks(g, 8);
  EXPECT_TRUE(is_valid_matching(g, mres.matching));
  EXPECT_TRUE(is_proper_coloring(g, cres.coloring));
  EXPECT_GT(mres.run.comm.messages, 0);
  EXPECT_GT(cres.run.comm.messages, 0);
}

}  // namespace
}  // namespace pmc
