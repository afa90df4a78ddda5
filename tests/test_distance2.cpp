// Tests for the distance-2 coloring extension.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "coloring/distance2.hpp"
#include "coloring/distance2_parallel.hpp"
#include "graph/algorithms.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "partition/multilevel.hpp"
#include "partition/simple.hpp"

namespace pmc {
namespace {

TEST(Distance2, StarNeedsAllDistinctColors) {
  // Every pair of leaves shares the hub as a common neighbor: n colors.
  const Graph g = star(8);
  const Coloring c = greedy_distance2_coloring(g);
  std::string why;
  EXPECT_TRUE(is_proper_distance2_coloring(g, c, &why)) << why;
  EXPECT_EQ(c.num_colors(), 8);
}

TEST(Distance2, PathUsesThreeColors) {
  const Graph g = path(10);
  const Coloring c = greedy_distance2_coloring(g);
  EXPECT_TRUE(is_proper_distance2_coloring(g, c));
  EXPECT_EQ(c.num_colors(), 3);
}

TEST(Distance2, RespectsDeltaSquaredBound) {
  const Graph g = erdos_renyi(200, 800, WeightKind::kUnit, 1);
  const Coloring c = greedy_distance2_coloring(g);
  EXPECT_TRUE(is_proper_distance2_coloring(g, c));
  const auto delta = static_cast<Color>(g.max_degree());
  EXPECT_LE(c.num_colors(), delta * delta + 1);
}

TEST(Distance2, IsAlsoProperDistance1) {
  const Graph g = circuit_like(300, 700);
  const Coloring c = greedy_distance2_coloring(g);
  EXPECT_TRUE(is_proper_coloring(g, c));
}

TEST(Distance2, VerifierCatchesDistance2Violation) {
  // Path 0-1-2: coloring 0 and 2 the same violates distance-2 only.
  const Graph g = path(3);
  Coloring c;
  c.color = {0, 1, 0};
  EXPECT_TRUE(is_proper_coloring(g, c));
  std::string why;
  EXPECT_FALSE(is_proper_distance2_coloring(g, c, &why));
  EXPECT_NE(why.find("common neighbor"), std::string::npos);
}

TEST(Distance2, WorksWithAllStaticOrderings) {
  const Graph g = grid_2d(10, 10);
  for (OrderingKind kind :
       {OrderingKind::kNatural, OrderingKind::kRandom,
        OrderingKind::kLargestFirst, OrderingKind::kSmallestLast}) {
    const Coloring c = greedy_distance2_coloring(g, kind, 3);
    std::string why;
    EXPECT_TRUE(is_proper_distance2_coloring(g, c, &why)) << why;
  }
}

TEST(Distance2Distributed, ProperAcrossRankCounts) {
  const Graph g = grid_2d(16, 16);
  for (Rank ranks : {1, 4, 16}) {
    Rank pr = 0, pc = 0;
    factor_processor_grid(ranks, pr, pc);
    const Partition p = grid_2d_partition(16, 16, pr, pc);
    const auto result = color_distance2_distributed(g, p);
    std::string why;
    EXPECT_TRUE(is_proper_distance2_coloring(g, result.coloring, &why))
        << "ranks=" << ranks << ": " << why;
  }
}

TEST(Distance2Distributed, CircuitGraphWithMultilevelPartition) {
  const Graph g = circuit_like(1500, 3200, 6, WeightKind::kUnit, 2);
  const Partition p = multilevel_partition(g, 8, MultilevelConfig::metis_like());
  const auto result = color_distance2_distributed(g, p);
  std::string why;
  EXPECT_TRUE(is_proper_distance2_coloring(g, result.coloring, &why)) << why;
  // Colors bounded by Delta(G^2) + 1 <= Delta^2 + 1.
  const auto delta = static_cast<Color>(g.max_degree());
  EXPECT_LE(result.coloring.num_colors(), delta * delta + 1);
  // And at least the sequential lower bound of Delta+1 (any vertex plus its
  // neighbors are mutually distance-<=2).
  EXPECT_GE(result.coloring.num_colors(),
            static_cast<Color>(g.max_degree()) + 1);
}

TEST(Distance2Distributed, CommunicationReflectsTwoHopExchange) {
  // D2 coloring must ship strictly more color information than D1 on the
  // same partitioned graph.
  const Graph g = grid_2d(24, 24);
  const Partition p = grid_2d_partition(24, 24, 4, 4);
  const auto d2 = color_distance2_distributed(g, p);
  const auto d1 = color_distributed(g, p, DistColoringOptions::improved());
  EXPECT_GT(d2.run.comm.bytes, d1.run.comm.bytes);
}

// ---- native two-hop-view implementation ------------------------------

TEST(Dist2View, TwoHopClosureOnPath) {
  // Path 0-1-2-3-4 split as {0,1} | {2,3} | {4}.
  const Graph g = path(5);
  const Partition p(3, {0, 0, 1, 1, 2});
  const auto views = build_dist2_views(g, p);
  ASSERT_EQ(views.size(), 3u);
  // Rank 0 owns {0,1}; sees 2 (distance 1) and 3 (distance 2), not 4.
  const auto& v0 = views[0];
  EXPECT_EQ(v0.num_owned, 2);
  EXPECT_EQ(v0.num_local(), 4);
  EXPECT_TRUE(v0.global_to_local.contains(3));
  EXPECT_FALSE(v0.global_to_local.contains(4));
  // Vertex 0 is d2-interior? No: vertex 2 (other rank) is at distance 2.
  EXPECT_EQ(v0.d2_boundary.size(), 2u);
  // Rank 2 owns {4}: recipients of 4's color = rank 1 (owns 3 at d1, 2 at d2).
  const auto& v2 = views[2];
  ASSERT_EQ(v2.recipients[0].size(), 1u);
  EXPECT_EQ(v2.recipients[0][0], 1);
  // Each view's recipient_ranks is the sorted union of its recipients.
  for (const auto& view : views) {
    std::set<Rank> all;
    for (const auto& r : view.recipients) all.insert(r.begin(), r.end());
    EXPECT_EQ(view.recipient_ranks, std::vector<Rank>(all.begin(), all.end()))
        << "rank " << view.rank;
  }
}

TEST(Dist2Native, ProperAcrossRankCountsAndModes) {
  const Graph g = grid_2d(14, 14);
  for (Rank ranks : {1, 4, 9}) {
    Rank pr = 0, pc = 0;
    factor_processor_grid(ranks, pr, pc);
    const Partition p = grid_2d_partition(14, 14, pr, pc);
    for (SuperstepMode mode : {SuperstepMode::kAsync, SuperstepMode::kSync}) {
      DistColoringOptions opts = DistColoringOptions::improved();
      opts.superstep_mode = mode;
      opts.superstep_size = 16;
      const auto result = color_distance2_distributed_native(g, p, opts);
      std::string why;
      EXPECT_TRUE(is_proper_distance2_coloring(g, result.coloring, &why))
          << "ranks=" << ranks << ": " << why;
      EXPECT_EQ(result.conflicts_per_round.back(), 0);
    }
  }
}

TEST(Dist2Native, AgreesWithSquaredGraphFormulation) {
  const Graph g = circuit_like(800, 1700, 6, WeightKind::kUnit, 5);
  const Partition p = block_partition(g.num_vertices(), 6);
  const auto native = color_distance2_distributed_native(g, p);
  const auto squared = color_distributed(square_graph(g), p,
                                         DistColoringOptions::improved());
  std::string why;
  EXPECT_TRUE(is_proper_distance2_coloring(g, native.coloring, &why)) << why;
  EXPECT_TRUE(is_proper_distance2_coloring(g, squared.coloring, &why)) << why;
  // Same framework, same first-fit: color counts should be close.
  EXPECT_LE(std::abs(native.coloring.num_colors() -
                     squared.coloring.num_colors()),
            3);
}

TEST(Dist2Native, ConvergesOnAdversarialPartition) {
  // Cyclic partition maximizes two-hop cross traffic.
  const Graph g = erdos_renyi(300, 900, WeightKind::kUnit, 6);
  const Partition p = cyclic_partition(300, 7);
  const auto result = color_distance2_distributed_native(g, p);
  std::string why;
  EXPECT_TRUE(is_proper_distance2_coloring(g, result.coloring, &why)) << why;
  EXPECT_LT(result.rounds, 30);
}

TEST(Dist2Native, SingleRankMatchesSequentialColorCount) {
  const Graph g = grid_2d(12, 12);
  const Partition p = block_partition(g.num_vertices(), 1);
  const auto dist = color_distance2_distributed_native(g, p);
  const Coloring seq = greedy_distance2_coloring(g);
  EXPECT_EQ(dist.coloring.num_colors(), seq.num_colors());
  EXPECT_EQ(dist.run.comm.messages, 0);
}

TEST(Distance2, GridUsesAboutFiveColors) {
  // Interior five-point stencil: a vertex plus its 4 neighbors must all
  // differ, so at least 5 colors; greedy should stay close to that.
  const Graph g = grid_2d(16, 16);
  const Coloring c = greedy_distance2_coloring(g);
  EXPECT_GE(c.num_colors(), 5);
  EXPECT_LE(c.num_colors(), 9);
}

}  // namespace
}  // namespace pmc
