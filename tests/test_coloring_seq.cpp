// Tests for sequential greedy coloring: orderings, strategies, verification.
#include <gtest/gtest.h>

#include <tuple>

#include "coloring/coloring.hpp"
#include "coloring/sequential.hpp"
#include "graph/algorithms.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "support/error.hpp"

namespace pmc {
namespace {

TEST(ColoringVerify, DetectsImproperColorings) {
  const Graph g = path(3);
  std::string why;
  Coloring uncolored;
  uncolored.color = {0, kNoColor, 0};
  EXPECT_FALSE(is_proper_coloring(g, uncolored, &why));
  EXPECT_EQ(why, "vertex 1 is uncolored");

  Coloring conflict;
  conflict.color = {0, 0, 1};
  EXPECT_FALSE(is_proper_coloring(g, conflict, &why));
  EXPECT_EQ(why, "edge (0, 1) is monochromatic with color 0");
  EXPECT_EQ(count_conflicts(g, conflict), 1);

  Coloring short_coloring;
  short_coloring.color = {0, 1};
  EXPECT_FALSE(is_proper_coloring(g, short_coloring, &why));
  EXPECT_EQ(why, "coloring size does not equal vertex count");

  Coloring good;
  good.color = {0, 1, 0};
  EXPECT_TRUE(is_proper_coloring(g, good));
  EXPECT_EQ(good.num_colors(), 2);
}

TEST(VertexPriority, DeterministicAndSeedDependent) {
  EXPECT_EQ(vertex_priority(5, 1), vertex_priority(5, 1));
  EXPECT_NE(vertex_priority(5, 1), vertex_priority(5, 2));
  EXPECT_NE(vertex_priority(5, 1), vertex_priority(6, 1));
}

TEST(Greedy, PathUsesTwoColors) {
  const Coloring c = greedy_coloring(path(10));
  EXPECT_TRUE(is_proper_coloring(path(10), c));
  EXPECT_EQ(c.num_colors(), 2);
}

TEST(Greedy, CompleteGraphNeedsNColors) {
  const Graph g = complete(7);
  const Coloring c = greedy_coloring(g);
  EXPECT_TRUE(is_proper_coloring(g, c));
  EXPECT_EQ(c.num_colors(), 7);
}

TEST(Greedy, GridNaturalOrderIsTwoColorable) {
  // Row-major first-fit on a bipartite five-point grid yields the optimal
  // two colors (the paper notes grid graphs are 2-colorable).
  const Graph g = grid_2d(8, 9);
  const Coloring c = greedy_coloring(g);
  EXPECT_TRUE(is_proper_coloring(g, c));
  EXPECT_EQ(c.num_colors(), 2);
}

TEST(Greedy, RespectsDeltaPlusOneBound) {
  for (std::uint64_t seed : {0u, 1u, 2u}) {
    const Graph g = erdos_renyi(300, 1800, WeightKind::kUnit, seed);
    for (OrderingKind kind :
         {OrderingKind::kNatural, OrderingKind::kRandom,
          OrderingKind::kLargestFirst, OrderingKind::kSmallestLast,
          OrderingKind::kIncidenceDegree, OrderingKind::kSaturation}) {
      SeqColoringOptions opts;
      opts.ordering = kind;
      opts.seed = seed;
      const Coloring c = greedy_coloring(g, opts);
      std::string why;
      EXPECT_TRUE(is_proper_coloring(g, c, &why)) << why;
      EXPECT_LE(c.num_colors(), static_cast<Color>(g.max_degree()) + 1);
      EXPECT_GE(c.num_colors(), clique_lower_bound(g, 4, seed));
    }
  }
}

TEST(Orderings, StaticOrdersArePermutations) {
  const Graph g = erdos_renyi(100, 400, WeightKind::kUnit, 3);
  for (OrderingKind kind :
       {OrderingKind::kNatural, OrderingKind::kRandom,
        OrderingKind::kLargestFirst, OrderingKind::kSmallestLast}) {
    const auto order = vertex_ordering(g, kind, 1);
    std::vector<bool> seen(100, false);
    for (VertexId v : order) {
      ASSERT_FALSE(seen[static_cast<std::size_t>(v)]);
      seen[static_cast<std::size_t>(v)] = true;
    }
  }
}

TEST(Orderings, LargestFirstIsSortedByDegree) {
  const Graph g = star(10);
  const auto order = vertex_ordering(g, OrderingKind::kLargestFirst);
  EXPECT_EQ(order.front(), 0);  // the hub
}

TEST(Orderings, SmallestLastHasDegeneracyProperty) {
  // Defining invariant of smallest-last: in removal order (the reverse of
  // the returned order), each vertex has minimum degree in the subgraph
  // induced by the not-yet-removed vertices.
  const Graph g = erdos_renyi(80, 320, WeightKind::kUnit, 13);
  auto order = vertex_ordering(g, OrderingKind::kSmallestLast);
  std::reverse(order.begin(), order.end());  // removal order
  std::vector<bool> removed(80, false);
  for (VertexId v : order) {
    auto residual_degree = [&](VertexId x) {
      EdgeId d = 0;
      for (VertexId u : g.neighbors(x)) {
        if (!removed[static_cast<std::size_t>(u)]) ++d;
      }
      return d;
    };
    const EdgeId dv = residual_degree(v);
    for (VertexId u = 0; u < 80; ++u) {
      if (!removed[static_cast<std::size_t>(u)] && u != v) {
        EXPECT_LE(dv, residual_degree(u)) << "vertex " << v;
      }
    }
    removed[static_cast<std::size_t>(v)] = true;
  }
}

TEST(Orderings, DynamicKindsRejectPrecompute) {
  const Graph g = path(4);
  EXPECT_THROW((void)vertex_ordering(g, OrderingKind::kSaturation), Error);
  EXPECT_THROW((void)vertex_ordering(g, OrderingKind::kIncidenceDegree), Error);
}

TEST(Strategies, StaggeredFirstFitStillProper) {
  const Graph g = erdos_renyi(200, 1000, WeightKind::kUnit, 4);
  SeqColoringOptions opts;
  opts.strategy = ColorStrategy::kStaggeredFirstFit;
  opts.stagger_base = 3;
  const Coloring c = greedy_coloring(g, opts);
  EXPECT_TRUE(is_proper_coloring(g, c));
}

TEST(Strategies, LeastUsedBalancesColorClasses) {
  const Graph g = grid_2d(20, 20);
  SeqColoringOptions ff;
  SeqColoringOptions lu;
  lu.strategy = ColorStrategy::kLeastUsed;
  const Coloring cf = greedy_coloring(g, ff);
  const Coloring cl = greedy_coloring(g, lu);
  EXPECT_TRUE(is_proper_coloring(g, cl));
  // Least-used should spread vertices at least as evenly as first-fit.
  auto spread = [](const Coloring& c) {
    std::vector<int> counts(static_cast<std::size_t>(c.num_colors()), 0);
    for (Color x : c.color) ++counts[static_cast<std::size_t>(x)];
    const auto [mn, mx] = std::minmax_element(counts.begin(), counts.end());
    return *mx - *mn;
  };
  EXPECT_LE(spread(cl), spread(cf) + 1);
}

TEST(Strategies, DsaturAtMostFirstFitOnCrown) {
  // Crown graph (bipartite) where natural first-fit is forced to use many
  // colors but DSATUR stays at 2: vertices 2i and 2i+1 on opposite sides,
  // edge between 2i and 2j+1 unless i == j.
  const VertexId half = 6;
  GraphBuilder b(2 * half, false);
  for (VertexId i = 0; i < half; ++i) {
    for (VertexId j = 0; j < half; ++j) {
      if (i != j) b.add_edge(2 * i, 2 * j + 1);
    }
  }
  const Graph g = std::move(b).build();
  SeqColoringOptions natural;
  SeqColoringOptions dsatur;
  dsatur.ordering = OrderingKind::kSaturation;
  const Coloring cn = greedy_coloring(g, natural);
  const Coloring cd = greedy_coloring(g, dsatur);
  EXPECT_TRUE(is_proper_coloring(g, cd));
  EXPECT_EQ(cn.num_colors(), half);  // the classic greedy trap
  EXPECT_EQ(cd.num_colors(), 2);     // DSATUR escapes it
}

TEST(ColorChooser, FirstFitPicksSmallestFree) {
  ColorChooser chooser(ColorStrategy::kFirstFit);
  chooser.forbid(0);
  chooser.forbid(2);
  EXPECT_EQ(chooser.choose(nullptr), 1);
  // Next vertex: marks reset via versioning.
  EXPECT_EQ(chooser.choose(nullptr), 0);
}

TEST(ColorChooser, RejectsNegativeColor) {
  ColorChooser chooser(ColorStrategy::kFirstFit);
  EXPECT_THROW(chooser.forbid(-1), Error);
}

/// Sweep: every (ordering, strategy) pair yields a proper coloring.
class SeqColoringSweep
    : public ::testing::TestWithParam<std::tuple<OrderingKind, ColorStrategy>> {
};

TEST_P(SeqColoringSweep, AlwaysProper) {
  const auto [ordering, strategy] = GetParam();
  const Graph g = circuit_like(400, 900, 6, WeightKind::kUnit, 17);
  SeqColoringOptions opts;
  opts.ordering = ordering;
  opts.strategy = strategy;
  const Coloring c = greedy_coloring(g, opts);
  std::string why;
  EXPECT_TRUE(is_proper_coloring(g, c, &why)) << why;
  EXPECT_LE(c.num_colors(), static_cast<Color>(g.max_degree()) + 1);
}

INSTANTIATE_TEST_SUITE_P(
    OrderingsTimesStrategies, SeqColoringSweep,
    ::testing::Combine(
        ::testing::Values(OrderingKind::kNatural, OrderingKind::kRandom,
                          OrderingKind::kLargestFirst,
                          OrderingKind::kSmallestLast,
                          OrderingKind::kIncidenceDegree,
                          OrderingKind::kSaturation),
        ::testing::Values(ColorStrategy::kFirstFit,
                          ColorStrategy::kStaggeredFirstFit,
                          ColorStrategy::kLeastUsed)));

}  // namespace
}  // namespace pmc
