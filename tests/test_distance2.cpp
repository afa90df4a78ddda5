// Tests for the distance-2 coloring extension.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "coloring/distance2.hpp"
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
  EXPECT_EQ(why, "vertices 0 and 2 share color through common neighbor 1");
  // A distance-1 conflict is reported by the distance-1 check first.
  c.color = {0, 1, 1};
  EXPECT_FALSE(is_proper_distance2_coloring(g, c, &why));
  EXPECT_EQ(why, "edge (1, 2) is monochromatic with color 1");
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

// ---- native implementation: the speculative driver at halo 2 -----------

TEST(Dist2View, TwoHopClosureOnPath) {
  // Path 0-1-2-3-4 split as {0,1} | {2,3} | {4}.
  const Graph g = path(5);
  const Partition p(3, {0, 0, 1, 1, 2});
  const DistGraph dist = DistGraph::build(g, p, 2);
  dist.validate(g, p);
  ASSERT_EQ(dist.num_ranks(), 3);
  // Rank 0 owns {0,1}; sees 2 (distance 1, with its row) and 3 (distance
  // 2), not 4.
  const LocalGraph& l0 = dist.local(0);
  EXPECT_EQ(l0.halo(), 2);
  EXPECT_EQ(l0.num_owned(), 2);
  EXPECT_EQ(l0.num_rows(), 3);
  EXPECT_EQ(l0.num_local(), 4);
  EXPECT_NE(l0.local_id(3), kNoVertex);
  EXPECT_EQ(l0.local_id(4), kNoVertex);
  const VertexId ghost2 = l0.local_id(2);
  ASSERT_LT(ghost2, l0.num_rows());
  std::vector<VertexId> row;
  for (const VertexId u : l0.neighbors(ghost2)) row.push_back(l0.global_id(u));
  EXPECT_EQ(row, (std::vector<VertexId>{1, 3}));
  // Vertex 0 is distance-2 boundary too: vertex 2 (rank 1) is two hops out.
  EXPECT_TRUE(l0.is_boundary(l0.local_id(0)));
  EXPECT_TRUE(l0.is_boundary(l0.local_id(1)));
  // Rank 2 owns {4}: its color must reach rank 1 (owns 3 at distance 1 and
  // 2 at distance 2).
  const LocalGraph& l2 = dist.local(2);
  EXPECT_EQ(std::vector<Rank>(l2.boundary_ranks(0).begin(),
                              l2.boundary_ranks(0).end()),
            (std::vector<Rank>{1}));
  // Each rank's neighbor_ranks is the sorted union of its boundary ranks.
  for (Rank r = 0; r < dist.num_ranks(); ++r) {
    const LocalGraph& lg = dist.local(r);
    std::set<Rank> all;
    for (VertexId v = 0; v < lg.num_owned(); ++v) {
      all.insert(lg.boundary_ranks(v).begin(), lg.boundary_ranks(v).end());
    }
    EXPECT_EQ(lg.neighbor_ranks(), std::vector<Rank>(all.begin(), all.end()))
        << "rank " << r;
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
    // The shared driver on a halo-2 distribution, under the options the
    // native wrapper pins: every comm mode and both non-natural orders.
    const DistGraph dist = DistGraph::build(g, p, 2);
    for (CommMode comm : {CommMode::kBroadcastUnion, CommMode::kCustomizedAll,
                          CommMode::kCustomizedNeighbors}) {
      for (LocalOrder order :
           {LocalOrder::kInteriorFirst, LocalOrder::kBoundaryFirst}) {
        DistColoringOptions opts;
        opts.comm_mode = comm;
        opts.local_order = order;
        opts.superstep_size = 16;
        const auto result = color_distributed(dist, opts);
        std::string why;
        EXPECT_TRUE(is_proper_distance2_coloring(g, result.coloring, &why))
            << "ranks=" << ranks << " comm=" << static_cast<int>(comm)
            << " order=" << static_cast<int>(order) << ": " << why;
      }
    }
  }
}

TEST(Dist2Native, LeastUsedStrategy) {
  // The usage table exists at both distances: kLeastUsed colors properly
  // and identically at any thread count.
  struct Case {
    const char* name;
    Graph g;
    Partition p;
  };
  const Graph circuit = circuit_like(600, 1300, 6, WeightKind::kUnit, 7);
  const Case cases[] = {
      {"grid", grid_2d(16, 16), grid_2d_partition(16, 16, 2, 2)},
      {"circuit", circuit,
       multilevel_partition(circuit, 6, MultilevelConfig::metis_like(3))},
  };
  for (const Case& c : cases) {
    DistColoringOptions opts;
    opts.strategy = ColorStrategy::kLeastUsed;
    opts.superstep_size = 32;
    std::vector<Color> first;
    for (const int threads : {1, 3}) {
      opts.exec.threads = threads;
      const auto result = color_distance2_distributed_native(c.g, c.p, opts);
      std::string why;
      EXPECT_TRUE(is_proper_distance2_coloring(c.g, result.coloring, &why))
          << c.name << " threads=" << threads << ": " << why;
      if (threads == 1) {
        first = result.coloring.color;
      } else {
        EXPECT_EQ(result.coloring.color, first) << c.name;
      }
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
