// Unit tests for the CSR graph, the builder and basic graph algorithms.
#include <gtest/gtest.h>

#include "graph/algorithms.hpp"
#include "graph/builder.hpp"
#include "graph/csr_graph.hpp"
#include "graph/generators.hpp"
#include "support/error.hpp"

namespace pmc {
namespace {

Graph triangle() {
  // The paper's Fig 3.1 example: weights (u,v)=3, (u,w)=2, (v,w)=1
  // with u=0, v=1, w=2.
  return graph_from_edges(3, {{0, 1, 3.0}, {0, 2, 2.0}, {1, 2, 1.0}});
}

TEST(Graph, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.num_vertices(), 0);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_EQ(g.max_degree(), 0);
}

TEST(Graph, TriangleBasics) {
  const Graph g = triangle();
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_EQ(g.num_arcs(), 6);
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_TRUE(g.has_weights());
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(g.edge_weight(1, 0), 3.0);  // symmetric
  EXPECT_DOUBLE_EQ(g.edge_weight(1, 2), 1.0);
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(0, 0));
  EXPECT_FALSE(g.has_edge(0, 99));
  EXPECT_DOUBLE_EQ(g.total_weight(), 6.0);
  EXPECT_NO_THROW(g.validate());
}

TEST(Graph, NeighborsAreSorted) {
  const Graph g = graph_from_edges(5, {{4, 0, 1.0}, {2, 0, 1.0}, {0, 1, 1.0}});
  const auto nbrs = g.neighbors(0);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_EQ(nbrs[0], 1);
  EXPECT_EQ(nbrs[1], 2);
  EXPECT_EQ(nbrs[2], 4);
}

TEST(Graph, EdgeWeightThrowsForMissingEdge) {
  const Graph g = triangle();
  EXPECT_THROW((void)g.edge_weight(0, 0), Error);
}

TEST(Graph, SummaryMentionsSizes) {
  const std::string s = triangle().summary();
  EXPECT_NE(s.find("|V|=3"), std::string::npos);
  EXPECT_NE(s.find("|E|=3"), std::string::npos);
}

TEST(GraphBuilder, DropsSelfLoops) {
  GraphBuilder b(3);
  b.add_edge(1, 1, 5.0);
  b.add_edge(0, 1, 1.0);
  const Graph g = std::move(b).build();
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(GraphBuilder, KeepFirstPolicy) {
  GraphBuilder b(2, true, DuplicatePolicy::kKeepFirst);
  b.add_edge(0, 1, 7.0);
  b.add_edge(1, 0, 9.0);  // same undirected edge, reversed
  const Graph g = std::move(b).build();
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 1), 7.0);
}

TEST(GraphBuilder, KeepFirstPolicyKeepsTheFirstOfManyDuplicates) {
  // Only an insertion-order-stable build keeps the first of many
  // duplicates; with two, an unstable sort can keep it by luck.
  GraphBuilder b(3, true, DuplicatePolicy::kKeepFirst);
  b.add_edge(1, 2, 0.5);
  for (int w = 1; w <= 100; ++w) {
    if (w % 2 == 0) {
      b.add_edge(1, 0, static_cast<Weight>(w));
    } else {
      b.add_edge(0, 1, static_cast<Weight>(w));
    }
  }
  const Graph g = std::move(b).build();
  g.validate();
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.edge_weight(0, 1), 1.0);
  EXPECT_EQ(g.edge_weight(1, 0), 1.0);
  EXPECT_EQ(g.edge_weight(1, 2), 0.5);
}

TEST(GraphBuilder, SortsLongRowsAndKeepsFirstDuplicates) {
  // A hub row long enough to leave the insertion sort, filled in reverse
  // order with every edge inserted twice.
  GraphBuilder b(60, true, DuplicatePolicy::kKeepFirst);
  for (VertexId v = 59; v >= 1; --v) {
    b.add_edge(0, v, static_cast<Weight>(v));
    b.add_edge(v, 0, -1.0);
  }
  const Graph g = std::move(b).build();
  g.validate();
  ASSERT_EQ(g.degree(0), 59);
  const auto nbrs = g.neighbors(0);
  const auto ws = g.weights(0);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    EXPECT_EQ(nbrs[i], static_cast<VertexId>(i) + 1);
    EXPECT_EQ(ws[i], static_cast<Weight>(i) + 1);
  }
}

TEST(GraphBuilder, KeepMaxPolicy) {
  GraphBuilder b(2, true, DuplicatePolicy::kKeepMax);
  b.add_edge(0, 1, 7.0);
  b.add_edge(1, 0, 9.0);
  const Graph g = std::move(b).build();
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 1), 9.0);
}

TEST(GraphBuilder, ErrorPolicyThrowsOnDuplicate) {
  GraphBuilder b(2, true, DuplicatePolicy::kError);
  b.add_edge(0, 1, 1.0);
  b.add_edge(0, 1, 2.0);
  EXPECT_THROW((void)std::move(b).build(), Error);
}

TEST(GraphBuilder, RejectsOutOfRangeVertices) {
  GraphBuilder b(2);
  EXPECT_THROW(b.add_edge(0, 2), Error);
  EXPECT_THROW(b.add_edge(-1, 0), Error);
}

TEST(GraphBuilder, UnweightedGraphHasNoWeights) {
  const Graph g = graph_from_edges(
      3, std::vector<std::pair<VertexId, VertexId>>{{0, 1}, {1, 2}});
  EXPECT_FALSE(g.has_weights());
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 1), 1.0);  // implicit unit weight
}

TEST(GraphBuilder, LargeRandomGraphValidates) {
  const Graph g = erdos_renyi(500, 2000, WeightKind::kUniformRandom, 42);
  EXPECT_NO_THROW(g.validate());
  EXPECT_EQ(g.num_edges(), 2000);
}

// ---- algorithms -------------------------------------------------------------

TEST(Algorithms, BfsDistancesOnPath) {
  const Graph g = path(5);
  const auto dist = bfs_distances(g, 0);
  for (VertexId v = 0; v < 5; ++v) {
    EXPECT_EQ(dist[static_cast<std::size_t>(v)], v);
  }
}

TEST(Algorithms, BfsUnreachableIsMinusOne) {
  // Two disconnected edges: 0-1, 2-3.
  const Graph g = graph_from_edges(4, {{0, 1, 1.0}, {2, 3, 1.0}});
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[2], -1);
  EXPECT_EQ(dist[3], -1);
}

TEST(Algorithms, ConnectedComponentsCounts) {
  const Graph g = graph_from_edges(6, {{0, 1, 1.0}, {2, 3, 1.0}});
  VertexId num = 0;
  const auto comp = connected_components(g, num);
  EXPECT_EQ(num, 4);  // {0,1}, {2,3}, {4}, {5}
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_NE(comp[0], comp[2]);
}

TEST(Algorithms, RandomPermutationIsBijection) {
  const auto perm = random_permutation(100, 9);
  std::vector<bool> seen(100, false);
  for (VertexId v : perm) {
    EXPECT_FALSE(seen[static_cast<std::size_t>(v)]);
    seen[static_cast<std::size_t>(v)] = true;
  }
}

TEST(Algorithms, CliqueLowerBoundOnComplete) {
  const Graph g = complete(6);
  EXPECT_EQ(clique_lower_bound(g), 6);
}

TEST(Algorithms, CliqueLowerBoundOnBipartiteIsTwo) {
  BipartiteInfo info;
  const Graph g = random_bipartite(10, 10, 40, info);
  EXPECT_EQ(clique_lower_bound(g), 2);
}

TEST(Algorithms, RespectsBipartition) {
  BipartiteInfo info;
  const Graph g = random_bipartite(8, 5, 20, info);
  EXPECT_TRUE(respects_bipartition(g, info));
  const Graph t = graph_from_edges(3, {{0, 1, 1.0}, {1, 2, 1.0}, {0, 2, 1.0}});
  EXPECT_FALSE(respects_bipartition(t, BipartiteInfo{1, 2}));
}

}  // namespace
}  // namespace pmc
