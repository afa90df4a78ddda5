// Tests for the square graph.
#include <gtest/gtest.h>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"

namespace pmc {
namespace {

TEST(SquareGraph, PathSquared) {
  // Path 0-1-2-3: square adds (0,2), (1,3).
  const Graph sq = square_graph(path(4));
  sq.validate();
  EXPECT_EQ(sq.num_edges(), 5);
  EXPECT_TRUE(sq.has_edge(0, 2));
  EXPECT_TRUE(sq.has_edge(1, 3));
  EXPECT_FALSE(sq.has_edge(0, 3));
}

TEST(SquareGraph, StarBecomesComplete) {
  const Graph sq = square_graph(star(6));
  EXPECT_EQ(sq.num_edges(), 15);  // K_6
}

TEST(SquareGraph, ContainsOriginalEdges) {
  const Graph g = erdos_renyi(100, 250, WeightKind::kUnit, 2);
  const Graph sq = square_graph(g);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (VertexId u : g.neighbors(v)) {
      EXPECT_TRUE(sq.has_edge(v, u));
    }
  }
  // And exactly the distance-<=2 pairs.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto dist = bfs_distances(g, v);
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      if (u == v) continue;
      const bool close = dist[static_cast<std::size_t>(u)] >= 1 &&
                         dist[static_cast<std::size_t>(u)] <= 2;
      EXPECT_EQ(sq.has_edge(v, u), close)
          << "pair (" << v << ", " << u << ")";
    }
  }
}

}  // namespace
}  // namespace pmc
