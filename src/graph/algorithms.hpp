// Basic graph algorithms shared by the colorings, the examples and the test
// suite.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr_graph.hpp"
#include "support/types.hpp"

namespace pmc {

/// Connected components; returns component id per vertex (0-based, dense)
/// and sets `num_components`.
[[nodiscard]] std::vector<VertexId> connected_components(
    const Graph& g, VertexId& num_components);

/// BFS distances from `source` (-1 for unreachable vertices).
[[nodiscard]] std::vector<VertexId> bfs_distances(const Graph& g,
                                                  VertexId source);

/// Returns a uniformly random permutation of [0, n).
[[nodiscard]] std::vector<VertexId> random_permutation(VertexId n,
                                                       std::uint64_t seed);

/// True iff the graph is bipartite with the side assignment of `info`
/// (every edge crosses sides).
[[nodiscard]] bool respects_bipartition(const Graph& g,
                                        const BipartiteInfo& info);

/// Greedy clique lower bound for the chromatic number: grows a clique from
/// each of `attempts` seed vertices and returns the best size found.
[[nodiscard]] VertexId clique_lower_bound(const Graph& g, int attempts = 16,
                                          std::uint64_t seed = 0);

/// Square graph G²: an edge between every pair of distinct vertices at
/// distance 1 or 2 in g (unweighted). A distance-1 coloring of G² is a
/// distance-2 coloring of g. Size grows with sum of squared degrees — fine
/// for the bounded-degree graphs pmc targets.
[[nodiscard]] Graph square_graph(const Graph& g);

}  // namespace pmc
