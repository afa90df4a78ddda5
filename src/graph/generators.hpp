// Synthetic graph generators.
//
// These produce the inputs for the paper's experiments:
//   * grid_2d — five-point k1×k2 grid graphs (the weak/strong scaling inputs
//     of Figs 5.1 and 5.2); edges get uniform-random weights so the grid
//     structure "does not play a significant role", as in the paper.
//   * circuit_like — a G3_circuit-style graph: low bounded degree (2..6),
//     mostly-local connectivity, mildly irregular (the strong-scaling inputs
//     of Figs 5.3 and 5.4).
//   * random_bipartite / matrix-like generators — inputs for the Table 1.1
//     matching-quality study.
//   * erdos_renyi, rmat, random_geometric, and small structured graphs —
//     used by the test suite's property sweeps.
//
// Every generator is deterministic given its seed. An edge's weight is a
// hash of the seed and its endpoints, so it does not depend on the order in
// which a generator visits edges. The lattices (grid_2d, grid_3d) are
// written in place: each row's neighbours go straight into the final CSR
// arrays in ascending order, and the hashed weights make those arrays the
// bytes GraphBuilder would give for the same edges. The other generators
// feed GraphBuilder, since their edges arrive unordered and repeated.
#pragma once

#include <cstdint>

#include "graph/csr_graph.hpp"
#include "support/types.hpp"

namespace pmc {

/// Weight assignment for generated graphs.
enum class WeightKind {
  kUnit,          ///< All weights 1 (unweighted semantics).
  kUniformRandom, ///< i.i.d. uniform in (0, 1].
  kIntegral,      ///< Uniform integers in [1, 1000] (exercises weight ties).
};

/// Five-point 2-D grid graph: vertex (i, j) with 0<=i<rows, 0<=j<cols is
/// connected to its N/S/E/W neighbors. Vertex id = i * cols + j.
[[nodiscard]] Graph grid_2d(VertexId rows, VertexId cols,
                            WeightKind weights = WeightKind::kUnit,
                            std::uint64_t seed = 0);

/// Seven-point 3-D grid graph (extension beyond the paper's inputs).
[[nodiscard]] Graph grid_3d(VertexId nx, VertexId ny, VertexId nz,
                            WeightKind weights = WeightKind::kUnit,
                            std::uint64_t seed = 0);

/// Erdős–Rényi G(n, m): m distinct uniform random edges.
[[nodiscard]] Graph erdos_renyi(VertexId n, EdgeId m,
                                WeightKind weights = WeightKind::kUniformRandom,
                                std::uint64_t seed = 1);

/// R-MAT graph with the standard (a, b, c, d) recursive quadrant
/// probabilities; produces a skewed degree distribution. `scale` gives
/// n = 2^scale vertices; edge_factor gives m ≈ edge_factor * n edges
/// (after deduplication m may be smaller).
[[nodiscard]] Graph rmat(int scale, EdgeId edge_factor, double a = 0.57,
                         double b = 0.19, double c = 0.19,
                         WeightKind weights = WeightKind::kUniformRandom,
                         std::uint64_t seed = 2);

/// Random geometric graph: n points in the unit square, edge iff distance
/// <= radius. Uses grid bucketing, O(n + m).
[[nodiscard]] Graph random_geometric(VertexId n, double radius,
                                     WeightKind weights = WeightKind::kUniformRandom,
                                     std::uint64_t seed = 3);

/// Circuit-simulation-like graph in the spirit of G3_circuit: a long
/// backbone of chained nodes (min degree 2) with local shortcut links and a
/// sparse set of hub connections, degrees bounded by `max_degree` (paper: 6).
[[nodiscard]] Graph circuit_like(VertexId n, EdgeId target_edges,
                                 EdgeId max_degree = 6,
                                 WeightKind weights = WeightKind::kUniformRandom,
                                 std::uint64_t seed = 4);

/// Complete graph K_n (testing only; O(n^2) edges).
[[nodiscard]] Graph complete(VertexId n,
                             WeightKind weights = WeightKind::kUniformRandom,
                             std::uint64_t seed = 5);

/// Path graph 0-1-2-...-(n-1).
[[nodiscard]] Graph path(VertexId n,
                         WeightKind weights = WeightKind::kUnit,
                         std::uint64_t seed = 6);

/// Cycle graph on n >= 3 vertices.
[[nodiscard]] Graph cycle(VertexId n,
                          WeightKind weights = WeightKind::kUnit,
                          std::uint64_t seed = 7);

/// Star graph: center 0 connected to 1..n-1.
[[nodiscard]] Graph star(VertexId n,
                         WeightKind weights = WeightKind::kUniformRandom,
                         std::uint64_t seed = 8);

/// Random bipartite graph with `left` + `right` vertices and m distinct
/// edges; left side is [0, left), right side [left, left+right). Returns the
/// graph and fills `info`.
[[nodiscard]] Graph random_bipartite(VertexId left, VertexId right, EdgeId m,
                                     BipartiteInfo& info,
                                     WeightKind weights = WeightKind::kUniformRandom,
                                     std::uint64_t seed = 9);

/// Returns a copy of `g` with freshly drawn weights of the given kind.
[[nodiscard]] Graph reweight(const Graph& g, WeightKind weights,
                             std::uint64_t seed);

/// Bipartite double cover of `g` plus optional "diagonal" edges — the
/// bipartite representation of the symmetric matrix whose adjacency
/// structure is g (rows = vertices, columns = vertices, one nonzero per
/// adjacency entry and, when `with_diagonal`, per diagonal element). This
/// mirrors how the paper derives bipartite matching inputs from symmetric
/// UF-collection matrices. Vertex v's row copy is v; its column copy is
/// n + v. Diagonal weights are drawn uniformly from [0.5, 2).
[[nodiscard]] Graph bipartite_double_cover(const Graph& g, BipartiteInfo& info,
                                           bool with_diagonal,
                                           std::uint64_t seed);

}  // namespace pmc
