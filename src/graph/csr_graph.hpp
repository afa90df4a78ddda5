// Compressed-sparse-row representation of an undirected, optionally
// edge-weighted graph.
//
// This is the input type of every algorithm in pmc. Both directions of each
// undirected edge are stored (u in adj(v) iff v in adj(u), with equal
// weights), adjacency lists are sorted by neighbor id, and self-loops and
// parallel edges are disallowed — the class invariants are established by
// GraphBuilder and re-checkable via validate(). A Graph never changes once
// built, with one exception: service mode's DynamicGraph (a friend) folds
// its committed rows into its own Graph's arrays in place, when the graph
// is read or the unfolded rows hold as many arcs as the Graph.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "support/types.hpp"

namespace pmc {

/// Immutable undirected graph in CSR form (except to DynamicGraph's fold).
class Graph {
 public:
  /// Empty graph.
  Graph() = default;

  /// Constructs from raw CSR arrays. `weights` may be empty (unweighted) or
  /// have the same length as `adj`. Validates structural invariants.
  Graph(std::vector<EdgeId> offsets, std::vector<VertexId> adj,
        std::vector<Weight> weights);

  /// Number of vertices.
  [[nodiscard]] VertexId num_vertices() const noexcept {
    return offsets_.empty() ? 0
                            : static_cast<VertexId>(offsets_.size()) - 1;
  }

  /// Number of undirected edges (half the stored directed arcs).
  [[nodiscard]] EdgeId num_edges() const noexcept {
    return static_cast<EdgeId>(adj_.size()) / 2;
  }

  /// Number of stored directed arcs (2 * num_edges()).
  [[nodiscard]] EdgeId num_arcs() const noexcept {
    return static_cast<EdgeId>(adj_.size());
  }

  [[nodiscard]] bool has_weights() const noexcept { return !weights_.empty(); }

  [[nodiscard]] EdgeId degree(VertexId v) const {
    return offsets_[static_cast<std::size_t>(v) + 1] -
           offsets_[static_cast<std::size_t>(v)];
  }

  /// Neighbors of v, sorted ascending.
  [[nodiscard]] std::span<const VertexId> neighbors(VertexId v) const {
    const auto begin = static_cast<std::size_t>(offsets_[static_cast<std::size_t>(v)]);
    const auto end = static_cast<std::size_t>(offsets_[static_cast<std::size_t>(v) + 1]);
    return {adj_.data() + begin, end - begin};
  }

  /// Weights aligned with neighbors(v). Only valid when has_weights().
  [[nodiscard]] std::span<const Weight> weights(VertexId v) const {
    const auto begin = static_cast<std::size_t>(offsets_[static_cast<std::size_t>(v)]);
    const auto end = static_cast<std::size_t>(offsets_[static_cast<std::size_t>(v) + 1]);
    return {weights_.data() + begin, end - begin};
  }

  /// Arc index range [offset_begin(v), offset_end(v)) into adjacency arrays.
  [[nodiscard]] EdgeId offset_begin(VertexId v) const {
    return offsets_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] EdgeId offset_end(VertexId v) const {
    return offsets_[static_cast<std::size_t>(v) + 1];
  }

  /// Neighbor stored at arc index e.
  [[nodiscard]] VertexId arc_target(EdgeId e) const {
    return adj_[static_cast<std::size_t>(e)];
  }

  /// Weight stored at arc index e (1.0 when unweighted).
  [[nodiscard]] Weight arc_weight(EdgeId e) const {
    return weights_.empty() ? Weight{1}
                            : weights_[static_cast<std::size_t>(e)];
  }

  /// Neighbors stored at arc indices [begin, end) — consecutive rows
  /// [u, v) are [offset_begin(u), offset_begin(v)), with v <= num_vertices().
  [[nodiscard]] std::span<const VertexId> arc_targets(EdgeId begin,
                                                      EdgeId end) const {
    return std::span<const VertexId>(adj_).subspan(
        static_cast<std::size_t>(begin), static_cast<std::size_t>(end - begin));
  }

  /// Weights aligned with arc_targets(begin, end). Only valid when
  /// has_weights().
  [[nodiscard]] std::span<const Weight> arc_weights(EdgeId begin,
                                                    EdgeId end) const {
    return std::span<const Weight>(weights_).subspan(
        static_cast<std::size_t>(begin), static_cast<std::size_t>(end - begin));
  }

  /// Weight of edge (u, v); throws if the edge does not exist.
  [[nodiscard]] Weight edge_weight(VertexId u, VertexId v) const;

  /// True iff edge (u, v) exists (binary search; O(log degree)).
  [[nodiscard]] bool has_edge(VertexId u, VertexId v) const;

  /// Maximum degree over all vertices (0 on an empty graph).
  [[nodiscard]] EdgeId max_degree() const noexcept;

  /// Minimum degree over all vertices (0 on an empty graph).
  [[nodiscard]] EdgeId min_degree() const noexcept;

  /// Sum of all edge weights (each undirected edge counted once).
  [[nodiscard]] Weight total_weight() const noexcept;

  /// Re-checks all class invariants (symmetry, sortedness, no loops or
  /// multi-edges, matching weights). Throws pmc::Error on violation.
  void validate() const;

  /// Human-readable one-line summary ("|V|=..., |E|=..., ...").
  [[nodiscard]] std::string summary() const;

 private:
  friend class DynamicGraph;  // DynamicGraph's fold splices in place

  std::vector<EdgeId> offsets_;
  std::vector<VertexId> adj_;
  std::vector<Weight> weights_;
};

/// Metadata attached to a bipartite graph built from a sparse matrix:
/// vertices [0, num_left) are rows, [num_left, num_left+num_right) columns.
struct BipartiteInfo {
  VertexId num_left = 0;
  VertexId num_right = 0;

  [[nodiscard]] bool is_left(VertexId v) const noexcept { return v < num_left; }
};

}  // namespace pmc
