// Vertex partitions of a graph across logical processors.
//
// The paper assumes "the input graph is assumed to be partitioned and
// distributed among the available processors in some reasonable way", and
// classifies vertices into interior (all neighbors on the same processor)
// and boundary (at least one neighbor elsewhere). This module provides the
// partition representation, the interior/boundary classification, and the
// quality metrics the paper quotes (edge cut %, boundary fraction, balance).
#pragma once

#include <vector>

#include "graph/csr_graph.hpp"
#include "support/types.hpp"

namespace pmc {

/// Assignment of every vertex to one of `num_parts` logical processors.
class Partition {
 public:
  Partition() = default;

  /// Takes ownership of the per-vertex owner array; every entry must lie in
  /// [0, num_parts).
  Partition(Rank num_parts, std::vector<Rank> owner);

  [[nodiscard]] Rank num_parts() const noexcept { return num_parts_; }

  [[nodiscard]] VertexId num_vertices() const noexcept {
    return static_cast<VertexId>(owner_.size());
  }

  [[nodiscard]] Rank owner(VertexId v) const {
    return owner_[static_cast<std::size_t>(v)];
  }

  [[nodiscard]] const std::vector<Rank>& owners() const noexcept {
    return owner_;
  }

  /// Vertices owned by `part` (computed on demand; O(n)).
  [[nodiscard]] std::vector<VertexId> vertices_of(Rank part) const;

  /// Per-part vertex counts.
  [[nodiscard]] std::vector<VertexId> part_sizes() const;

 private:
  Rank num_parts_ = 0;
  std::vector<Rank> owner_;
};

/// Quality metrics of a partition with respect to a graph.
struct PartitionMetrics {
  Rank num_parts = 0;
  EdgeId edge_cut = 0;          ///< Number of cross edges.
  double cut_fraction = 0.0;    ///< edge_cut / |E|.
  VertexId boundary_vertices = 0;
  double boundary_fraction = 0.0;
  double imbalance = 1.0;       ///< max part size / average part size.
};

/// Computes the metrics above in one pass over the arcs.
[[nodiscard]] PartitionMetrics compute_metrics(const Graph& g,
                                               const Partition& p);

/// Per-vertex boundary flags (true iff some neighbor lives on another part).
[[nodiscard]] std::vector<bool> boundary_flags(const Graph& g,
                                               const Partition& p);

}  // namespace pmc
