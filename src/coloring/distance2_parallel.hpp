// Native distributed distance-2 coloring.
//
// The paper's introduction motivates distance-2 coloring (sparse Jacobian /
// Hessian compression); Zoltan — where the paper's coloring code lives —
// ships a distributed distance-2 colorer built on the same speculative
// framework. This module reproduces that design *natively*: instead of
// materializing the square graph (see color_distance2_distributed), each
// rank builds a two-hop view of its share:
//
//   * adjacency is stored for owned vertices and their distance-1 ghosts
//     (every neighbor of a distance-1 ghost is within distance 2 of an
//     owned vertex, so all targets are in the view);
//   * a vertex's color update must reach every rank owning a vertex within
//     distance <= 2, so recipient lists span two hops;
//   * conflict detection walks N(v) and N(N(v)) and recolors the endpoint
//     with the smaller random priority, exactly like the distance-1
//     framework.
#pragma once

#include "coloring/parallel.hpp"
#include "graph/csr_graph.hpp"
#include "partition/partition.hpp"

namespace pmc {

/// One rank's two-hop view of a partitioned graph.
/// Local ids: [0, num_owned) owned, then distance-1 ghosts
/// [num_owned, num_adjacent), then distance-2 ghosts. Adjacency is stored
/// for local ids < num_adjacent.
struct Dist2RankView {
  Rank rank = 0;
  VertexId num_owned = 0;
  VertexId num_adjacent = 0;  ///< owned + distance-1 ghosts
  std::vector<VertexId> global_ids;
  std::unordered_map<VertexId, VertexId> global_to_local;
  std::vector<EdgeId> offsets;  ///< over [0, num_adjacent)
  std::vector<VertexId> adj;    ///< local ids (all within the view)
  /// Owned vertices with any non-owned vertex within distance <= 2.
  std::vector<VertexId> d2_boundary;
  /// For each owned vertex (indexed by local id), the sorted ranks owning a
  /// vertex within distance <= 2 (empty for distance-2-interior vertices).
  std::vector<std::vector<Rank>> recipients;
  /// The sorted union of recipients: every rank this rank ever sends to.
  std::vector<Rank> recipient_ranks;

  [[nodiscard]] VertexId num_local() const noexcept {
    return static_cast<VertexId>(global_ids.size());
  }
  [[nodiscard]] std::span<const VertexId> neighbors(VertexId local) const {
    const auto b = static_cast<std::size_t>(offsets[static_cast<std::size_t>(local)]);
    const auto e = static_cast<std::size_t>(offsets[static_cast<std::size_t>(local) + 1]);
    return {adj.data() + b, e - b};
  }
};

/// Builds all ranks' two-hop views.
[[nodiscard]] std::vector<Dist2RankView> build_dist2_views(const Graph& g,
                                                           const Partition& p);

/// Runs the speculative distance-2 coloring on the two-hop views.
/// Communication is always neighbor-customized (the paper's NEW mode).
[[nodiscard]] DistColoringResult color_distance2_distributed_native(
    const Graph& g, const Partition& p,
    const DistColoringOptions& options = DistColoringOptions::improved());

}  // namespace pmc
