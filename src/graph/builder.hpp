// Incremental edge-list builder producing a valid pmc::Graph.
//
// The builder accepts undirected edges in any order, ignores duplicates
// (keeping the first weight seen, or optionally the max), rejects or skips
// self-loops, and emits a sorted, symmetric CSR graph.
#pragma once

#include <vector>

#include "graph/csr_graph.hpp"
#include "support/types.hpp"

namespace pmc {

/// Policy for repeated insertions of the same undirected edge.
enum class DuplicatePolicy {
  kError,     ///< Throw on duplicates.
  kKeepFirst, ///< Keep the first weight inserted.
  kKeepMax,   ///< Keep the maximum weight (useful for symmetrized matrices).
};

/// Accumulates undirected edges and finalizes them into a Graph.
class GraphBuilder {
 public:
  /// `num_vertices` fixes the vertex id range [0, num_vertices).
  explicit GraphBuilder(VertexId num_vertices, bool weighted = true,
                        DuplicatePolicy policy = DuplicatePolicy::kKeepFirst);

  /// Adds undirected edge (u, v) with weight w. Self-loops are silently
  /// dropped (matching how the paper's matrix-to-graph conversions treat
  /// diagonal entries).
  void add_edge(VertexId u, VertexId v, Weight w = Weight{1});

  /// Makes room for `edges` add_edge calls. Pass a count that is already in
  /// memory (a matrix's entries, a graph's edges), never one read from a
  /// file header, which a malformed input could forge.
  void reserve(EdgeId edges);

  /// Sorts, deduplicates and freezes into a Graph. The builder is consumed.
  [[nodiscard]] Graph build() &&;

 private:
  struct RawEdge {
    VertexId u;
    VertexId v;
    Weight w;
  };

  VertexId num_vertices_;
  bool weighted_;
  DuplicatePolicy policy_;
  std::vector<RawEdge> edges_;
};

/// Convenience: builds a graph straight from an edge list.
[[nodiscard]] Graph graph_from_edges(
    VertexId num_vertices,
    const std::vector<std::tuple<VertexId, VertexId, Weight>>& edges,
    DuplicatePolicy policy = DuplicatePolicy::kKeepFirst);

/// Convenience: builds an unweighted graph from an unweighted edge list.
[[nodiscard]] Graph graph_from_edges(
    VertexId num_vertices,
    const std::vector<std::pair<VertexId, VertexId>>& edges);

}  // namespace pmc
