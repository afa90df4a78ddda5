#include "graph/builder.hpp"

#include <algorithm>
#include <cstddef>
#include <tuple>

#include "support/error.hpp"

namespace pmc {

GraphBuilder::GraphBuilder(VertexId num_vertices, bool weighted,
                           DuplicatePolicy policy)
    : num_vertices_(num_vertices), weighted_(weighted), policy_(policy) {
  PMC_REQUIRE(num_vertices >= 0, "negative vertex count " << num_vertices);
}

void GraphBuilder::add_edge(VertexId u, VertexId v, Weight w) {
  PMC_REQUIRE(u >= 0 && u < num_vertices_,
              "vertex " << u << " out of range [0, " << num_vertices_ << ")");
  PMC_REQUIRE(v >= 0 && v < num_vertices_,
              "vertex " << v << " out of range [0, " << num_vertices_ << ")");
  if (u == v) return;  // drop self-loops
  if (u > v) std::swap(u, v);
  edges_.push_back(RawEdge{u, v, w});
}

void GraphBuilder::reserve(EdgeId edges) {
  edges_.reserve(static_cast<std::size_t>(edges));
}

namespace {

/// Rows up to this long are sorted by insertion, in place.
constexpr std::size_t kInsertionSortMax = 16;

/// One arc of a long weighted row while sort_row sorts it.
struct RowSortKey {
  VertexId neighbor;
  std::size_t position;
  Weight weight;
};

/// Sorts the `len` arcs of one adjacency row by neighbour, stably, carrying
/// `weights` along (null for an unweighted row): equal neighbours keep their
/// order. Short rows sort in place by insertion; long weighted rows sort
/// (neighbour, position) keys in `scratch`, which build() reuses from row
/// to row so that no row allocates.
void sort_row(VertexId* adj, Weight* weights, std::size_t len,
              std::vector<RowSortKey>& scratch) {
  if (len <= kInsertionSortMax) {
    for (std::size_t i = 1; i < len; ++i) {
      const VertexId key = adj[i];
      const Weight w = weights != nullptr ? weights[i] : Weight{0};
      std::size_t j = i;
      for (; j > 0 && adj[j - 1] > key; --j) {
        adj[j] = adj[j - 1];
        if (weights != nullptr) weights[j] = weights[j - 1];
      }
      adj[j] = key;
      if (weights != nullptr) weights[j] = w;
    }
  } else if (weights == nullptr) {
    std::sort(adj, adj + len);  // equal neighbours are indistinguishable
  } else {
    scratch.resize(len);
    for (std::size_t i = 0; i < len; ++i) {
      scratch[i] = RowSortKey{adj[i], i, weights[i]};
    }
    std::sort(scratch.begin(), scratch.end(),
              [](const RowSortKey& a, const RowSortKey& b) {
                return std::tie(a.neighbor, a.position) <
                       std::tie(b.neighbor, b.position);
              });
    for (std::size_t i = 0; i < len; ++i) {
      adj[i] = scratch[i].neighbor;
      weights[i] = scratch[i].weight;
    }
  }
}

}  // namespace

Graph GraphBuilder::build() && {
  const auto n = static_cast<std::size_t>(num_vertices_);
  // Count both endpoints of every edge, duplicates included.
  std::vector<EdgeId> offsets(n + 1, 0);
  for (const RawEdge& e : edges_) {
    ++offsets[static_cast<std::size_t>(e.u) + 1];
    ++offsets[static_cast<std::size_t>(e.v) + 1];
  }
  for (std::size_t i = 1; i <= n; ++i) offsets[i] += offsets[i - 1];

  // Scatter both arcs of every edge into their rows in insertion order.
  std::vector<VertexId> adj(static_cast<std::size_t>(offsets[n]));
  std::vector<Weight> weights(weighted_ ? adj.size() : 0);
  {
    std::vector<EdgeId> cursor(offsets.begin(), offsets.end() - 1);
    for (const RawEdge& e : edges_) {
      const auto cu =
          static_cast<std::size_t>(cursor[static_cast<std::size_t>(e.u)]++);
      const auto cv =
          static_cast<std::size_t>(cursor[static_cast<std::size_t>(e.v)]++);
      adj[cu] = e.v;
      adj[cv] = e.u;
      if (weighted_) {
        weights[cu] = e.w;
        weights[cv] = e.w;
      }
    }
  }
  std::vector<RawEdge>().swap(edges_);

  // Sort each row, fold its duplicates by policy and compact it leftwards:
  // row v moves from [begin, offsets[v + 1]) to [offsets[v], out).
  std::vector<RowSortKey> scratch;
  Weight* const w = weighted_ ? weights.data() : nullptr;
  std::size_t out = 0;
  std::size_t begin = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const auto end = static_cast<std::size_t>(offsets[v + 1]);
    sort_row(adj.data() + begin, w != nullptr ? w + begin : nullptr,
             end - begin, scratch);
    const std::size_t row = out;
    for (std::size_t i = begin; i < end; ++i) {
      if (out > row && adj[out - 1] == adj[i]) {
        switch (policy_) {
          case DuplicatePolicy::kError:
            PMC_FAIL("duplicate edge ("
                     << std::min(static_cast<VertexId>(v), adj[i]) << ", "
                     << std::max(static_cast<VertexId>(v), adj[i]) << ")");
          case DuplicatePolicy::kKeepFirst:
            break;
          case DuplicatePolicy::kKeepMax:
            if (w != nullptr) w[out - 1] = std::max(w[out - 1], w[i]);
            break;
        }
        continue;
      }
      adj[out] = adj[i];
      if (w != nullptr) w[out] = w[i];
      ++out;
    }
    offsets[v] = static_cast<EdgeId>(row);
    begin = end;
  }
  offsets[n] = static_cast<EdgeId>(out);
  adj.resize(out);
  adj.shrink_to_fit();
  if (weighted_) {
    weights.resize(out);
    weights.shrink_to_fit();
  }
  return Graph(std::move(offsets), std::move(adj), std::move(weights));
}

Graph graph_from_edges(
    VertexId num_vertices,
    const std::vector<std::tuple<VertexId, VertexId, Weight>>& edges,
    DuplicatePolicy policy) {
  GraphBuilder builder(num_vertices, /*weighted=*/true, policy);
  for (const auto& [u, v, w] : edges) {
    builder.add_edge(u, v, w);
  }
  return std::move(builder).build();
}

Graph graph_from_edges(VertexId num_vertices,
                       const std::vector<std::pair<VertexId, VertexId>>& edges) {
  GraphBuilder builder(num_vertices, /*weighted=*/false);
  for (const auto& [u, v] : edges) {
    builder.add_edge(u, v);
  }
  return std::move(builder).build();
}

}  // namespace pmc
