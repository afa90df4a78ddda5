#include "graph/csr_graph.hpp"

#include <algorithm>
#include <sstream>

#include "support/error.hpp"

namespace pmc {

Graph::Graph(std::vector<EdgeId> offsets, std::vector<VertexId> adj,
             std::vector<Weight> weights)
    : offsets_(std::move(offsets)),
      adj_(std::move(adj)),
      weights_(std::move(weights)) {
  PMC_REQUIRE(!offsets_.empty(), "offsets must contain at least one entry");
  PMC_REQUIRE(offsets_.front() == 0, "offsets must start at zero");
  PMC_REQUIRE(offsets_.back() == static_cast<EdgeId>(adj_.size()),
              "offsets end (" << offsets_.back() << ") must equal arc count ("
                              << adj_.size() << ")");
  PMC_REQUIRE(weights_.empty() || weights_.size() == adj_.size(),
              "weights length must be 0 or match adjacency length");
  PMC_REQUIRE(adj_.size() % 2 == 0,
              "undirected graph must store an even number of arcs");
}

Weight Graph::edge_weight(VertexId u, VertexId v) const {
  const auto nbrs = neighbors(u);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  PMC_REQUIRE(it != nbrs.end() && *it == v,
              "edge (" << u << ", " << v << ") does not exist");
  if (!has_weights()) return Weight{1};
  const auto idx = static_cast<std::size_t>(
      offset_begin(u) + (it - nbrs.begin()));
  return weights_[idx];
}

bool Graph::has_edge(VertexId u, VertexId v) const {
  if (u < 0 || u >= num_vertices() || v < 0 || v >= num_vertices()) {
    return false;
  }
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

EdgeId Graph::max_degree() const noexcept {
  EdgeId best = 0;
  for (VertexId v = 0; v < num_vertices(); ++v) {
    best = std::max(best, degree(v));
  }
  return best;
}

EdgeId Graph::min_degree() const noexcept {
  if (num_vertices() == 0) return 0;
  EdgeId best = degree(0);
  for (VertexId v = 1; v < num_vertices(); ++v) {
    best = std::min(best, degree(v));
  }
  return best;
}

Weight Graph::total_weight() const noexcept {
  Weight sum = 0;
  for (VertexId v = 0; v < num_vertices(); ++v) {
    const auto nbrs = neighbors(v);
    const auto w = weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] > v) {  // count each undirected edge once
        sum += has_weights() ? w[i] : Weight{1};
      }
    }
  }
  return sum;
}

void Graph::validate() const {
  const VertexId n = num_vertices();
  for (VertexId v = 0; v < n; ++v) {
    PMC_CHECK(offset_begin(v) <= offset_end(v),
              "offsets must be non-decreasing at vertex " << v);
    const auto nbrs = neighbors(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId u = nbrs[i];
      PMC_CHECK(u >= 0 && u < n,
                "neighbor " << u << " of " << v << " out of range");
      PMC_CHECK(u != v, "self-loop at vertex " << v);
      if (i > 0) {
        PMC_CHECK(nbrs[i - 1] < u,
                  "adjacency of " << v << " not strictly sorted");
      }
      // Symmetry: (v, u) present implies (u, v) present with equal weight.
      const auto back = neighbors(u);
      const auto it = std::lower_bound(back.begin(), back.end(), v);
      PMC_CHECK(it != back.end() && *it == v,
                "edge (" << v << ", " << u << ") lacks its reverse arc");
      if (has_weights()) {
        const auto widx_fwd =
            static_cast<std::size_t>(offset_begin(v)) + i;
        const auto widx_rev = static_cast<std::size_t>(
            offset_begin(u) + (it - back.begin()));
        PMC_CHECK(weights_[widx_fwd] == weights_[widx_rev],
                  "asymmetric weight on edge (" << v << ", " << u << ")");
      }
    }
  }
}

std::string Graph::summary() const {
  std::ostringstream oss;
  oss << "|V|=" << num_vertices() << " |E|=" << num_edges()
      << " maxdeg=" << max_degree()
      << (has_weights() ? " weighted" : " unweighted");
  return oss.str();
}

}  // namespace pmc
