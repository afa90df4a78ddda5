#include "matching/matching.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <vector>

#include "support/error.hpp"

namespace pmc {

namespace {

/// Writes the streamed `parts` to `*why` (when asked for) and returns false.
/// Only failure paths call it, so a success builds no stream.
template <class... Parts>
bool reject(std::string* why, const Parts&... parts) {
  if (why != nullptr) {
    std::ostringstream oss;
    (oss << ... << parts);
    *why = oss.str();
  }
  return false;
}

}  // namespace

VertexId Matching::cardinality() const noexcept {
  VertexId pairs = 0;
  for (std::size_t v = 0; v < mate.size(); ++v) {
    if (mate[v] != kNoVertex && mate[v] > static_cast<VertexId>(v)) ++pairs;
  }
  return pairs;
}

bool is_valid_matching(const Graph& g, const Matching& m, std::string* why) {
  if (m.num_vertices() != g.num_vertices()) {
    return reject(why, "matching size does not equal vertex count");
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const VertexId u = m.mate[static_cast<std::size_t>(v)];
    if (u == kNoVertex) continue;
    if (u < 0 || u >= g.num_vertices()) {
      return reject(why, "mate(", v, ") = ", u, " out of range");
    }
    if (u == v) return reject(why, "vertex ", v, " matched to itself");
    const VertexId back = m.mate[static_cast<std::size_t>(u)];
    if (back != v) {
      return reject(why, "asymmetric mates: mate(", v, ")=", u, " but mate(",
                    u, ")=", back);
    }
    if (!g.has_edge(v, u)) {
      return reject(why, "matched pair (", v, ", ", u, ") is not an edge");
    }
  }
  return true;
}

Weight matching_weight(const Graph& g, const Matching& m) {
  PMC_REQUIRE(m.num_vertices() == g.num_vertices(),
              "matching/graph size mismatch");
  Weight total = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const VertexId u = m.mate[static_cast<std::size_t>(v)];
    if (u != kNoVertex && u > v) {
      total += g.edge_weight(v, u);
    }
  }
  return total;
}

bool is_maximal_matching(const Graph& g, const Matching& m, std::string* why) {
  if (m.num_vertices() != g.num_vertices()) {
    return reject(why, "matching size does not equal vertex count");
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (m.is_matched(v)) continue;
    for (VertexId u : g.neighbors(v)) {
      if (!m.is_matched(u)) {
        return reject(why, "edge (", v, ", ", u,
                      ") could be added: both endpoints are unmatched");
      }
    }
  }
  return true;
}

bool has_dominance_certificate(const Graph& g, const Matching& m,
                               std::string* why) {
  const VertexId n = g.num_vertices();
  if (m.num_vertices() != n) {
    return reject(why, "matching size does not equal vertex count");
  }
  // Weight of each vertex's matched edge, looked up once. NaN marks an
  // unmatched vertex: it compares false with every weight, so it dominates
  // nothing.
  std::vector<Weight> matched_weight(static_cast<std::size_t>(n),
                                     std::numeric_limits<Weight>::quiet_NaN());
  for (VertexId v = 0; v < n; ++v) {
    const VertexId u = m.mate[static_cast<std::size_t>(v)];
    if (u == kNoVertex) continue;
    if (u < 0 || u >= n) {
      return reject(why, "mate(", v, ") = ", u, " out of range");
    }
    const auto nbrs = g.neighbors(v);
    const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), u);
    if (it == nbrs.end() || *it != u) {
      return reject(why, "matched pair (", v, ", ", u, ") is not an edge");
    }
    const auto i = static_cast<std::size_t>(it - nbrs.begin());
    matched_weight[static_cast<std::size_t>(v)] =
        g.has_weights() ? g.weights(v)[i] : Weight{1};
  }
  for (VertexId v = 0; v < n; ++v) {
    const auto nbrs = g.neighbors(v);
    const auto ws = g.weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId u = nbrs[i];
      if (u < v) continue;  // each edge once
      if (m.mate[static_cast<std::size_t>(v)] == u) continue;  // in M
      const Weight w = g.has_weights() ? ws[i] : Weight{1};
      // Edge (v, u) not in M: one endpoint must carry a matched edge of
      // weight >= w.
      if (matched_weight[static_cast<std::size_t>(v)] >= w ||
          matched_weight[static_cast<std::size_t>(u)] >= w) {
        continue;
      }
      return reject(why, "edge (", v, ", ", u, ") with weight ", w,
                    " is not dominated by any adjacent matched edge");
    }
  }
  return true;
}

}  // namespace pmc
