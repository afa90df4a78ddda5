#include "matching/sequential.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <tuple>
#include <vector>

#include "support/error.hpp"

namespace pmc {

Matching greedy_matching(const Graph& g) {
  struct E {
    Weight w;
    VertexId u;
    VertexId v;
  };
  std::vector<E> edges;
  edges.reserve(static_cast<std::size_t>(g.num_edges()));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    const auto ws = g.weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] > v) {
        edges.push_back(E{g.has_weights() ? ws[i] : Weight{1}, v, nbrs[i]});
      }
    }
  }
  std::sort(edges.begin(), edges.end(), [](const E& a, const E& b) {
    if (a.w != b.w) return a.w > b.w;
    return std::tie(a.u, a.v) < std::tie(b.u, b.v);
  });
  Matching m;
  m.mate.assign(static_cast<std::size_t>(g.num_vertices()), kNoVertex);
  for (const E& e : edges) {
    if (m.mate[static_cast<std::size_t>(e.u)] == kNoVertex &&
        m.mate[static_cast<std::size_t>(e.v)] == kNoVertex) {
      m.mate[static_cast<std::size_t>(e.u)] = e.v;
      m.mate[static_cast<std::size_t>(e.v)] = e.u;
    }
  }
  return m;
}

Matching locally_dominant_matching(const Graph& g) {
  const VertexId n = g.num_vertices();
  Matching m;
  m.mate.assign(static_cast<std::size_t>(n), kNoVertex);
  if (n == 0) return m;
  PMC_REQUIRE(g.max_degree() <= std::numeric_limits<std::uint32_t>::max(),
              "locally_dominant_matching: a degree exceeds 2^32 - 1");

  // Per-vertex arc order as row-relative positions: by weight descending,
  // ties by position, which is the paper's smallest-label rule because rows
  // are sorted by neighbour. An unweighted graph keeps every row as it is.
  std::vector<std::uint32_t> order(static_cast<std::size_t>(g.num_arcs()));
  for (VertexId v = 0; v < n; ++v) {
    const auto first = order.begin() + g.offset_begin(v);
    const auto last = order.begin() + g.offset_end(v);
    std::iota(first, last, std::uint32_t{0});
    if (!g.has_weights()) continue;
    const auto ws = g.weights(v);
    std::sort(first, last, [ws](std::uint32_t x, std::uint32_t y) {
      if (ws[x] != ws[y]) return ws[x] > ws[y];
      return x < y;
    });
  }

  std::vector<std::uint32_t> ptr(static_cast<std::size_t>(n), 0);
  std::vector<VertexId> cand(static_cast<std::size_t>(n), kNoVertex);

  auto alive = [&m](VertexId u) {
    return m.mate[static_cast<std::size_t>(u)] == kNoVertex;
  };
  // Advances v's pointer past dead candidates and returns the new candidate
  // (kNoVertex when exhausted).
  auto recompute = [&](VertexId v) {
    const auto nbrs = g.neighbors(v);
    const std::uint32_t* row = order.data() + g.offset_begin(v);
    const auto deg = static_cast<std::uint32_t>(nbrs.size());
    std::uint32_t p = ptr[static_cast<std::size_t>(v)];
    while (p < deg && !alive(nbrs[row[p]])) ++p;
    ptr[static_cast<std::size_t>(v)] = p;
    const VertexId c = p < deg ? nbrs[row[p]] : kNoVertex;
    cand[static_cast<std::size_t>(v)] = c;
    return c;
  };

  // Matched vertices whose neighbours still have to drop them, drained
  // after each match the scan below makes, so the stack holds one cascade
  // at a time. The order is free: with a total order on edges every
  // reciprocal-candidate edge is matched whatever order they are found in
  // (DESIGN.md §3b).
  std::vector<VertexId> matched;
  auto match = [&](VertexId a, VertexId b) {
    m.mate[static_cast<std::size_t>(a)] = b;
    m.mate[static_cast<std::size_t>(b)] = a;
    matched.push_back(a);
    matched.push_back(b);
  };
  auto drain = [&] {
    while (!matched.empty()) {
      const VertexId x = matched.back();
      matched.pop_back();
      for (VertexId u : g.neighbors(x)) {
        if (!alive(u) || cand[static_cast<std::size_t>(u)] != x) continue;
        const VertexId c = recompute(u);
        if (c != kNoVertex && cand[static_cast<std::size_t>(c)] == u) {
          match(u, c);
        }
      }
    }
  };

  for (VertexId v = 0; v < n; ++v) {
    recompute(v);  // initial candidate: heaviest neighbor
  }
  for (VertexId v = 0; v < n; ++v) {
    const VertexId c = cand[static_cast<std::size_t>(v)];
    if (c != kNoVertex && alive(v) && alive(c) &&
        cand[static_cast<std::size_t>(c)] == v && c > v) {
      match(v, c);  // locally dominant edge (reciprocal candidates)
      drain();
    }
  }
  return m;
}

}  // namespace pmc
