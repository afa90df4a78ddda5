#include "graph/algorithms.hpp"

#include "graph/builder.hpp"

#include <algorithm>
#include <deque>
#include <numeric>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace pmc {

std::vector<VertexId> connected_components(const Graph& g,
                                           VertexId& num_components) {
  const VertexId n = g.num_vertices();
  std::vector<VertexId> comp(static_cast<std::size_t>(n), kNoVertex);
  num_components = 0;
  std::deque<VertexId> frontier;
  for (VertexId root = 0; root < n; ++root) {
    if (comp[static_cast<std::size_t>(root)] != kNoVertex) continue;
    const VertexId id = num_components++;
    comp[static_cast<std::size_t>(root)] = id;
    frontier.push_back(root);
    while (!frontier.empty()) {
      const VertexId v = frontier.front();
      frontier.pop_front();
      for (VertexId u : g.neighbors(v)) {
        if (comp[static_cast<std::size_t>(u)] == kNoVertex) {
          comp[static_cast<std::size_t>(u)] = id;
          frontier.push_back(u);
        }
      }
    }
  }
  return comp;
}

std::vector<VertexId> bfs_distances(const Graph& g, VertexId source) {
  PMC_REQUIRE(source >= 0 && source < g.num_vertices(),
              "BFS source " << source << " out of range");
  std::vector<VertexId> dist(static_cast<std::size_t>(g.num_vertices()), -1);
  dist[static_cast<std::size_t>(source)] = 0;
  std::deque<VertexId> frontier{source};
  while (!frontier.empty()) {
    const VertexId v = frontier.front();
    frontier.pop_front();
    for (VertexId u : g.neighbors(v)) {
      if (dist[static_cast<std::size_t>(u)] == -1) {
        dist[static_cast<std::size_t>(u)] = dist[static_cast<std::size_t>(v)] + 1;
        frontier.push_back(u);
      }
    }
  }
  return dist;
}

std::vector<VertexId> random_permutation(VertexId n, std::uint64_t seed) {
  std::vector<VertexId> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), VertexId{0});
  Rng rng(derive_seed(seed, 0x9E12));
  for (VertexId i = n - 1; i > 0; --i) {
    const VertexId j = rng.uniform_int(0, i);
    std::swap(perm[static_cast<std::size_t>(i)],
              perm[static_cast<std::size_t>(j)]);
  }
  return perm;
}

bool respects_bipartition(const Graph& g, const BipartiteInfo& info) {
  if (info.num_left + info.num_right != g.num_vertices()) return false;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (VertexId u : g.neighbors(v)) {
      if (info.is_left(u) == info.is_left(v)) return false;
    }
  }
  return true;
}

Graph square_graph(const Graph& g) {
  GraphBuilder builder(g.num_vertices(), /*weighted=*/false,
                       DuplicatePolicy::kKeepFirst);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (VertexId u : g.neighbors(v)) {
      if (u > v) builder.add_edge(v, u);
      for (VertexId w : g.neighbors(u)) {
        if (w > v) builder.add_edge(v, w);
      }
    }
  }
  return std::move(builder).build();
}

VertexId clique_lower_bound(const Graph& g, int attempts, std::uint64_t seed) {
  if (g.num_vertices() == 0) return 0;
  Rng rng(derive_seed(seed, 0xC11E));
  VertexId best = 1;
  for (int a = 0; a < attempts; ++a) {
    VertexId v = rng.uniform_int(0, g.num_vertices() - 1);
    std::vector<VertexId> clique{v};
    // Greedily extend: candidates must be adjacent to all clique members.
    std::vector<VertexId> candidates(g.neighbors(v).begin(),
                                     g.neighbors(v).end());
    while (!candidates.empty()) {
      // Pick the candidate with the most connections into the candidate set.
      VertexId pick = candidates.front();
      std::size_t best_links = 0;
      for (VertexId c : candidates) {
        std::size_t links = 0;
        for (VertexId d : candidates) {
          if (c != d && g.has_edge(c, d)) ++links;
        }
        if (links > best_links) {
          best_links = links;
          pick = c;
        }
      }
      clique.push_back(pick);
      std::vector<VertexId> next;
      for (VertexId c : candidates) {
        if (c != pick && g.has_edge(c, pick)) next.push_back(c);
      }
      candidates = std::move(next);
    }
    best = std::max(best, static_cast<VertexId>(clique.size()));
  }
  return best;
}

}  // namespace pmc
