#include "partition/multilevel.hpp"

#include <algorithm>
#include <deque>
#include <numeric>
#include <utility>
#include <vector>

#include "graph/builder.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace pmc {

namespace {

/// Internal weighted graph used on the coarse levels: vertex weights count
/// collapsed fine vertices, edge weights count collapsed fine edges.
struct Level {
  std::vector<EdgeId> offsets;
  std::vector<VertexId> adj;
  std::vector<double> edge_w;
  std::vector<VertexId> vertex_w;
  /// Map from this level's fine vertices to the next (coarser) level's ids.
  std::vector<VertexId> coarse_map;

  [[nodiscard]] VertexId n() const noexcept {
    return static_cast<VertexId>(vertex_w.size());
  }
};

Level level_from_graph(const Graph& g) {
  Level lvl;
  lvl.offsets.resize(static_cast<std::size_t>(g.num_vertices()) + 1);
  lvl.adj.resize(static_cast<std::size_t>(g.num_arcs()));
  lvl.edge_w.resize(static_cast<std::size_t>(g.num_arcs()));
  lvl.vertex_w.assign(static_cast<std::size_t>(g.num_vertices()), 1);
  lvl.offsets[0] = 0;
  std::size_t cursor = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (VertexId u : g.neighbors(v)) {
      lvl.adj[cursor] = u;
      lvl.edge_w[cursor] = 1.0;  // partitioning uses structural weight
      ++cursor;
    }
    lvl.offsets[static_cast<std::size_t>(v) + 1] = static_cast<EdgeId>(cursor);
  }
  return lvl;
}

/// Heavy-edge matching: each unmatched vertex matches its heaviest-edge
/// unmatched neighbor. Returns the fine-to-coarse map and the coarse count.
VertexId heavy_edge_matching(const Level& lvl, Rng& rng,
                             std::vector<VertexId>& coarse_map) {
  const VertexId n = lvl.n();
  coarse_map.assign(static_cast<std::size_t>(n), kNoVertex);
  std::vector<VertexId> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), VertexId{0});
  // Random visit order avoids systematic bias across levels.
  for (VertexId i = n - 1; i > 0; --i) {
    const VertexId j = rng.uniform_int(0, i);
    std::swap(order[static_cast<std::size_t>(i)],
              order[static_cast<std::size_t>(j)]);
  }
  VertexId next_coarse = 0;
  for (VertexId v : order) {
    if (coarse_map[static_cast<std::size_t>(v)] != kNoVertex) continue;
    VertexId best = kNoVertex;
    double best_w = -1.0;
    for (EdgeId e = lvl.offsets[static_cast<std::size_t>(v)];
         e < lvl.offsets[static_cast<std::size_t>(v) + 1]; ++e) {
      const VertexId u = lvl.adj[static_cast<std::size_t>(e)];
      if (coarse_map[static_cast<std::size_t>(u)] != kNoVertex) continue;
      const double w = lvl.edge_w[static_cast<std::size_t>(e)];
      if (w > best_w) {
        best_w = w;
        best = u;
      }
    }
    const VertexId c = next_coarse++;
    coarse_map[static_cast<std::size_t>(v)] = c;
    if (best != kNoVertex) {
      coarse_map[static_cast<std::size_t>(best)] = c;
    }
  }
  return next_coarse;
}

/// Contracts lvl according to coarse_map into a new Level, in linear
/// passes. A counting pass groups the fine arcs by the coarse id of their
/// tail, each head already mapped to its coarse id. Each coarse row then
/// folds its group in place: it drops self arcs, sums the weights of arcs to
/// the same coarse neighbour through `slot`, sorts by neighbour and moves
/// left. The weights are sums of whole numbers, so the order of summation
/// does not matter.
Level contract(const Level& lvl, const std::vector<VertexId>& coarse_map,
               VertexId coarse_n) {
  const auto n = static_cast<std::size_t>(lvl.n());
  const auto cn = static_cast<std::size_t>(coarse_n);
  Level out;
  out.vertex_w.assign(cn, 0);
  out.offsets.assign(cn + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    const auto c = static_cast<std::size_t>(coarse_map[v]);
    out.offsets[c + 1] += lvl.offsets[v + 1] - lvl.offsets[v];
    out.vertex_w[c] += lvl.vertex_w[v];
  }
  for (std::size_t c = 1; c <= cn; ++c) out.offsets[c] += out.offsets[c - 1];
  out.adj.resize(lvl.adj.size());
  out.edge_w.resize(lvl.adj.size());
  {
    std::vector<EdgeId> cursor(out.offsets.begin(), out.offsets.end() - 1);
    for (std::size_t v = 0; v < n; ++v) {
      auto at = static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(coarse_map[v])]);
      for (auto e = static_cast<std::size_t>(lvl.offsets[v]);
           e < static_cast<std::size_t>(lvl.offsets[v + 1]); ++e, ++at) {
        out.adj[at] = coarse_map[static_cast<std::size_t>(lvl.adj[e])];
        out.edge_w[at] = lvl.edge_w[e];
      }
      cursor[static_cast<std::size_t>(coarse_map[v])] =
          static_cast<EdgeId>(at);
    }
  }

  // slot[c] is one past where neighbour c sits in the output: in the row
  // being folded iff it is past that row's start.
  std::vector<std::size_t> slot(cn, 0);
  std::vector<RowSortKey> scratch;
  std::size_t end = 0;
  std::size_t begin = 0;
  for (std::size_t c = 0; c < cn; ++c) {
    const auto group_end = static_cast<std::size_t>(out.offsets[c + 1]);
    const std::size_t row = end;
    for (std::size_t i = begin; i < group_end; ++i) {
      const auto cu = static_cast<std::size_t>(out.adj[i]);
      if (cu == c) continue;
      if (slot[cu] > row) {
        out.edge_w[slot[cu] - 1] += out.edge_w[i];
      } else {
        out.adj[end] = out.adj[i];
        out.edge_w[end] = out.edge_w[i];
        slot[cu] = ++end;
      }
    }
    sort_row(out.adj.data() + row, out.edge_w.data() + row, end - row,
             scratch);
    out.offsets[c] = static_cast<EdgeId>(row);
    begin = group_end;
  }
  out.offsets[cn] = static_cast<EdgeId>(end);
  out.adj.resize(end);
  out.adj.shrink_to_fit();
  out.edge_w.resize(end);
  out.edge_w.shrink_to_fit();
  return out;
}

/// BFS-band initial partition on the coarsest level: order all vertices by
/// a breadth-first sweep (restarting at an unvisited vertex per component)
/// and slice the order into `parts` chunks of roughly equal vertex weight.
/// Consecutive BFS bands are contiguous in the graph, so the slice
/// boundaries cut only the band frontiers — a strong starting point that FM
/// refinement then polishes (the classic "BFS band" / graph-growing
/// bisection generalized to k-way).
std::vector<Rank> initial_partition(const Level& lvl, Rank parts, Rng& rng) {
  const VertexId n = lvl.n();
  std::vector<Rank> part(static_cast<std::size_t>(n), kNoRank);
  double total_w = 0.0;
  for (VertexId w : lvl.vertex_w) total_w += static_cast<double>(w);
  const double target = total_w / static_cast<double>(parts);

  // Global BFS order with component restarts; random start decorrelates
  // repeated invocations.
  std::vector<VertexId> order;
  order.reserve(static_cast<std::size_t>(n));
  std::vector<bool> visited(static_cast<std::size_t>(n), false);
  std::deque<VertexId> frontier;
  VertexId scan = 0;
  const VertexId start = n > 0 ? rng.uniform_int(0, n - 1) : 0;
  auto visit = [&](VertexId v) {
    if (!visited[static_cast<std::size_t>(v)]) {
      visited[static_cast<std::size_t>(v)] = true;
      frontier.push_back(v);
    }
  };
  visit(start);
  while (static_cast<VertexId>(order.size()) < n) {
    if (frontier.empty()) {
      while (visited[static_cast<std::size_t>(scan)]) ++scan;
      visit(scan);
    }
    const VertexId v = frontier.front();
    frontier.pop_front();
    order.push_back(v);
    for (EdgeId e = lvl.offsets[static_cast<std::size_t>(v)];
         e < lvl.offsets[static_cast<std::size_t>(v) + 1]; ++e) {
      visit(lvl.adj[static_cast<std::size_t>(e)]);
    }
  }

  // Slice the order into weight-balanced chunks.
  Rank current = 0;
  double load = 0.0;
  for (const VertexId v : order) {
    if (load >= target && current + 1 < parts) {
      ++current;
      load = 0.0;
    }
    part[static_cast<std::size_t>(v)] = current;
    load += static_cast<double>(lvl.vertex_w[static_cast<std::size_t>(v)]);
  }
  return part;
}

/// One pass of greedy boundary refinement: move boundary vertices to the
/// neighboring part with the best positive gain, subject to balance.
/// Returns the number of moves applied.
std::size_t refine_pass(const Level& lvl, Rank parts, std::vector<Rank>& part,
                        std::vector<double>& load, double max_load) {
  std::size_t moves = 0;
  // Scratch: connectivity of v to each candidate part.
  std::vector<double> conn(static_cast<std::size_t>(parts), 0.0);
  std::vector<Rank> touched;
  for (VertexId v = 0; v < lvl.n(); ++v) {
    const Rank pv = part[static_cast<std::size_t>(v)];
    bool boundary = false;
    touched.clear();
    for (EdgeId e = lvl.offsets[static_cast<std::size_t>(v)];
         e < lvl.offsets[static_cast<std::size_t>(v) + 1]; ++e) {
      const Rank pu = part[static_cast<std::size_t>(
          lvl.adj[static_cast<std::size_t>(e)])];
      if (conn[static_cast<std::size_t>(pu)] == 0.0) touched.push_back(pu);
      conn[static_cast<std::size_t>(pu)] += lvl.edge_w[static_cast<std::size_t>(e)];
      if (pu != pv) boundary = true;
    }
    if (boundary) {
      const double internal = conn[static_cast<std::size_t>(pv)];
      Rank best = kNoRank;
      double best_gain = 0.0;
      const double vw =
          static_cast<double>(lvl.vertex_w[static_cast<std::size_t>(v)]);
      for (Rank cand : touched) {
        if (cand == pv) continue;
        if (load[static_cast<std::size_t>(cand)] + vw > max_load) continue;
        const double gain = conn[static_cast<std::size_t>(cand)] - internal;
        if (gain > best_gain) {
          best_gain = gain;
          best = cand;
        }
      }
      if (best != kNoRank) {
        part[static_cast<std::size_t>(v)] = best;
        load[static_cast<std::size_t>(pv)] -= vw;
        load[static_cast<std::size_t>(best)] += vw;
        ++moves;
      }
    }
    for (Rank t : touched) conn[static_cast<std::size_t>(t)] = 0.0;
  }
  return moves;
}

}  // namespace

MultilevelConfig MultilevelConfig::metis_like(std::uint64_t seed) {
  MultilevelConfig c;
  c.coarsen_to_per_part = 24;
  c.refine_passes = 4;
  c.max_imbalance = 1.10;
  c.perturb_fraction = 0.0;
  c.seed = seed;
  return c;
}

MultilevelConfig MultilevelConfig::parmetis_like(std::uint64_t seed) {
  MultilevelConfig c;
  c.coarsen_to_per_part = 4;
  c.refine_passes = 0;
  c.max_imbalance = 1.25;
  // Tuned so the circuit-graph benchmarks land near the paper's ParMETIS
  // operating point (~40% edge cut at 4,096 parts).
  c.perturb_fraction = 0.10;
  c.seed = seed;
  return c;
}

Partition multilevel_partition(const Graph& g, Rank parts,
                               const MultilevelConfig& config) {
  PMC_REQUIRE(parts >= 1, "need at least one part");
  PMC_REQUIRE(static_cast<VertexId>(parts) <= std::max<VertexId>(1, g.num_vertices()),
              "more parts (" << parts << ") than vertices ("
                             << g.num_vertices() << ")");
  if (parts == 1) {
    return Partition(1, std::vector<Rank>(
        static_cast<std::size_t>(g.num_vertices()), 0));
  }

  Rng rng(derive_seed(config.seed, 0x3417));

  // ---- Phase 1: coarsen ----
  std::vector<Level> levels;
  levels.push_back(level_from_graph(g));
  const VertexId stop_n =
      std::max<VertexId>(static_cast<VertexId>(parts),
                         static_cast<VertexId>(parts) * config.coarsen_to_per_part);
  while (levels.back().n() > stop_n) {
    Level& cur = levels.back();
    std::vector<VertexId> coarse_map;
    const VertexId coarse_n = heavy_edge_matching(cur, rng, coarse_map);
    // Bail out if matching stops shrinking the graph (e.g. star graphs).
    if (static_cast<double>(coarse_n) > 0.95 * static_cast<double>(cur.n())) {
      break;
    }
    cur.coarse_map = std::move(coarse_map);
    levels.push_back(contract(cur, cur.coarse_map, coarse_n));
  }

  // ---- Phase 2: initial partition on the coarsest level ----
  std::vector<Rank> part = initial_partition(levels.back(), parts, rng);

  // ---- Phase 3: uncoarsen + refine ----
  double total_w = 0.0;
  for (VertexId w : levels.back().vertex_w) total_w += static_cast<double>(w);
  for (std::size_t li = levels.size(); li-- > 0;) {
    Level& lvl = levels[li];
    std::vector<double> load(static_cast<std::size_t>(parts), 0.0);
    for (VertexId v = 0; v < lvl.n(); ++v) {
      load[static_cast<std::size_t>(part[static_cast<std::size_t>(v)])] +=
          static_cast<double>(lvl.vertex_w[static_cast<std::size_t>(v)]);
    }
    const double max_load =
        config.max_imbalance * total_w / static_cast<double>(parts);
    for (int pass = 0; pass < config.refine_passes; ++pass) {
      if (refine_pass(lvl, parts, part, load, max_load) == 0) break;
    }
    if (li > 0) {
      // Project to the next finer level.
      const Level& finer = levels[li - 1];
      std::vector<Rank> fine_part(static_cast<std::size_t>(finer.n()));
      for (VertexId v = 0; v < finer.n(); ++v) {
        fine_part[static_cast<std::size_t>(v)] = part[static_cast<std::size_t>(
            finer.coarse_map[static_cast<std::size_t>(v)])];
      }
      part = std::move(fine_part);
    }
  }

  // Guarantee no empty parts: the BFS bands (and the perturbation below)
  // can starve a part on graphs much smaller than parts * coarsen_to.
  auto fill_empty_parts = [&part, parts]() {
    std::vector<VertexId> counts(static_cast<std::size_t>(parts), 0);
    for (Rank r : part) ++counts[static_cast<std::size_t>(r)];
    for (Rank empty = 0; empty < parts; ++empty) {
      if (counts[static_cast<std::size_t>(empty)] > 0) continue;
      // Steal one vertex from the currently largest part.
      const Rank donor = static_cast<Rank>(
          std::max_element(counts.begin(), counts.end()) - counts.begin());
      for (std::size_t v = 0; v < part.size(); ++v) {
        if (part[v] == donor) {
          part[v] = empty;
          --counts[static_cast<std::size_t>(donor)];
          ++counts[static_cast<std::size_t>(empty)];
          break;
        }
      }
    }
  };
  fill_empty_parts();

  // Optional quality degradation (ParMETIS-like preset).
  if (config.perturb_fraction > 0.0) {
    const auto n = static_cast<VertexId>(part.size());
    for (VertexId v = 0; v < n; ++v) {
      bool boundary = false;
      for (VertexId u : g.neighbors(v)) {
        if (part[static_cast<std::size_t>(u)] != part[static_cast<std::size_t>(v)]) {
          boundary = true;
          break;
        }
      }
      if (boundary && rng.bernoulli(config.perturb_fraction)) {
        part[static_cast<std::size_t>(v)] =
            static_cast<Rank>(rng.uniform_int(0, parts - 1));
      }
    }
    fill_empty_parts();
  }

  return Partition(parts, std::move(part));
}

}  // namespace pmc
