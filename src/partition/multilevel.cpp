#include "partition/multilevel.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace pmc {

namespace {

/// Level ids, offsets and weights are 32-bit: multilevel_partition takes
/// only graphs whose vertex and arc counts fit in 31 bits, and a coarse
/// weight counts the fine vertices or fine arcs it stands for.
using LevelId = std::uint32_t;
constexpr LevelId kUnmatched = std::numeric_limits<LevelId>::max();
constexpr VertexId kMaxInputSize = std::numeric_limits<std::int32_t>::max();

/// One arc of a level: its head and the count of fine arcs it stands for.
struct Arc {
  LevelId to;
  LevelId weight;
};

/// Internal weighted graph used on the coarse levels: vertex weights count
/// collapsed fine vertices, arc weights count collapsed fine arcs (every
/// arc of level 0 has structural weight 1).
struct Level {
  std::vector<LevelId> offsets;
  std::vector<Arc> arcs;
  std::vector<LevelId> vertex_w;
  /// Map from this level's fine vertices to the next (coarser) level's ids.
  std::vector<LevelId> coarse_map;

  [[nodiscard]] LevelId n() const noexcept {
    return static_cast<LevelId>(vertex_w.size());
  }
  [[nodiscard]] std::span<const Arc> row(LevelId v) const {
    return {arcs.data() + offsets[v], arcs.data() + offsets[v + 1]};
  }
};

Level level_from_graph(const Graph& g) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  Level lvl;
  lvl.offsets.resize(n + 1);
  for (std::size_t v = 0; v <= n; ++v) {
    lvl.offsets[v] = static_cast<LevelId>(
        v < n ? g.offset_begin(static_cast<VertexId>(v)) : g.num_arcs());
  }
  const auto targets = g.arc_targets(0, g.num_arcs());
  lvl.arcs.resize(targets.size());
  // Partitioning uses structural weight.
  std::ranges::transform(targets, lvl.arcs.begin(), [](VertexId u) {
    return Arc{static_cast<LevelId>(u), 1};
  });
  lvl.vertex_w.assign(n, 1);
  return lvl;
}

/// Heavy-edge matching: each unmatched vertex matches its heaviest-edge
/// unmatched neighbor. Returns the fine-to-coarse map and the coarse count.
LevelId heavy_edge_matching(const Level& lvl, Rng& rng,
                            std::vector<LevelId>& coarse_map) {
  const LevelId n = lvl.n();
  coarse_map.assign(n, kUnmatched);
  std::vector<LevelId> order(n);
  std::iota(order.begin(), order.end(), LevelId{0});
  // Random visit order avoids systematic bias across levels.
  for (auto i = static_cast<std::int64_t>(n) - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(rng.uniform_int(0, i));
    std::swap(order[static_cast<std::size_t>(i)], order[j]);
  }
  LevelId next_coarse = 0;
  for (const LevelId v : order) {
    if (coarse_map[v] != kUnmatched) continue;
    LevelId best = kUnmatched;
    LevelId best_w = 0;  // every arc weight is at least 1
    for (const Arc& a : lvl.row(v)) {
      if (coarse_map[a.to] == kUnmatched && a.weight > best_w) {
        best_w = a.weight;
        best = a.to;
      }
    }
    const LevelId c = next_coarse++;
    coarse_map[v] = c;
    if (best != kUnmatched) coarse_map[best] = c;
  }
  return next_coarse;
}

/// Contracts lvl along its coarse_map into a new Level, in linear passes.
/// A counting pass groups the fine arcs by the coarse id of their tail,
/// each head already mapped to its coarse id. Each coarse row then folds
/// its group in place: it drops self arcs, sums the weights of arcs to the
/// same coarse neighbour through `slot`, sorts by neighbour and moves left.
/// The folded neighbours are unique, so the sort needs no tie-break. The
/// weights are sums of whole numbers, so the order of summation does not
/// matter.
Level contract(const Level& lvl, LevelId coarse_n) {
  const std::vector<LevelId>& coarse_map = lvl.coarse_map;
  Level out;
  out.vertex_w.assign(coarse_n, 0);
  out.offsets.assign(static_cast<std::size_t>(coarse_n) + 1, 0);
  for (LevelId v = 0; v < lvl.n(); ++v) {
    out.offsets[coarse_map[v] + std::size_t{1}] +=
        lvl.offsets[v + 1] - lvl.offsets[v];
    out.vertex_w[coarse_map[v]] += lvl.vertex_w[v];
  }
  for (LevelId c = 1; c <= coarse_n; ++c) out.offsets[c] += out.offsets[c - 1];
  out.arcs.resize(lvl.arcs.size());
  {
    std::vector<LevelId> cursor(out.offsets.begin(), out.offsets.end() - 1);
    for (LevelId v = 0; v < lvl.n(); ++v) {
      LevelId& at = cursor[coarse_map[v]];
      for (const Arc& a : lvl.row(v)) {
        out.arcs[at++] = Arc{coarse_map[a.to], a.weight};
      }
    }
  }

  // slot[c] is one past where neighbour c sits in the output: in the row
  // being folded iff it is past that row's start.
  std::vector<LevelId> slot(coarse_n, 0);
  LevelId end = 0;
  LevelId begin = 0;
  for (LevelId c = 0; c < coarse_n; ++c) {
    const LevelId group_end = out.offsets[c + 1];
    const LevelId row = end;
    for (LevelId i = begin; i < group_end; ++i) {
      const Arc a = out.arcs[i];
      if (a.to == c) continue;
      if (slot[a.to] > row) {
        out.arcs[slot[a.to] - 1].weight += a.weight;
      } else {
        out.arcs[end] = a;
        slot[a.to] = ++end;
      }
    }
    std::sort(out.arcs.begin() + row, out.arcs.begin() + end,
              [](const Arc& x, const Arc& y) { return x.to < y.to; });
    out.offsets[c] = row;
    begin = group_end;
  }
  out.offsets[coarse_n] = end;
  out.arcs.resize(end);
  out.arcs.shrink_to_fit();
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
  const LevelId n = lvl.n();
  std::vector<Rank> part(n, kNoRank);
  double total_w = 0.0;
  for (LevelId w : lvl.vertex_w) total_w += static_cast<double>(w);
  const double target = total_w / static_cast<double>(parts);

  // Global BFS order with component restarts; random start decorrelates
  // repeated invocations.
  std::vector<LevelId> order;
  order.reserve(n);
  std::vector<bool> visited(n, false);
  std::deque<LevelId> frontier;
  LevelId scan = 0;
  const auto start = static_cast<LevelId>(
      n > 0 ? rng.uniform_int(0, static_cast<std::int64_t>(n) - 1) : 0);
  auto visit = [&](LevelId v) {
    if (!visited[v]) {
      visited[v] = true;
      frontier.push_back(v);
    }
  };
  visit(start);
  while (order.size() < n) {
    if (frontier.empty()) {
      while (visited[scan]) ++scan;
      visit(scan);
    }
    const LevelId v = frontier.front();
    frontier.pop_front();
    order.push_back(v);
    for (const Arc& a : lvl.row(v)) visit(a.to);
  }

  // Slice the order into weight-balanced chunks.
  Rank current = 0;
  double load = 0.0;
  for (const LevelId v : order) {
    if (load >= target && current + 1 < parts) {
      ++current;
      load = 0.0;
    }
    part[v] = current;
    load += static_cast<double>(lvl.vertex_w[v]);
  }
  return part;
}

/// What refinement knows about a vertex of the level it refines. Only an
/// open vertex can move, so a pass evaluates only those.
enum class Standing : std::uint8_t {
  kOpen,      ///< not known to be unable to move
  kInterior,  ///< every neighbour is in the vertex's part
  kSettled,   ///< no neighbouring part offers a positive gain
};

/// One pass of greedy boundary refinement: visit the open vertices in
/// ascending order and move each to the neighbouring part with the best
/// positive gain, subject to balance. A vertex found interior or settled
/// is marked so, and a move reopens the mover's neighbours. Loads only rule
/// candidates out, so an interior or settled vertex cannot move before it
/// or a neighbour does: skipping it changes no move of the pass.
/// Returns the number of moves applied.
std::size_t refine_pass(const Level& lvl, Rank parts, std::vector<Rank>& part,
                        std::vector<double>& load, double max_load,
                        std::vector<Standing>& standing) {
  std::size_t moves = 0;
  // Scratch: connectivity of v to each candidate part.
  std::vector<std::int64_t> conn(static_cast<std::size_t>(parts), 0);
  std::vector<Rank> touched;
  for (LevelId v = 0; v < lvl.n(); ++v) {
    if (standing[v] != Standing::kOpen) continue;
    const Rank pv = part[v];
    const std::span<const Arc> row = lvl.row(v);
    bool boundary = false;
    touched.clear();
    for (const Arc& a : row) {
      const Rank pu = part[a.to];
      if (conn[static_cast<std::size_t>(pu)] == 0) touched.push_back(pu);
      conn[static_cast<std::size_t>(pu)] += a.weight;
      if (pu != pv) boundary = true;
    }
    if (boundary) {
      const std::int64_t internal = conn[static_cast<std::size_t>(pv)];
      Rank best = kNoRank;
      std::int64_t best_gain = 0;
      bool improvable = false;
      const auto vw = static_cast<double>(lvl.vertex_w[v]);
      for (const Rank cand : touched) {
        const std::int64_t gain =
            conn[static_cast<std::size_t>(cand)] - internal;
        if (gain <= 0) continue;  // cand == pv has gain 0
        improvable = true;
        if (load[static_cast<std::size_t>(cand)] + vw > max_load) continue;
        if (gain > best_gain) {
          best_gain = gain;
          best = cand;
        }
      }
      if (!improvable) standing[v] = Standing::kSettled;
      if (best != kNoRank) {
        part[v] = best;
        load[static_cast<std::size_t>(pv)] -= vw;
        load[static_cast<std::size_t>(best)] += vw;
        ++moves;
        for (const Arc& a : row) standing[a.to] = Standing::kOpen;
      }
    } else {
      standing[v] = Standing::kInterior;
    }
    for (const Rank t : touched) conn[static_cast<std::size_t>(t)] = 0;
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
  PMC_REQUIRE(g.num_vertices() <= kMaxInputSize &&
                  g.num_arcs() <= kMaxInputSize,
              "graph too large to partition: " << g.num_vertices()
                                               << " vertices and "
                                               << g.num_arcs()
                                               << " arcs (at most 2^31 - 1)");
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
  while (static_cast<VertexId>(levels.back().n()) > stop_n) {
    Level& cur = levels.back();
    std::vector<LevelId> coarse_map;
    const LevelId coarse_n = heavy_edge_matching(cur, rng, coarse_map);
    // Bail out if matching stops shrinking the graph (e.g. star graphs).
    if (static_cast<double>(coarse_n) > 0.95 * static_cast<double>(cur.n())) {
      break;
    }
    cur.coarse_map = std::move(coarse_map);
    levels.push_back(contract(cur, coarse_n));
  }

  // ---- Phase 2: initial partition on the coarsest level ----
  std::vector<Rank> part = initial_partition(levels.back(), parts, rng);

  // ---- Phase 3: uncoarsen + refine ----
  double total_w = 0.0;
  for (LevelId w : levels.back().vertex_w) total_w += static_cast<double>(w);
  const double max_load =
      config.max_imbalance * total_w / static_cast<double>(parts);
  // Every vertex of the coarsest level starts open.
  std::vector<Standing> standing(levels.back().n(), Standing::kOpen);
  for (std::size_t li = levels.size(); li-- > 0;) {
    const Level& lvl = levels[li];
    std::vector<double> load(static_cast<std::size_t>(parts), 0.0);
    for (LevelId v = 0; v < lvl.n(); ++v) {
      load[static_cast<std::size_t>(part[v])] +=
          static_cast<double>(lvl.vertex_w[v]);
    }
    for (int pass = 0; pass < config.refine_passes; ++pass) {
      if (refine_pass(lvl, parts, part, load, max_load, standing) == 0) break;
    }
    if (li > 0) {
      // Project to the next finer level. A fine vertex of an interior
      // coarse vertex is interior too: its neighbours lie in that coarse
      // vertex or its neighbours, all in one part. Settled does not carry
      // over (a fine vertex's own gains may be positive), so every other
      // fine vertex starts open.
      const Level& finer = levels[li - 1];
      std::vector<Rank> fine_part(finer.n());
      std::vector<Standing> fine_standing(finer.n());
      for (LevelId v = 0; v < finer.n(); ++v) {
        const LevelId c = finer.coarse_map[v];
        fine_part[v] = part[c];
        fine_standing[v] = standing[c] == Standing::kInterior
                               ? Standing::kInterior
                               : Standing::kOpen;
      }
      part = std::move(fine_part);
      standing = std::move(fine_standing);
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
