#include "coloring/sequential.hpp"

#include <algorithm>
#include <numeric>

#include "graph/algorithms.hpp"
#include "support/error.hpp"
#include "support/hash_set.hpp"
#include "support/rng.hpp"

namespace pmc {

void ColorChooser::forbid(Color c) {
  PMC_REQUIRE(c >= 0, "cannot forbid negative color " << c);
  if (static_cast<std::size_t>(c) >= marks_.size()) {
    marks_.resize(static_cast<std::size_t>(c) + 1, 0);
  }
  marks_[static_cast<std::size_t>(c)] = stamp_;
}

Color ColorChooser::choose(std::vector<std::int64_t>* usage) {
  const auto limit = static_cast<Color>(marks_.size());
  Color chosen = kNoColor;
  switch (strategy_) {
    case ColorStrategy::kFirstFit: {
      for (Color c = 0; c < limit; ++c) {
        if (marks_[static_cast<std::size_t>(c)] != stamp_) {
          chosen = c;
          break;
        }
      }
      if (chosen == kNoColor) chosen = limit;
      break;
    }
    case ColorStrategy::kStaggeredFirstFit: {
      // Scan base..limit-1 then wrap 0..base-1; open a new color if all of
      // the current palette is forbidden.
      const Color base = limit == 0 ? 0 : stagger_base_ % limit;
      for (Color i = 0; i < limit; ++i) {
        const Color c = (base + i) % limit;
        if (marks_[static_cast<std::size_t>(c)] != stamp_) {
          chosen = c;
          break;
        }
      }
      if (chosen == kNoColor) chosen = limit;
      break;
    }
    case ColorStrategy::kLeastUsed: {
      PMC_REQUIRE(usage != nullptr, "kLeastUsed requires a usage table");
      std::int64_t best_usage = -1;
      for (Color c = 0; c < static_cast<Color>(usage->size()); ++c) {
        if (static_cast<std::size_t>(c) < marks_.size() &&
            marks_[static_cast<std::size_t>(c)] == stamp_) {
          continue;
        }
        const std::int64_t u = (*usage)[static_cast<std::size_t>(c)];
        if (best_usage == -1 || u < best_usage) {
          best_usage = u;
          chosen = c;
        }
      }
      if (chosen == kNoColor) {
        // Open a new color beyond the current palette — but colors outside
        // the (per-rank) usage table can still be forbidden by neighbors
        // colored elsewhere, so skip those too.
        Color c = static_cast<Color>(usage->size());
        while (static_cast<std::size_t>(c) < marks_.size() &&
               marks_[static_cast<std::size_t>(c)] == stamp_) {
          ++c;
        }
        chosen = c;
      }
      if (static_cast<std::size_t>(chosen) >= usage->size()) {
        usage->resize(static_cast<std::size_t>(chosen) + 1, 0);
      }
      ++(*usage)[static_cast<std::size_t>(chosen)];
      break;
    }
  }
  ++stamp_;
  return chosen;
}

namespace {

std::vector<VertexId> smallest_last_order(const Graph& g) {
  const VertexId n = g.num_vertices();
  std::vector<EdgeId> deg(static_cast<std::size_t>(n));
  EdgeId max_deg = 0;
  for (VertexId v = 0; v < n; ++v) {
    deg[static_cast<std::size_t>(v)] = g.degree(v);
    max_deg = std::max(max_deg, deg[static_cast<std::size_t>(v)]);
  }
  // Bucket queue with lazy entries: each vertex may appear in several
  // buckets; a popped entry is valid only if the stored degree matches.
  std::vector<std::vector<VertexId>> buckets(
      static_cast<std::size_t>(max_deg) + 1);
  for (VertexId v = 0; v < n; ++v) {
    buckets[static_cast<std::size_t>(deg[static_cast<std::size_t>(v)])]
        .push_back(v);
  }
  std::vector<bool> removed(static_cast<std::size_t>(n), false);
  std::vector<VertexId> removal;
  removal.reserve(static_cast<std::size_t>(n));
  std::size_t cursor = 0;  // lowest possibly non-empty bucket
  while (static_cast<VertexId>(removal.size()) < n) {
    while (cursor < buckets.size() && buckets[cursor].empty()) ++cursor;
    PMC_CHECK(cursor < buckets.size(), "smallest-last bucket queue drained");
    const VertexId v = buckets[cursor].back();
    buckets[cursor].pop_back();
    if (removed[static_cast<std::size_t>(v)] ||
        deg[static_cast<std::size_t>(v)] != static_cast<EdgeId>(cursor)) {
      continue;  // stale entry
    }
    removed[static_cast<std::size_t>(v)] = true;
    removal.push_back(v);
    for (VertexId u : g.neighbors(v)) {
      if (removed[static_cast<std::size_t>(u)]) continue;
      auto& du = deg[static_cast<std::size_t>(u)];
      --du;
      buckets[static_cast<std::size_t>(du)].push_back(u);
      if (static_cast<std::size_t>(du) < cursor) {
        cursor = static_cast<std::size_t>(du);
      }
    }
  }
  std::reverse(removal.begin(), removal.end());
  return removal;
}

/// Shared scaffolding for the dynamic orderings (incidence-degree, DSATUR):
/// a max-bucket queue over a monotonically non-decreasing key.
class MaxBucketQueue {
 public:
  MaxBucketQueue(VertexId n, std::size_t max_key)
      : key_(static_cast<std::size_t>(n), 0),
        done_(static_cast<std::size_t>(n), false),
        buckets_(max_key + 2) {
    for (VertexId v = 0; v < n; ++v) buckets_[0].push_back(v);
    top_ = 0;
  }

  void increase(VertexId v, std::size_t new_key) {
    if (done_[static_cast<std::size_t>(v)]) return;
    if (new_key <= key_[static_cast<std::size_t>(v)]) return;
    key_[static_cast<std::size_t>(v)] = new_key;
    PMC_CHECK(new_key < buckets_.size(), "bucket key overflow");
    buckets_[new_key].push_back(v);
    top_ = std::max(top_, new_key);
  }

  [[nodiscard]] std::size_t key(VertexId v) const {
    return key_[static_cast<std::size_t>(v)];
  }

  /// Pops the vertex with the largest key; kNoVertex when empty.
  [[nodiscard]] VertexId pop() {
    while (true) {
      while (top_ > 0 && buckets_[top_].empty()) --top_;
      if (buckets_[top_].empty()) return kNoVertex;
      const VertexId v = buckets_[top_].back();
      buckets_[top_].pop_back();
      if (done_[static_cast<std::size_t>(v)] ||
          key_[static_cast<std::size_t>(v)] != top_) {
        continue;  // stale
      }
      done_[static_cast<std::size_t>(v)] = true;
      return v;
    }
  }

 private:
  std::vector<std::size_t> key_;
  std::vector<bool> done_;
  std::vector<std::vector<VertexId>> buckets_;
  std::size_t top_ = 0;
};

Coloring color_static_order(const Graph& g,
                            const std::vector<VertexId>& order,
                            const SeqColoringOptions& options) {
  Coloring result;
  result.color.assign(static_cast<std::size_t>(g.num_vertices()), kNoColor);
  ColorChooser chooser(options.strategy, options.stagger_base);
  std::vector<std::int64_t> usage;
  auto* usage_ptr =
      options.strategy == ColorStrategy::kLeastUsed ? &usage : nullptr;
  for (VertexId v : order) {
    for (VertexId u : g.neighbors(v)) {
      const Color cu = result.color[static_cast<std::size_t>(u)];
      if (cu != kNoColor) chooser.forbid(cu);
    }
    result.color[static_cast<std::size_t>(v)] = chooser.choose(usage_ptr);
  }
  return result;
}

Coloring color_incidence_degree(const Graph& g,
                                const SeqColoringOptions& options) {
  const VertexId n = g.num_vertices();
  Coloring result;
  result.color.assign(static_cast<std::size_t>(n), kNoColor);
  if (n == 0) return result;
  MaxBucketQueue queue(n, static_cast<std::size_t>(g.max_degree()));
  ColorChooser chooser(options.strategy, options.stagger_base);
  std::vector<std::int64_t> usage;
  auto* usage_ptr =
      options.strategy == ColorStrategy::kLeastUsed ? &usage : nullptr;
  std::vector<std::size_t> colored_neighbors(static_cast<std::size_t>(n), 0);
  for (VertexId done = 0; done < n; ++done) {
    const VertexId v = queue.pop();
    PMC_CHECK(v != kNoVertex, "incidence-degree queue drained early");
    for (VertexId u : g.neighbors(v)) {
      const Color cu = result.color[static_cast<std::size_t>(u)];
      if (cu != kNoColor) chooser.forbid(cu);
    }
    result.color[static_cast<std::size_t>(v)] = chooser.choose(usage_ptr);
    for (VertexId u : g.neighbors(v)) {
      if (result.color[static_cast<std::size_t>(u)] == kNoColor) {
        auto& cn = colored_neighbors[static_cast<std::size_t>(u)];
        ++cn;
        queue.increase(u, cn);
      }
    }
  }
  return result;
}

Coloring color_saturation(const Graph& g, const SeqColoringOptions& options) {
  const VertexId n = g.num_vertices();
  Coloring result;
  result.color.assign(static_cast<std::size_t>(n), kNoColor);
  if (n == 0) return result;
  MaxBucketQueue queue(n, static_cast<std::size_t>(g.max_degree()));
  ColorChooser chooser(options.strategy, options.stagger_base);
  std::vector<std::int64_t> usage;
  auto* usage_ptr =
      options.strategy == ColorStrategy::kLeastUsed ? &usage : nullptr;
  // Distinct neighbor colors per vertex (saturation).
  std::vector<HashSet<Color>> adjacent_colors(static_cast<std::size_t>(n));
  for (VertexId done = 0; done < n; ++done) {
    const VertexId v = queue.pop();
    PMC_CHECK(v != kNoVertex, "DSATUR queue drained early");
    for (VertexId u : g.neighbors(v)) {
      const Color cu = result.color[static_cast<std::size_t>(u)];
      if (cu != kNoColor) chooser.forbid(cu);
    }
    const Color cv = chooser.choose(usage_ptr);
    result.color[static_cast<std::size_t>(v)] = cv;
    for (VertexId u : g.neighbors(v)) {
      if (result.color[static_cast<std::size_t>(u)] == kNoColor &&
          adjacent_colors[static_cast<std::size_t>(u)].insert(cv)) {
        queue.increase(u, adjacent_colors[static_cast<std::size_t>(u)].size());
      }
    }
  }
  return result;
}

}  // namespace

std::vector<VertexId> vertex_ordering(const Graph& g, OrderingKind kind,
                                      std::uint64_t seed) {
  const VertexId n = g.num_vertices();
  switch (kind) {
    case OrderingKind::kNatural: {
      std::vector<VertexId> order(static_cast<std::size_t>(n));
      std::iota(order.begin(), order.end(), VertexId{0});
      return order;
    }
    case OrderingKind::kRandom:
      return random_permutation(n, seed);
    case OrderingKind::kLargestFirst: {
      std::vector<VertexId> order(static_cast<std::size_t>(n));
      std::iota(order.begin(), order.end(), VertexId{0});
      std::stable_sort(order.begin(), order.end(),
                       [&g](VertexId a, VertexId b) {
                         return g.degree(a) > g.degree(b);
                       });
      return order;
    }
    case OrderingKind::kSmallestLast:
      return smallest_last_order(g);
    case OrderingKind::kIncidenceDegree:
    case OrderingKind::kSaturation:
      PMC_FAIL("dynamic orderings cannot be precomputed; use greedy_coloring");
  }
  PMC_FAIL("unknown ordering kind");
}

Coloring greedy_coloring(const Graph& g, const SeqColoringOptions& options) {
  switch (options.ordering) {
    case OrderingKind::kIncidenceDegree:
      return color_incidence_degree(g, options);
    case OrderingKind::kSaturation:
      return color_saturation(g, options);
    default:
      return color_static_order(
          g, vertex_ordering(g, options.ordering, options.seed), options);
  }
}

}  // namespace pmc
