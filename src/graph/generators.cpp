#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "graph/builder.hpp"
#include "support/error.hpp"
#include "support/hash_set.hpp"
#include "support/rng.hpp"

namespace pmc {

namespace {

/// Deterministic per-edge weight: hash of (seed, min(u,v), max(u,v)). Using a
/// hash instead of a sequential stream makes the weight of an edge
/// independent of generation order, which in turn makes distributed and
/// sequential runs see identical weights.
Weight edge_weight_for(WeightKind kind, std::uint64_t seed, VertexId u,
                       VertexId v) {
  if (kind == WeightKind::kUnit) return Weight{1};
  if (u > v) std::swap(u, v);
  const std::uint64_t h = splitmix64(
      splitmix64(seed ^ static_cast<std::uint64_t>(u) * 0x9e3779b97f4a7c15ULL) ^
      static_cast<std::uint64_t>(v));
  if (kind == WeightKind::kIntegral) {
    return static_cast<Weight>(1 + h % 1000);
  }
  // kUniformRandom in (0, 1]: never exactly zero so "heavier than nothing"
  // comparisons stay strict.
  return static_cast<Weight>((h >> 11) + 1) * 0x1.0p-53;
}

class EdgeAccumulator {
 public:
  EdgeAccumulator(VertexId n, WeightKind kind, std::uint64_t seed)
      : builder_(n, /*weighted=*/true, DuplicatePolicy::kKeepFirst),
        kind_(kind),
        seed_(seed) {}

  void add(VertexId u, VertexId v) {
    if (u == v) return;
    builder_.add_edge(u, v, edge_weight_for(kind_, seed_, u, v));
  }

  [[nodiscard]] Graph build() { return std::move(builder_).build(); }

 private:
  GraphBuilder builder_;
  WeightKind kind_;
  std::uint64_t seed_;
};

/// Writes a lattice's CSR arrays straight into place, row by row. The
/// caller gives each row's neighbours in ascending id order and the
/// lattice's arc count, so each array is allocated once and nothing is
/// sorted. An arc's weight is the hash of its edge's endpoints, the weight
/// GraphBuilder would store for that edge, so the arrays are the builder's.
class LatticeWriter {
 public:
  LatticeWriter(VertexId n, EdgeId arcs, WeightKind kind, std::uint64_t seed)
      : arcs_(arcs), kind_(kind), seed_(seed) {
    offsets_.reserve(static_cast<std::size_t>(n) + 1);
    adj_.reserve(static_cast<std::size_t>(arcs));
    weights_.reserve(static_cast<std::size_t>(arcs));
    offsets_.push_back(0);
  }

  void arc(VertexId v, VertexId u) {
    adj_.push_back(u);
    weights_.push_back(edge_weight_for(kind_, seed_, v, u));
  }

  void end_row() { offsets_.push_back(static_cast<EdgeId>(adj_.size())); }

  [[nodiscard]] Graph build() && {
    PMC_CHECK(static_cast<EdgeId>(adj_.size()) == arcs_,
              "lattice wrote " << adj_.size() << " arcs, counted " << arcs_);
    return Graph(std::move(offsets_), std::move(adj_), std::move(weights_));
  }

 private:
  EdgeId arcs_;
  WeightKind kind_;
  std::uint64_t seed_;
  std::vector<EdgeId> offsets_;
  std::vector<VertexId> adj_;
  std::vector<Weight> weights_;
};

}  // namespace

Graph grid_2d(VertexId rows, VertexId cols, WeightKind weights,
              std::uint64_t seed) {
  PMC_REQUIRE(rows >= 1 && cols >= 1,
              "grid dimensions must be positive, got " << rows << "x" << cols);
  LatticeWriter out(rows * cols, 2 * (rows * (cols - 1) + (rows - 1) * cols),
                    weights, seed);
  for (VertexId i = 0; i < rows; ++i) {
    for (VertexId j = 0; j < cols; ++j) {
      const VertexId v = i * cols + j;
      if (i > 0) out.arc(v, v - cols);         // north
      if (j > 0) out.arc(v, v - 1);            // west
      if (j + 1 < cols) out.arc(v, v + 1);     // east
      if (i + 1 < rows) out.arc(v, v + cols);  // south
      out.end_row();
    }
  }
  return std::move(out).build();
}

Graph grid_3d(VertexId nx, VertexId ny, VertexId nz, WeightKind weights,
              std::uint64_t seed) {
  PMC_REQUIRE(nx >= 1 && ny >= 1 && nz >= 1, "grid dims must be positive");
  const VertexId plane = nx * ny;
  LatticeWriter out(plane * nz,
                    2 * ((nx - 1) * ny * nz + nx * (ny - 1) * nz +
                         plane * (nz - 1)),
                    weights, seed);
  VertexId v = 0;
  for (VertexId z = 0; z < nz; ++z) {
    for (VertexId y = 0; y < ny; ++y) {
      for (VertexId x = 0; x < nx; ++x, ++v) {
        if (z > 0) out.arc(v, v - plane);
        if (y > 0) out.arc(v, v - nx);
        if (x > 0) out.arc(v, v - 1);
        if (x + 1 < nx) out.arc(v, v + 1);
        if (y + 1 < ny) out.arc(v, v + nx);
        if (z + 1 < nz) out.arc(v, v + plane);
        out.end_row();
      }
    }
  }
  return std::move(out).build();
}

Graph erdos_renyi(VertexId n, EdgeId m, WeightKind weights,
                  std::uint64_t seed) {
  PMC_REQUIRE(n >= 2, "erdos_renyi needs at least 2 vertices");
  // The dedup key below packs (u, v) into one 64-bit word as u << 32 | v;
  // past 2^32 vertices the pack would collide silently and under-connect
  // the graph, so refuse the range outright. The bound must be checked
  // before max_edges: n * (n - 1) overflows signed 64-bit well before the
  // key does.
  PMC_REQUIRE(n <= (VertexId{1} << 32),
              "erdos_renyi supports at most 2^32 vertices (the packed "
              "64-bit dedup key would collide), got " << n);
  const EdgeId max_edges = (n % 2 == 0)
                               ? static_cast<EdgeId>(n / 2) * (n - 1)
                               : static_cast<EdgeId>(n) * ((n - 1) / 2);
  PMC_REQUIRE(m >= 0 && m <= max_edges,
              "edge count " << m << " exceeds maximum " << max_edges);
  Rng rng(derive_seed(seed, 0xE2D05));
  EdgeAccumulator acc(n, weights, seed);
  HashSet<std::uint64_t> used;
  used.reserve(static_cast<std::size_t>(m) * 2);
  EdgeId added = 0;
  while (added < m) {
    VertexId u = rng.uniform_int(0, n - 1);
    VertexId v = rng.uniform_int(0, n - 1);
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    const std::uint64_t key = static_cast<std::uint64_t>(u) << 32 |
                              static_cast<std::uint64_t>(v);
    if (!used.insert(key)) continue;
    acc.add(u, v);
    ++added;
  }
  return acc.build();
}

Graph rmat(int scale, EdgeId edge_factor, double a, double b, double c,
           WeightKind weights, std::uint64_t seed) {
  PMC_REQUIRE(scale >= 1 && scale <= 30, "rmat scale out of range");
  PMC_REQUIRE(a > 0 && b >= 0 && c >= 0 && a + b + c < 1.0,
              "rmat probabilities must satisfy a+b+c < 1");
  const VertexId n = VertexId{1} << scale;
  const EdgeId target = edge_factor * n;
  Rng rng(derive_seed(seed, 0x12A7));
  EdgeAccumulator acc(n, weights, seed);
  for (EdgeId e = 0; e < target; ++e) {
    VertexId u = 0;
    VertexId v = 0;
    // The bit-sampling walk can land on the diagonal (u == v); the builder
    // silently drops self-loops, which used to leave the generator short of
    // its edge budget. Resample the whole walk until the endpoints differ
    // (the diagonal probability per draw is (a + d)^scale < 1, so the loop
    // terminates; with skewed parameters it materially restores density).
    do {
      u = 0;
      v = 0;
      for (int bit = 0; bit < scale; ++bit) {
        const double r = rng.uniform_double();
        if (r < a) {
          // top-left quadrant: no bits set
        } else if (r < a + b) {
          v |= VertexId{1} << bit;
        } else if (r < a + b + c) {
          u |= VertexId{1} << bit;
        } else {
          u |= VertexId{1} << bit;
          v |= VertexId{1} << bit;
        }
      }
    } while (u == v);
    acc.add(u, v);  // duplicates collapse in the builder
  }
  return acc.build();
}

Graph random_geometric(VertexId n, double radius, WeightKind weights,
                       std::uint64_t seed) {
  PMC_REQUIRE(n >= 1, "random_geometric needs at least 1 vertex");
  PMC_REQUIRE(radius > 0 && radius <= 1.0, "radius must be in (0, 1]");
  Rng rng(derive_seed(seed, 0x6E0));
  std::vector<double> xs(static_cast<std::size_t>(n));
  std::vector<double> ys(static_cast<std::size_t>(n));
  for (VertexId v = 0; v < n; ++v) {
    xs[static_cast<std::size_t>(v)] = rng.uniform_double();
    ys[static_cast<std::size_t>(v)] = rng.uniform_double();
  }
  // Bucket points into a cell grid with cell side = radius; only neighbor
  // cells can contain adjacent points.
  const auto cells = std::max<VertexId>(1, static_cast<VertexId>(1.0 / radius));
  std::vector<std::vector<VertexId>> grid(
      static_cast<std::size_t>(cells * cells));
  auto cell_of = [&](VertexId v) {
    auto cx = std::min<VertexId>(cells - 1, static_cast<VertexId>(
        xs[static_cast<std::size_t>(v)] * static_cast<double>(cells)));
    auto cy = std::min<VertexId>(cells - 1, static_cast<VertexId>(
        ys[static_cast<std::size_t>(v)] * static_cast<double>(cells)));
    return std::pair{cx, cy};
  };
  for (VertexId v = 0; v < n; ++v) {
    const auto [cx, cy] = cell_of(v);
    grid[static_cast<std::size_t>(cy * cells + cx)].push_back(v);
  }
  EdgeAccumulator acc(n, weights, seed);
  const double r2 = radius * radius;
  for (VertexId v = 0; v < n; ++v) {
    const auto [cx, cy] = cell_of(v);
    for (VertexId dy = -1; dy <= 1; ++dy) {
      for (VertexId dx = -1; dx <= 1; ++dx) {
        const VertexId nx = cx + dx;
        const VertexId ny = cy + dy;
        if (nx < 0 || ny < 0 || nx >= cells || ny >= cells) continue;
        for (VertexId u : grid[static_cast<std::size_t>(ny * cells + nx)]) {
          if (u <= v) continue;
          const double ddx = xs[static_cast<std::size_t>(u)] -
                             xs[static_cast<std::size_t>(v)];
          const double ddy = ys[static_cast<std::size_t>(u)] -
                             ys[static_cast<std::size_t>(v)];
          if (ddx * ddx + ddy * ddy <= r2) acc.add(v, u);
        }
      }
    }
  }
  return acc.build();
}

Graph circuit_like(VertexId n, EdgeId target_edges, EdgeId max_degree,
                   WeightKind weights, std::uint64_t seed) {
  PMC_REQUIRE(n >= 3, "circuit_like needs at least 3 vertices");
  PMC_REQUIRE(max_degree >= 3, "max_degree must be at least 3");
  PMC_REQUIRE(target_edges >= n, "need at least n edges for min degree 2");
  Rng rng(derive_seed(seed, 0xC12C));
  std::vector<EdgeId> deg(static_cast<std::size_t>(n), 0);
  EdgeAccumulator acc(n, weights, seed);
  auto try_add = [&](VertexId u, VertexId v) {
    if (u == v) return false;
    if (deg[static_cast<std::size_t>(u)] >= max_degree ||
        deg[static_cast<std::size_t>(v)] >= max_degree) {
      return false;
    }
    acc.add(u, v);
    ++deg[static_cast<std::size_t>(u)];
    ++deg[static_cast<std::size_t>(v)];
    return true;
  };
  // Backbone ring: guarantees min degree 2 and a single connected component,
  // mirroring the long conduction paths of a circuit netlist.
  for (VertexId v = 0; v < n; ++v) {
    try_add(v, (v + 1) % n);
  }
  // Local shortcuts: connect each node to a nearby node within a small
  // window (netlist locality), until close to the target edge count.
  EdgeId added = n;
  EdgeId attempts = 0;
  const EdgeId max_attempts = target_edges * 16;
  while (added < target_edges && attempts < max_attempts) {
    ++attempts;
    const VertexId u = rng.uniform_int(0, n - 1);
    VertexId v;
    if (rng.bernoulli(0.97)) {
      // 97% local links within a small window: circuit matrices (e.g.
      // G3_circuit) are strongly banded after standard reorderings.
      const VertexId delta = rng.uniform_int(2, 16);
      v = (u + delta) % n;
    } else {
      // 3% long-range links (power rails / clock nets).
      v = rng.uniform_int(0, n - 1);
    }
    if (try_add(u, v)) ++added;
  }
  return acc.build();
}

Graph complete(VertexId n, WeightKind weights, std::uint64_t seed) {
  PMC_REQUIRE(n >= 1 && n <= 4096, "complete graph size out of test range");
  EdgeAccumulator acc(n, weights, seed);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      acc.add(u, v);
    }
  }
  return acc.build();
}

Graph path(VertexId n, WeightKind weights, std::uint64_t seed) {
  PMC_REQUIRE(n >= 1, "path needs at least 1 vertex");
  EdgeAccumulator acc(n, weights, seed);
  for (VertexId v = 0; v + 1 < n; ++v) acc.add(v, v + 1);
  return acc.build();
}

Graph cycle(VertexId n, WeightKind weights, std::uint64_t seed) {
  PMC_REQUIRE(n >= 3, "cycle needs at least 3 vertices");
  EdgeAccumulator acc(n, weights, seed);
  for (VertexId v = 0; v < n; ++v) acc.add(v, (v + 1) % n);
  return acc.build();
}

Graph star(VertexId n, WeightKind weights, std::uint64_t seed) {
  PMC_REQUIRE(n >= 2, "star needs at least 2 vertices");
  EdgeAccumulator acc(n, weights, seed);
  for (VertexId v = 1; v < n; ++v) acc.add(0, v);
  return acc.build();
}

Graph random_bipartite(VertexId left, VertexId right, EdgeId m,
                       BipartiteInfo& info, WeightKind weights,
                       std::uint64_t seed) {
  PMC_REQUIRE(left >= 1 && right >= 1, "both sides must be non-empty");
  // Same packed-key bound as erdos_renyi: v (= left + right-side index) must
  // fit the low 32 bits, and the guard must precede the left * right product
  // below, which overflows first.
  PMC_REQUIRE(left <= (VertexId{1} << 32) && right <= (VertexId{1} << 32) &&
                  left + right <= (VertexId{1} << 32),
              "random_bipartite supports at most 2^32 total vertices (the "
              "packed 64-bit dedup key would collide), got "
                  << left << " + " << right);
  const auto max_edges = static_cast<EdgeId>(left) * static_cast<EdgeId>(right);
  PMC_REQUIRE(m >= 0 && m <= max_edges,
              "edge count " << m << " exceeds bipartite maximum " << max_edges);
  Rng rng(derive_seed(seed, 0xB1BA));
  EdgeAccumulator acc(left + right, weights, seed);
  HashSet<std::uint64_t> used;
  used.reserve(static_cast<std::size_t>(m) * 2);
  EdgeId added = 0;
  while (added < m) {
    const VertexId u = rng.uniform_int(0, left - 1);
    const VertexId v = left + rng.uniform_int(0, right - 1);
    const std::uint64_t key = static_cast<std::uint64_t>(u) << 32 |
                              static_cast<std::uint64_t>(v);
    if (!used.insert(key)) continue;
    acc.add(u, v);
    ++added;
  }
  info = BipartiteInfo{left, right};
  return acc.build();
}

Graph bipartite_double_cover(const Graph& g, BipartiteInfo& info,
                             bool with_diagonal, std::uint64_t seed) {
  const VertexId n = g.num_vertices();
  GraphBuilder builder(2 * n, /*weighted=*/true);
  builder.reserve(g.num_arcs() + (with_diagonal ? n : 0));
  Rng rng(derive_seed(seed, 0xD1A6));
  for (VertexId v = 0; v < n; ++v) {
    const auto nbrs = g.neighbors(v);
    const auto ws = g.weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      builder.add_edge(v, n + nbrs[i], g.has_weights() ? ws[i] : Weight{1});
    }
    if (with_diagonal) {
      builder.add_edge(v, n + v, rng.uniform_double(0.5, 2.0));
    }
  }
  info = BipartiteInfo{n, n};
  return std::move(builder).build();
}

Graph reweight(const Graph& g, WeightKind weights, std::uint64_t seed) {
  GraphBuilder builder(g.num_vertices(), /*weighted=*/true);
  builder.reserve(g.num_edges());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (VertexId u : g.neighbors(v)) {
      if (u > v) {
        builder.add_edge(v, u, edge_weight_for(weights, seed, v, u));
      }
    }
  }
  return std::move(builder).build();
}

}  // namespace pmc
