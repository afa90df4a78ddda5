#include "coloring/distance2.hpp"

#include <sstream>

#include "graph/algorithms.hpp"
#include "support/error.hpp"

namespace pmc {

Coloring greedy_distance2_coloring(const Graph& g, OrderingKind ordering,
                                   std::uint64_t seed) {
  Coloring result;
  result.color.assign(static_cast<std::size_t>(g.num_vertices()), kNoColor);
  ColorChooser chooser(ColorStrategy::kFirstFit);
  for (VertexId v : vertex_ordering(g, ordering, seed)) {
    for (VertexId u : g.neighbors(v)) {
      const Color cu = result.color[static_cast<std::size_t>(u)];
      if (cu != kNoColor) chooser.forbid(cu);
      for (VertexId w : g.neighbors(u)) {
        if (w == v) continue;
        const Color cw = result.color[static_cast<std::size_t>(w)];
        if (cw != kNoColor) chooser.forbid(cw);
      }
    }
    result.color[static_cast<std::size_t>(v)] = chooser.choose(nullptr);
  }
  return result;
}

DistColoringResult color_distance2_distributed(
    const Graph& g, const Partition& p, const DistColoringOptions& options) {
  const Graph squared = square_graph(g);
  return color_distributed(squared, p, options);
}

DistColoringResult color_distance2_distributed_native(
    const Graph& g, const Partition& p, const DistColoringOptions& options) {
  DistColoringOptions native = options;
  native.local_order = LocalOrder::kNatural;
  native.comm_mode = CommMode::kCustomizedNeighbors;
  return color_distributed(DistGraph::build(g, p, 2), native);
}

bool is_proper_distance2_coloring(const Graph& g, const Coloring& c,
                                  std::string* why) {
  if (!is_proper_coloring(g, c, why)) return false;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    // Any two neighbors of v are at distance <= 2 from each other.
    const auto nbrs = g.neighbors(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
        if (c.color[static_cast<std::size_t>(nbrs[i])] ==
            c.color[static_cast<std::size_t>(nbrs[j])]) {
          if (why != nullptr) {
            std::ostringstream oss;
            oss << "vertices " << nbrs[i] << " and " << nbrs[j]
                << " share color through common neighbor " << v;
            *why = oss.str();
          }
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace pmc
