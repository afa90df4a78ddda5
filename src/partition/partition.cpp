#include "partition/partition.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace pmc {

Partition::Partition(Rank num_parts, std::vector<Rank> owner)
    : num_parts_(num_parts), owner_(std::move(owner)) {
  PMC_REQUIRE(num_parts >= 1, "need at least one part, got " << num_parts);
  for (std::size_t v = 0; v < owner_.size(); ++v) {
    PMC_REQUIRE(owner_[v] >= 0 && owner_[v] < num_parts,
                "vertex " << v << " assigned to invalid part " << owner_[v]);
  }
}

std::vector<VertexId> Partition::vertices_of(Rank part) const {
  std::vector<VertexId> out;
  for (std::size_t v = 0; v < owner_.size(); ++v) {
    if (owner_[v] == part) out.push_back(static_cast<VertexId>(v));
  }
  return out;
}

std::vector<VertexId> Partition::part_sizes() const {
  std::vector<VertexId> sizes(static_cast<std::size_t>(num_parts_), 0);
  for (Rank r : owner_) ++sizes[static_cast<std::size_t>(r)];
  return sizes;
}

PartitionMetrics compute_metrics(const Graph& g, const Partition& p) {
  PMC_REQUIRE(p.num_vertices() == g.num_vertices(),
              "partition covers " << p.num_vertices() << " vertices, graph has "
                                  << g.num_vertices());
  PartitionMetrics m;
  m.num_parts = p.num_parts();
  const auto flags = boundary_flags(g, p);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (flags[static_cast<std::size_t>(v)]) ++m.boundary_vertices;
    for (VertexId u : g.neighbors(v)) {
      if (u > v && p.owner(u) != p.owner(v)) ++m.edge_cut;
    }
  }
  m.cut_fraction = g.num_edges() == 0
                       ? 0.0
                       : static_cast<double>(m.edge_cut) /
                             static_cast<double>(g.num_edges());
  m.boundary_fraction = g.num_vertices() == 0
                            ? 0.0
                            : static_cast<double>(m.boundary_vertices) /
                                  static_cast<double>(g.num_vertices());
  const auto sizes = p.part_sizes();
  const auto max_size = *std::max_element(sizes.begin(), sizes.end());
  const double avg = static_cast<double>(g.num_vertices()) /
                     static_cast<double>(p.num_parts());
  m.imbalance = avg == 0.0 ? 1.0 : static_cast<double>(max_size) / avg;
  return m;
}

std::vector<bool> boundary_flags(const Graph& g, const Partition& p) {
  std::vector<bool> flags(static_cast<std::size_t>(g.num_vertices()), false);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const Rank rv = p.owner(v);
    for (VertexId u : g.neighbors(v)) {
      if (p.owner(u) != rv) {
        flags[static_cast<std::size_t>(v)] = true;
        break;
      }
    }
  }
  return flags;
}

}  // namespace pmc
