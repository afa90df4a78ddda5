#include "runtime/dist_graph.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace pmc {

DistGraph DistGraph::build(const Graph& g, const Partition& p) {
  PMC_REQUIRE(p.num_vertices() == g.num_vertices(),
              "graph/partition size mismatch: " << g.num_vertices() << " vs "
                                                << p.num_vertices());
  DistGraph dist;
  dist.num_global_vertices_ = g.num_vertices();
  const Rank parts = p.num_parts();
  dist.locals_.resize(static_cast<std::size_t>(parts));

  // Pass 1: assign owned local ids in global-id order per rank.
  for (Rank r = 0; r < parts; ++r) {
    dist.locals_[static_cast<std::size_t>(r)].rank_ = r;
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    auto& lg = dist.locals_[static_cast<std::size_t>(p.owner(v))];
    const auto local = static_cast<VertexId>(lg.global_ids_.size());
    lg.global_ids_.push_back(v);
    lg.global_to_local_.emplace(v, local);
  }
  for (auto& lg : dist.locals_) {
    lg.num_owned_ = static_cast<VertexId>(lg.global_ids_.size());
  }

  // Pass 2: build per-rank CSR over owned vertices, discovering ghosts.
  for (auto& lg : dist.locals_) {
    lg.offsets_.assign(static_cast<std::size_t>(lg.num_owned_) + 1, 0);
    lg.rank_offsets_.assign(static_cast<std::size_t>(lg.num_owned_) + 1, 0);
  }
  // Degree counting.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    auto& lg = dist.locals_[static_cast<std::size_t>(p.owner(v))];
    const VertexId lv = lg.global_to_local_.at(v);
    lg.offsets_[static_cast<std::size_t>(lv) + 1] = g.degree(v);
  }
  for (auto& lg : dist.locals_) {
    for (std::size_t i = 1; i < lg.offsets_.size(); ++i) {
      lg.offsets_[i] += lg.offsets_[i - 1];
    }
    lg.adj_.resize(static_cast<std::size_t>(lg.offsets_.back()));
    if (g.has_weights()) lg.weights_.resize(lg.adj_.size());
  }

  // Fill adjacency; create ghosts on demand. A rank's owned vertices come up
  // in local-id order, so each one's sorted, unique ghost owners append to
  // the boundary-rank CSR in place.
  std::vector<Rank> ranks;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const Rank rv = p.owner(v);
    auto& lg = dist.locals_[static_cast<std::size_t>(rv)];
    const VertexId lv = lg.global_to_local_.at(v);
    auto cursor = static_cast<std::size_t>(
        lg.offsets_[static_cast<std::size_t>(lv)]);
    const auto nbrs = g.neighbors(v);
    const auto ws = g.weights(v);
    ranks.clear();
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId u = nbrs[i];
      const Rank ru = p.owner(u);
      VertexId lu;
      if (ru == rv) {
        lu = lg.global_to_local_.at(u);
      } else {
        const auto it = lg.global_to_local_.find(u);
        if (it != lg.global_to_local_.end()) {
          lu = it->second;
        } else {
          lu = static_cast<VertexId>(lg.global_ids_.size());
          lg.global_ids_.push_back(u);
          lg.global_to_local_.emplace(u, lu);
          lg.ghost_owner_.push_back(ru);
        }
        ranks.push_back(ru);
        ++lg.cross_edges_;
      }
      lg.adj_[cursor] = lu;
      if (g.has_weights()) lg.weights_[cursor] = ws[i];
      ++cursor;
    }
    std::sort(ranks.begin(), ranks.end());
    ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
    lg.boundary_ranks_.insert(lg.boundary_ranks_.end(), ranks.begin(),
                              ranks.end());
    PMC_CHECK(lg.boundary_ranks_.size() <= UINT32_MAX,
              "rank " << rv << " has too many boundary ranks to index");
    lg.rank_offsets_[static_cast<std::size_t>(lv) + 1] =
        static_cast<std::uint32_t>(lg.boundary_ranks_.size());
  }

  // Pass 3: derived structures.
  for (auto& lg : dist.locals_) {
    std::vector<Rank> nbr(lg.ghost_owner_.begin(), lg.ghost_owner_.end());
    std::sort(nbr.begin(), nbr.end());
    nbr.erase(std::unique(nbr.begin(), nbr.end()), nbr.end());
    lg.neighbor_ranks_ = std::move(nbr);
    for (VertexId lv = 0; lv < lg.num_owned_; ++lv) {
      if (lg.is_boundary(lv)) lg.boundary_.push_back(lv);
    }
  }
  return dist;
}

void DistGraph::validate(const Graph& g, const Partition& p) const {
  PMC_CHECK(num_global_vertices_ == g.num_vertices(), "vertex count drifted");
  VertexId owned_total = 0;
  EdgeId arcs_total = 0;
  EdgeId cross_total = 0;
  for (Rank r = 0; r < num_ranks(); ++r) {
    const LocalGraph& lg = local(r);
    owned_total += lg.num_owned();
    for (VertexId lv = 0; lv < lg.num_owned(); ++lv) {
      arcs_total += lg.degree(lv);
      const bool flagged = lg.is_boundary(lv);
      bool has_cross = false;
      for (VertexId lu : lg.neighbors(lv)) {
        if (lg.is_ghost(lu)) has_cross = true;
      }
      PMC_CHECK(flagged == has_cross,
                "boundary flag mismatch at rank " << r << " local " << lv);
      PMC_CHECK(p.owner(lg.global_id(lv)) == r,
                "ownership mismatch at rank " << r << " local " << lv);
    }
    cross_total += lg.num_cross_edges();
    for (VertexId gi = lg.num_owned(); gi < lg.num_local(); ++gi) {
      const Rank owner = lg.ghost_owner(gi);
      PMC_CHECK(owner != r, "ghost owned by its own rank");
      PMC_CHECK(p.owner(lg.global_id(gi)) == owner,
                "ghost owner mismatch at rank " << r);
      // Symmetry: the owner rank must know this rank as a neighbor.
      const auto& back = local(owner).neighbor_ranks();
      PMC_CHECK(std::binary_search(back.begin(), back.end(), r),
                "ghost symmetry broken between ranks " << r << " and "
                                                       << owner);
    }
  }
  PMC_CHECK(owned_total == g.num_vertices(),
            "owned vertices " << owned_total << " != " << g.num_vertices());
  PMC_CHECK(arcs_total == g.num_arcs(),
            "arc conservation failed: " << arcs_total << " != "
                                        << g.num_arcs());
  PMC_CHECK(cross_total % 2 == 0, "cross arcs must pair up");
}

}  // namespace pmc
