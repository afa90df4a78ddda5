#include "runtime/dist_graph.hpp"

#include <algorithm>
#include <numeric>

#include "support/error.hpp"

namespace pmc {

void LocalGraph::fill(const Graph& g, const Partition& p,
                      std::vector<VertexId>& marker) {
  // Forget the previous fill's ghosts; the owned ids stay.
  global_ids_.resize(static_cast<std::size_t>(num_owned_));
  ghost_owner_.clear();
  boundary_ranks_.clear();
  boundary_.clear();

  const auto owned = static_cast<std::size_t>(num_owned_);
  for (std::size_t lv = 0; lv < owned; ++lv) {
    marker[static_cast<std::size_t>(global_ids_[lv])] =
        static_cast<VertexId>(lv);
  }
  // Local id of u, numbering it as the next ghost on first sight.
  const auto resolve = [&](VertexId u, Rank ru) {
    VertexId& slot = marker[static_cast<std::size_t>(u)];
    if (slot == kNoVertex) {
      PMC_CHECK(ru != rank_, "rank " << rank_ << " owns vertex " << u
                                     << " but did not number it");
      slot = static_cast<VertexId>(global_ids_.size());
      global_ids_.push_back(u);
      ghost_owner_.push_back(ru);
    }
    return slot;
  };

  offsets_.assign(owned + 1, 0);
  rank_offsets_.assign(owned + 1, 0);
  for (std::size_t lv = 0; lv < owned; ++lv) {
    offsets_[lv + 1] = offsets_[lv] + g.degree(global_ids_[lv]);
  }
  adj_.resize(static_cast<std::size_t>(offsets_.back()));
  weights_.resize(g.has_weights() ? adj_.size() : 0);

  // Appends owned vertex lv's boundary ranks, sorted and unique, to the CSR.
  std::vector<Rank> ranks;
  const auto close_ranks = [&](std::size_t lv) {
    std::sort(ranks.begin(), ranks.end());
    ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
    boundary_ranks_.insert(boundary_ranks_.end(), ranks.begin(), ranks.end());
    PMC_CHECK(boundary_ranks_.size() <= UINT32_MAX,
              "rank " << rank_ << " has too many boundary ranks to index");
    rank_offsets_[lv + 1] = static_cast<std::uint32_t>(boundary_ranks_.size());
    ranks.clear();
  };

  // Fill adjacency; create ghosts on demand. Owned vertices come up in
  // local-id order, so each one's ghost owners append to the boundary-rank
  // CSR in place, and the arcs into ghosts are met in owned-id then arc
  // order.
  std::vector<IncidentArc> ghost_arcs;
  for (std::size_t lv = 0; lv < owned; ++lv) {
    const VertexId v = global_ids_[lv];
    auto cursor = static_cast<std::size_t>(offsets_[lv]);
    const auto nbrs = g.neighbors(v);
    const auto ws = g.weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId u = nbrs[i];
      const Rank ru = p.owner(u);
      adj_[cursor] = resolve(u, ru);
      if (ru != rank_) {
        ranks.push_back(ru);
        ghost_arcs.push_back(
            {static_cast<VertexId>(lv), static_cast<EdgeId>(cursor)});
      }
      if (g.has_weights()) weights_[cursor] = ws[i];
      ++cursor;
    }
    close_ranks(lv);
  }
  cross_edges_ = static_cast<EdgeId>(ghost_arcs.size());

  if (halo_ == 2) {
    // The distance-1 ghosts' rows, whose unseen targets become the
    // distance-2 ghosts (owned targets are already numbered); then each
    // owned vertex's ranks again, two hops out.
    const std::size_t rows = global_ids_.size();
    for (std::size_t lu = owned; lu < rows; ++lu) {
      const VertexId u = global_ids_[lu];
      const auto nbrs = g.neighbors(u);
      const auto ws = g.weights(u);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        adj_.push_back(resolve(nbrs[i], p.owner(nbrs[i])));
        if (g.has_weights()) weights_.push_back(ws[i]);
      }
      offsets_.push_back(static_cast<EdgeId>(adj_.size()));
    }
    boundary_ranks_.clear();
    for (std::size_t lv = 0; lv < owned; ++lv) {
      for (const VertexId u : neighbors(static_cast<VertexId>(lv))) {
        if (is_ghost(u)) ranks.push_back(ghost_owner(u));
        for (const VertexId w : neighbors(u)) {
          if (is_ghost(w)) ranks.push_back(ghost_owner(w));
        }
      }
      close_ranks(lv);
    }
  }

  // Ghost incidence: the arcs into ghosts, counting-sorted by ghost so that
  // each list keeps their order. The offsets count into slot g + 1, turn
  // into starts, serve as cursors (ending at the next list's start) and
  // shift back by one.
  PMC_CHECK(ghost_arcs.size() <= UINT32_MAX,
            "rank " << rank_ << " has too many cross edges to index");
  const auto ghost_of = [&](const IncidentArc& in) {
    return static_cast<std::size_t>(adj_[static_cast<std::size_t>(in.arc)] -
                                    num_owned_);
  };
  incidence_offsets_.assign(global_ids_.size() - owned + 1, 0);
  for (const IncidentArc& in : ghost_arcs) {
    ++incidence_offsets_[ghost_of(in) + 1];
  }
  std::partial_sum(incidence_offsets_.begin(), incidence_offsets_.end(),
                   incidence_offsets_.begin());
  incidence_.resize(ghost_arcs.size());
  for (const IncidentArc& in : ghost_arcs) {
    incidence_[incidence_offsets_[ghost_of(in)]++] = in;
  }
  std::copy_backward(incidence_offsets_.begin(), incidence_offsets_.end() - 1,
                     incidence_offsets_.end());
  incidence_offsets_[0] = 0;

  // Clear the marker for the next fill, and index the ghosts by global id.
  for (const VertexId v : global_ids_) {
    marker[static_cast<std::size_t>(v)] = kNoVertex;
  }
  ghost_locals_.resize(global_ids_.size() - owned);
  std::iota(ghost_locals_.begin(), ghost_locals_.end(), num_owned_);
  std::sort(ghost_locals_.begin(), ghost_locals_.end(),
            [&](VertexId a, VertexId b) { return global_id(a) < global_id(b); });
  ghost_keys_.resize(ghost_locals_.size());
  for (std::size_t i = 0; i < ghost_locals_.size(); ++i) {
    ghost_keys_[i] = global_id(ghost_locals_[i]);
  }

  // Derived structures.
  neighbor_ranks_.assign(ghost_owner_.begin(), ghost_owner_.end());
  std::sort(neighbor_ranks_.begin(), neighbor_ranks_.end());
  neighbor_ranks_.erase(
      std::unique(neighbor_ranks_.begin(), neighbor_ranks_.end()),
      neighbor_ranks_.end());
  for (VertexId lv = 0; lv < num_owned_; ++lv) {
    if (is_boundary(lv)) boundary_.push_back(lv);
  }
}

DistGraph DistGraph::build(const Graph& g, const Partition& p, int halo) {
  PMC_REQUIRE(p.num_vertices() == g.num_vertices(),
              "graph/partition size mismatch: " << g.num_vertices() << " vs "
                                                << p.num_vertices());
  PMC_REQUIRE(halo == 1 || halo == 2, "halo must be 1 or 2, got " << halo);
  DistGraph dist;
  dist.num_global_vertices_ = g.num_vertices();
  const Rank parts = p.num_parts();
  dist.locals_.resize(static_cast<std::size_t>(parts));

  // Owned ids: each rank numbers its vertices in global-id order.
  for (Rank r = 0; r < parts; ++r) {
    dist.locals_[static_cast<std::size_t>(r)].rank_ = r;
    dist.locals_[static_cast<std::size_t>(r)].halo_ = halo;
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    dist.locals_[static_cast<std::size_t>(p.owner(v))].global_ids_.push_back(v);
  }
  std::vector<VertexId> marker(static_cast<std::size_t>(g.num_vertices()),
                               kNoVertex);
  for (auto& lg : dist.locals_) {
    lg.num_owned_ = static_cast<VertexId>(lg.global_ids_.size());
    lg.fill(g, p, marker);
  }
  return dist;
}

void DistGraph::refresh(const Graph& g, const Partition& p,
                        std::span<const VertexId> touched) {
  PMC_REQUIRE(g.num_vertices() == num_global_vertices_ &&
                  p.num_vertices() == num_global_vertices_ &&
                  p.num_parts() == num_ranks(),
              "refresh of a " << num_global_vertices_ << "-vertex, "
                              << num_ranks() << "-rank distribution with a "
                              << g.num_vertices() << "-vertex graph and a "
                              << p.num_parts() << "-part partition");
  PMC_REQUIRE(local(0).halo() == 1, "refresh of a halo-"
                                        << local(0).halo() << " distribution");
  std::vector<bool> stale(static_cast<std::size_t>(num_ranks()), false);
  for (const VertexId v : touched) {
    PMC_REQUIRE(v >= 0 && v < num_global_vertices_,
                "touched vertex " << v << " out of range");
    stale[static_cast<std::size_t>(p.owner(v))] = true;
  }
  std::vector<VertexId> marker(static_cast<std::size_t>(num_global_vertices_),
                               kNoVertex);
  for (Rank r = 0; r < num_ranks(); ++r) {
    if (stale[static_cast<std::size_t>(r)]) {
      locals_[static_cast<std::size_t>(r)].fill(g, p, marker);
    }
  }
}

void DistGraph::validate(const Graph& g, const Partition& p) const {
  PMC_CHECK(num_global_vertices_ == g.num_vertices(), "vertex count drifted");
  VertexId owned_total = 0;
  EdgeId arcs_total = 0;
  EdgeId cross_total = 0;
  for (Rank r = 0; r < num_ranks(); ++r) {
    const LocalGraph& lg = local(r);
    owned_total += lg.num_owned();
    // Owned ids ascend in global order, and the lookup inverts global_id.
    for (VertexId l = 0; l < lg.num_local(); ++l) {
      PMC_CHECK(l == 0 || l >= lg.num_owned() ||
                    lg.global_id(l - 1) < lg.global_id(l),
                "owned global ids out of order at rank " << r << " local "
                                                         << l);
      PMC_CHECK(lg.local_id(lg.global_id(l)) == l,
                "local_id does not invert global_id at rank "
                    << r << " local " << l);
    }
    // How many of each ghost's incident arcs the owned rows have matched.
    std::vector<std::size_t> incident(
        static_cast<std::size_t>(lg.num_ghosts()));
    for (VertexId lv = 0; lv < lg.num_owned(); ++lv) {
      arcs_total += lg.degree(lv);
      // A vertex of another rank within the halo: a ghost neighbor, or at
      // halo 2 a ghost in a neighbor's row (every ghost neighbor has one).
      bool has_cross = false;
      for (EdgeId a = lg.offset_begin(lv); a < lg.offset_end(lv); ++a) {
        const VertexId lu = lg.arc_target(a);
        if (lg.is_ghost(lu)) {
          has_cross = true;
          // The ghost's incidence lists this arc next.
          const auto want = lg.ghost_incidence(lu);
          std::size_t& k =
              incident[static_cast<std::size_t>(lu - lg.num_owned())];
          PMC_CHECK(
              (k < want.size() && want[k] == LocalGraph::IncidentArc{lv, a}),
              "ghost incidence mismatch at rank " << r << " arc " << a);
          ++k;
        }
        if (lg.halo() == 1) continue;
        PMC_CHECK(lu < lg.num_rows(), "distance-1 ghost without a row at rank "
                                          << r << " local " << lu);
        for (VertexId lw : lg.neighbors(lu)) {
          if (lg.is_ghost(lw)) has_cross = true;
        }
      }
      PMC_CHECK(lg.is_boundary(lv) == has_cross,
                "boundary flag mismatch at rank " << r << " local " << lv);
      PMC_CHECK(p.owner(lg.global_id(lv)) == r,
                "ownership mismatch at rank " << r << " local " << lv);
    }
    // Each ghost row is g's row of that vertex, in g's order.
    for (VertexId lu = lg.num_owned(); lu < lg.num_rows(); ++lu) {
      const auto want = g.neighbors(lg.global_id(lu));
      const auto got = lg.neighbors(lu);
      PMC_CHECK(std::ranges::equal(got, want, {},
                                   [&](VertexId l) { return lg.global_id(l); }),
                "ghost row mismatch at rank " << r << " local " << lu);
    }
    cross_total += lg.num_cross_edges();
    for (VertexId gi = lg.num_owned(); gi < lg.num_local(); ++gi) {
      PMC_CHECK(incident[static_cast<std::size_t>(gi - lg.num_owned())] ==
                    lg.ghost_incidence(gi).size(),
                "ghost incidence lists an arc no owned row has at rank "
                    << r << " local " << gi);
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
