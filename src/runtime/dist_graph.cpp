#include "runtime/dist_graph.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "graph/csr_splice.hpp"
#include "support/error.hpp"

namespace pmc {

void LocalGraph::fill(const Graph& g, const Partition& p,
                      std::vector<VertexId>& marker) {
  // Forget the previous fill's ghosts; the owned ids stay.
  global_ids_.resize(static_cast<std::size_t>(num_owned_));
  ghost_owner_.clear();
  boundary_ranks_.clear();

  const auto owned = static_cast<std::size_t>(num_owned_);
  for (std::size_t lv = 0; lv < owned; ++lv) {
    marker[static_cast<std::size_t>(global_ids_[lv])] =
        static_cast<VertexId>(lv);
  }
  // Local id of u; an unseen u gets the next provisional ghost id.
  const auto resolve = [&](VertexId u, Rank ru) {
    VertexId& slot = marker[static_cast<std::size_t>(u)];
    if (slot == kNoVertex) {
      PMC_CHECK(ru != rank_, "rank " << rank_ << " owns vertex " << u
                                     << " but did not number it");
      slot = static_cast<VertexId>(global_ids_.size());
      global_ids_.push_back(u);
    }
    return slot;
  };

  offsets_.assign(owned + 1, 0);
  rank_offsets_.assign(owned + 1, 0);
  EdgeId arcs = 0;
  for (std::size_t lv = 0; lv < owned; ++lv) {
    arcs += g.degree(global_ids_[lv]);
    offsets_[lv + 1] = static_cast<std::uint32_t>(arcs);
  }
  require_fits(owned, arcs);
  adj_.resize(static_cast<std::size_t>(arcs));
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
      adj_[cursor] = static_cast<LocalId>(resolve(u, ru));
      if (ru != rank_) {
        ranks.push_back(ru);
        ghost_arcs.push_back(
            {static_cast<LocalId>(lv), static_cast<std::uint32_t>(cursor)});
      }
      if (g.has_weights()) weights_[cursor] = ws[i];
      ++cursor;
    }
    close_ranks(lv);
  }
  require_fits(global_ids_.size(), arcs);
  sort_ghosts(num_owned_, ghost_arcs, p);

  if (halo_ == 2) {
    // The distance-1 ghosts' rows, read through their final ids, whose
    // unseen targets become the distance-2 ghosts (owned targets are
    // already numbered); then each owned vertex's ranks again, two hops
    // out.
    const std::size_t rows = global_ids_.size();
    for (std::size_t lu = owned; lu < rows; ++lu) {
      marker[static_cast<std::size_t>(global_ids_[lu])] =
          static_cast<VertexId>(lu);
    }
    std::vector<IncidentArc> far_arcs;
    for (std::size_t lu = owned; lu < rows; ++lu) {
      const VertexId u = global_ids_[lu];
      const auto nbrs = g.neighbors(u);
      const auto ws = g.weights(u);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const VertexId w = resolve(nbrs[i], p.owner(nbrs[i]));
        if (static_cast<std::size_t>(w) >= rows) {
          far_arcs.push_back({static_cast<LocalId>(lu),
                              static_cast<std::uint32_t>(adj_.size())});
        }
        adj_.push_back(static_cast<LocalId>(w));
        if (g.has_weights()) weights_.push_back(ws[i]);
      }
      offsets_.push_back(static_cast<std::uint32_t>(adj_.size()));
    }
    require_fits(global_ids_.size(), static_cast<EdgeId>(adj_.size()));
    sort_ghosts(static_cast<VertexId>(rows), far_arcs, p);
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

  for (const VertexId v : global_ids_) {
    marker[static_cast<std::size_t>(v)] = kNoVertex;
  }
  derive(ghost_arcs);
}

void LocalGraph::patch(const Graph& g, const Partition& p,
                       std::span<const VertexId> touched) {
  const VertexId old_local = num_local();
  // Each touched row's new length and sorted boundary ranks.
  std::vector<RowLength> arc_rows;
  std::vector<RowLength> rank_rows;
  std::vector<Rank> ranks;
  arc_rows.reserve(touched.size());
  rank_rows.reserve(touched.size());
  for (const VertexId v : touched) {
    const VertexId lv = find_in_run(0, num_owned_, v);
    PMC_CHECK(lv != kNoVertex,
              "rank " << rank_ << " does not own touched vertex " << v);
    const std::size_t row_ranks = ranks.size();
    for (const VertexId u : g.neighbors(v)) {
      if (p.owner(u) != rank_) ranks.push_back(p.owner(u));
    }
    const auto mine = ranks.begin() + static_cast<std::ptrdiff_t>(row_ranks);
    std::sort(mine, ranks.end());
    ranks.erase(std::unique(mine, ranks.end()), ranks.end());
    arc_rows.push_back({lv, g.degree(v)});
    rank_rows.push_back({lv, static_cast<EdgeId>(ranks.size() - row_ranks)});
  }

  // The untouched rows' arcs into ghosts, from the old incidence: each
  // moves with its block, by the growth of the touched rows before it.
  std::vector<EdgeId> shift_before(arc_rows.size() + 1, 0);
  for (std::size_t i = 0; i < arc_rows.size(); ++i) {
    shift_before[i + 1] = shift_before[i] + arc_rows[i].length -
                          degree(arc_rows[i].row);
  }
  require_fits(global_ids_.size(),
               static_cast<EdgeId>(adj_.size()) + shift_before.back());
  std::vector<IncidentArc> ghost_arcs;
  ghost_arcs.reserve(incidence_.size() + ranks.size());
  for (const IncidentArc& in : incidence_) {
    const auto k = static_cast<std::size_t>(
        std::ranges::lower_bound(arc_rows, in.owned, {}, &RowLength::row) -
        arc_rows.begin());
    if (k < arc_rows.size() && arc_rows[k].row == in.owned) continue;
    ghost_arcs.push_back(
        {in.owned, static_cast<std::uint32_t>(in.arc + shift_before[k])});
  }

  // Splice the touched rows into the owned CSR and the boundary-rank CSR,
  // write them with resolved targets, and add their arcs into ghosts. Each
  // arc to a vertex the rank has not seen gets a candidate ghost of its own.
  if (g.has_weights()) {
    resize_rows(offsets_, arc_rows, adj_, weights_);
  } else {
    resize_rows(offsets_, arc_rows, adj_);
  }
  resize_rows(rank_offsets_, rank_rows, boundary_ranks_);
  auto next_rank = ranks.begin();
  for (std::size_t i = 0; i < touched.size(); ++i) {
    const VertexId lv = arc_rows[i].row;
    const EdgeId begin = offset_begin(lv);
    EdgeId a = begin;
    for (const VertexId u : g.neighbors(touched[i])) {
      VertexId target = kNoVertex;
      if (p.owner(u) == rank_) {
        target = find_in_run(0, num_owned_, u);
        PMC_CHECK(target != kNoVertex, "rank " << rank_ << " owns vertex " << u
                                                << " but did not number it");
      } else {
        target = find_in_run(num_owned_, old_local, u);
        if (target == kNoVertex) {
          target = num_local();
          global_ids_.push_back(u);
        }
        ghost_arcs.push_back(
            {static_cast<LocalId>(lv), static_cast<std::uint32_t>(a)});
      }
      adj_[static_cast<std::size_t>(a)] = static_cast<LocalId>(target);
      ++a;
    }
    if (g.has_weights()) {
      const auto ws = g.weights(touched[i]);
      std::copy(ws.begin(), ws.end(),
                weights_.begin() + static_cast<std::ptrdiff_t>(begin));
    }
    const auto row_ranks = static_cast<std::ptrdiff_t>(rank_rows[i].length);
    std::copy(next_rank, next_rank + row_ranks,
              boundary_ranks_.begin() +
                  static_cast<std::ptrdiff_t>(
                      rank_offsets_[static_cast<std::size_t>(lv)]));
    next_rank += row_ranks;
  }
  require_fits(global_ids_.size(), static_cast<EdgeId>(adj_.size()));
  std::ranges::sort(ghost_arcs, {}, &IncidentArc::arc);
  sort_ghosts(num_owned_, ghost_arcs, p);
  derive(ghost_arcs);
}

void LocalGraph::sort_ghosts(VertexId first, std::span<const IncidentArc> arcs,
                             const Partition& p) {
  // The candidates some arc reaches, ordered by global id, then laid out in
  // that order, with repeats of one id merged, and the arcs pointed at them.
  const auto base = static_cast<std::size_t>(first);
  std::vector<VertexId> renumber(global_ids_.size() - base, kNoVertex);
  for (const IncidentArc& in : arcs) {
    renumber[static_cast<std::size_t>(adj_[static_cast<std::size_t>(in.arc)] -
                                      first)] = first;
  }
  std::vector<std::pair<VertexId, std::size_t>> kept;
  for (std::size_t c = 0; c < renumber.size(); ++c) {
    if (renumber[c] != kNoVertex) kept.emplace_back(global_ids_[base + c], c);
  }
  // A patch's candidates are the old ghosts, already in order, then a few
  // new ones: sort what follows the ordered prefix and merge.
  const auto ordered_end = std::ranges::is_sorted_until(kept);
  std::sort(ordered_end, kept.end());
  std::inplace_merge(kept.begin(), ordered_end, kept.end());
  global_ids_.resize(base);
  ghost_owner_.resize(base - static_cast<std::size_t>(num_owned_));
  for (const auto& [u, c] : kept) {
    if (global_ids_.size() == base || global_ids_.back() != u) {
      global_ids_.push_back(u);
      ghost_owner_.push_back(p.owner(u));
    }
    renumber[c] = static_cast<VertexId>(global_ids_.size()) - 1;
  }
  for (const IncidentArc& in : arcs) {
    LocalId& target = adj_[static_cast<std::size_t>(in.arc)];
    target = static_cast<LocalId>(
        renumber[static_cast<std::size_t>(target - first)]);
  }
}

void LocalGraph::require_fits(std::size_t locals, EdgeId arcs) const {
  PMC_REQUIRE(std::in_range<LocalId>(locals) &&
                  std::in_range<std::uint32_t>(arcs),
              "rank " << rank_ << " holds " << locals << " local ids and "
                      << arcs << " arcs, more than its 32-bit layout indexes");
}

void LocalGraph::derive(std::span<const IncidentArc> ghost_arcs) {
  // Ghost incidence: the arcs into ghosts, counting-sorted by ghost so that
  // each list keeps their order. The offsets count into slot g + 1, turn
  // into starts, serve as cursors (ending at the next list's start) and
  // shift back by one.
  const auto ghost_of = [&](const IncidentArc& in) {
    return static_cast<std::size_t>(adj_[static_cast<std::size_t>(in.arc)] -
                                    num_owned_);
  };
  incidence_offsets_.assign(static_cast<std::size_t>(num_ghosts()) + 1, 0);
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

  neighbor_ranks_.assign(ghost_owner_.begin(), ghost_owner_.end());
  std::sort(neighbor_ranks_.begin(), neighbor_ranks_.end());
  neighbor_ranks_.erase(
      std::unique(neighbor_ranks_.begin(), neighbor_ranks_.end()),
      neighbor_ranks_.end());
}

void require_touched_list(std::span<const VertexId> touched,
                          VertexId num_vertices) {
  VertexId last = -1;
  for (const VertexId v : touched) {
    PMC_REQUIRE(v > last && v < num_vertices,
                "touched list must strictly ascend within [0, "
                    << num_vertices << "): " << v << " after " << last);
    last = v;
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
  require_touched_list(touched, num_global_vertices_);
  // Patch each owner of touched rows with its own, which stay ascending.
  std::vector<VertexId> by_owner(touched.begin(), touched.end());
  std::ranges::stable_sort(by_owner, {},
                           [&](VertexId v) { return p.owner(v); });
  for (auto first = by_owner.begin(); first != by_owner.end();) {
    const Rank r = p.owner(*first);
    const auto last = std::find_if(first, by_owner.end(), [&](VertexId v) {
      return p.owner(v) != r;
    });
    locals_[static_cast<std::size_t>(r)].patch(g, p, std::span(first, last));
    first = last;
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
    // Each run (owned, ghosts with rows, ghosts without) ascends in global
    // order, and the lookup inverts global_id.
    for (VertexId l = 0; l < lg.num_local(); ++l) {
      const bool starts_run =
          l == 0 || l == lg.num_owned() || l == lg.num_rows();
      PMC_CHECK(starts_run || lg.global_id(l - 1) < lg.global_id(l),
                "global ids out of order at rank " << r << " local " << l);
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
          PMC_CHECK(k < want.size() && want[k].owned == lv && want[k].arc == a,
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
