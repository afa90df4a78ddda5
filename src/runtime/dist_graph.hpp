// Distributed view of a partitioned graph: one LocalGraph per rank.
//
// Mirrors the paper's data distribution: "A boundary vertex u is stored on
// its corresponding processor p(u) as well as on every other processor p(v)
// such that (u, v) is a cross edge. On processor p(v) vertex u represents a
// ghost vertex."
//
// Per rank we store:
//   * the owned vertices (local ids [0, num_owned)), with full adjacency in
//     CSR form referring to local ids;
//   * ghost vertices (local ids [num_owned, num_local)) with their global id
//     and owning rank;
//   * each owned vertex's sorted boundary ranks (empty exactly for interior
//     vertices), and the rank-wide sorted list of neighboring ranks;
//   * each ghost's incidence: the owned arcs that reach it, in owned-id then
//     arc order, so news of a ghost (its SUCCEEDED, FAILED or color) goes
//     straight to the owned vertices it concerns.
//
// The halo is how far a rank sees. At halo 1 the ghosts are the owned
// vertices' neighbors and carry no adjacency. At halo 2 the distance-1
// ghosts also carry their rows (local ids [num_owned, num_rows)), whose
// targets add the distance-2 ghosts, and a vertex's boundary ranks are every
// other rank owning a vertex within two hops of it — what a distance-2
// coloring must see and tell.
//
// A rank's ids are dense, and global ids resolve without hashing. Local ids
// form three runs, each in ascending global id: the owned vertices [0,
// num_owned), the ghosts with rows [num_owned, num_rows) and the rest
// [num_rows, num_local); at halo 1 the middle run is empty. local_id() is a
// branch-free binary search of each run of global_id(); owned_id() and
// ghost_id() search only the owned run or only the ghost runs, for callers
// that know which kind an id must be (a record names a ghost or an owned
// vertex of its receiver).
//
// A rank indexes only its own vertices and arcs, so it stores those
// indices in 32 bits: row targets are LocalIds (int32_t), the row,
// boundary-rank and incidence offsets are uint32_t, and an IncidentArc is 8
// bytes. Global ids and weights stay 64-bit. The fill and the patch throw
// pmc::Error naming the rank when its local ids or arcs do not fit
// (require_fits), before any narrowed value is read.
//
// A rank's view is a function of its owned rows alone (and, at halo 2, its
// distance-1 ghosts' rows), so construction is two passes: DistGraph::build
// numbers every rank's owned vertices, then fills each LocalGraph. The fill
// resolves targets through one global-id-indexed marker, shared by every
// rank's fill and left clear by each; an unseen vertex gets a provisional
// ghost id, and one sort per run of ghosts gives their final ids. The fill
// ends in one derivation of the ghost side: incidence and neighbor ranks.
//
// When only some rows of the graph change (service mode's edge-update
// batches), DistGraph::refresh patches the owners of the changed rows in
// place, from those rows alone (a ChangedRows, graph/csr_splice.hpp, as
// DynamicGraph::commit returns them); it never reads the whole graph, and
// serves halo 1. A patch resolves only the changed rows' targets (a vertex
// the rank has not seen gets a candidate id after the old ghosts) and
// splices those rows into the owned and boundary-rank CSRs with
// resize_rows' block moves. The arcs into ghosts come from the old
// incidence for the untouched rows, shifted with their block, and from the
// new contents for the changed rows. The fill's ghost sort over them drops
// the ghosts that no arc reaches, and the fill's derivation closes the
// patch. A stale rank thus costs its changed arcs, cross arcs and ghosts
// plus one move of the arcs behind its first resized row; no per-vertex
// array is allocated, and a batch's incidence is current before any repair
// reads it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/csr_splice.hpp"
#include "partition/partition.hpp"
#include "support/types.hpp"

namespace pmc {

/// One rank's share of a distributed graph.
class LocalGraph {
 public:
  /// A local id as the rank stores it (see the file comment on the 32-bit
  /// layout); kNoVertex is -1 in either width.
  using LocalId = std::int32_t;

  [[nodiscard]] Rank rank() const noexcept { return rank_; }
  /// How many hops this view reaches: 1 or 2 (see the file comment).
  [[nodiscard]] int halo() const noexcept { return halo_; }
  [[nodiscard]] VertexId num_owned() const noexcept { return num_owned_; }
  [[nodiscard]] VertexId num_ghosts() const noexcept {
    return static_cast<VertexId>(global_ids_.size()) - num_owned_;
  }
  [[nodiscard]] VertexId num_local() const noexcept {
    return static_cast<VertexId>(global_ids_.size());
  }
  /// Local ids with adjacency: the owned vertices, then at halo 2 the
  /// distance-1 ghosts.
  [[nodiscard]] VertexId num_rows() const noexcept {
    return static_cast<VertexId>(offsets_.size()) - 1;
  }

  [[nodiscard]] bool is_ghost(VertexId local) const noexcept {
    return local >= num_owned_;
  }

  [[nodiscard]] VertexId global_id(VertexId local) const {
    return global_ids_[static_cast<std::size_t>(local)];
  }

  /// Local id of a global vertex; kNoVertex when not present on this rank.
  [[nodiscard]] VertexId local_id(VertexId global) const noexcept {
    const VertexId local = owned_id(global);
    return local != kNoVertex ? local : ghost_id(global);
  }

  /// Local id of a global vertex this rank owns; kNoVertex otherwise.
  [[nodiscard]] VertexId owned_id(VertexId global) const noexcept {
    return find_in_run(0, num_owned_, global);
  }

  /// The part of `ids` (ascending global ids) between the least and the
  /// greatest owned global id: the only entries owned_id can find. Two
  /// binary searches.
  [[nodiscard]] std::span<const VertexId> within_owned_range(
      std::span<const VertexId> ids) const;

  /// Local id of a global vertex this rank holds as a ghost; kNoVertex
  /// otherwise (an owned vertex included).
  [[nodiscard]] VertexId ghost_id(VertexId global) const noexcept {
    const VertexId rows = num_rows();
    const VertexId local = find_in_run(num_owned_, rows, global);
    return local != kNoVertex ? local : find_in_run(rows, num_local(), global);
  }

  /// Owning rank of a local ghost vertex.
  [[nodiscard]] Rank ghost_owner(VertexId local) const {
    return ghost_owner_[static_cast<std::size_t>(local - num_owned_)];
  }

  /// True iff owned vertex `local` has a vertex of another rank within
  /// halo() hops.
  [[nodiscard]] bool is_boundary(VertexId local) const {
    return rank_offsets_[static_cast<std::size_t>(local) + 1] !=
           rank_offsets_[static_cast<std::size_t>(local)];
  }

  /// Owners of the ghosts within halo() hops of owned vertex `local`
  /// (sorted, unique) — the ranks a boundary update of `local` must reach.
  /// Empty for interior vertices.
  [[nodiscard]] std::span<const Rank> boundary_ranks(VertexId local) const {
    const auto b = static_cast<std::size_t>(rank_offsets_[static_cast<std::size_t>(local)]);
    const auto e = static_cast<std::size_t>(rank_offsets_[static_cast<std::size_t>(local) + 1]);
    return {boundary_ranks_.data() + b, e - b};
  }

  [[nodiscard]] EdgeId degree(VertexId local) const {
    return offsets_[static_cast<std::size_t>(local) + 1] -
           offsets_[static_cast<std::size_t>(local)];
  }

  /// Neighbors (as local ids) of a vertex with a row (local < num_rows()).
  [[nodiscard]] std::span<const LocalId> neighbors(VertexId local) const {
    const auto b = static_cast<std::size_t>(offsets_[static_cast<std::size_t>(local)]);
    const auto e = static_cast<std::size_t>(offsets_[static_cast<std::size_t>(local) + 1]);
    return {adj_.data() + b, e - b};
  }

  /// Edge weights aligned with neighbors(local).
  [[nodiscard]] std::span<const Weight> weights(VertexId local) const {
    const auto b = static_cast<std::size_t>(offsets_[static_cast<std::size_t>(local)]);
    const auto e = static_cast<std::size_t>(offsets_[static_cast<std::size_t>(local) + 1]);
    return {weights_.data() + b, e - b};
  }

  [[nodiscard]] EdgeId offset_begin(VertexId local) const {
    return offsets_[static_cast<std::size_t>(local)];
  }
  [[nodiscard]] EdgeId offset_end(VertexId local) const {
    return offsets_[static_cast<std::size_t>(local) + 1];
  }
  [[nodiscard]] VertexId arc_target(EdgeId e) const {
    return adj_[static_cast<std::size_t>(e)];
  }
  [[nodiscard]] Weight arc_weight(EdgeId e) const {
    return weights_.empty() ? Weight{1} : weights_[static_cast<std::size_t>(e)];
  }
  [[nodiscard]] bool has_weights() const noexcept { return !weights_.empty(); }

  /// Ranks owning at least one ghost (sorted, unique): the union of the
  /// boundary ranks.
  [[nodiscard]] const std::vector<Rank>& neighbor_ranks() const noexcept {
    return neighbor_ranks_;
  }

  /// Number of cross edges incident to this rank's owned vertices (ghost
  /// rows are not counted): the arcs the ghost incidence lists.
  [[nodiscard]] EdgeId num_cross_edges() const noexcept {
    return static_cast<EdgeId>(incidence_.size());
  }

  /// An owned row's arc into a ghost: arc `arc` of owned vertex `owned`.
  struct IncidentArc {
    LocalId owned = -1;
    std::uint32_t arc = 0;
    friend bool operator==(const IncidentArc&, const IncidentArc&) = default;
  };

  /// The owned arcs whose target is ghost `local`, in owned-id then arc
  /// order: whom news of the ghost concerns. Empty for a distance-2 ghost.
  [[nodiscard]] std::span<const IncidentArc> ghost_incidence(
      VertexId local) const {
    const auto g = static_cast<std::size_t>(local - num_owned_);
    const auto b = static_cast<std::size_t>(incidence_offsets_[g]);
    const auto e = static_cast<std::size_t>(incidence_offsets_[g + 1]);
    return {incidence_.data() + b, e - b};
  }

 private:
  friend class DistGraph;

  /// The local id in [first, last), a run of ascending global ids, that
  /// holds `global`; kNoVertex when none does. Branch-free: the loop runs
  /// ceil(log2 n) times whatever the key, and each step is a conditional
  /// move, so lookups in random order cost no mispredictions.
  [[nodiscard]] VertexId find_in_run(VertexId first, VertexId last,
                                     VertexId global) const noexcept {
    if (first == last) return kNoVertex;
    const VertexId* base = global_ids_.data() + first;
    for (auto n = static_cast<std::size_t>(last - first); n > 1;) {
      const std::size_t half = n / 2;
      base = base[half] <= global ? base + half : base;
      n -= half;
    }
    return *base == global ? base - global_ids_.data() : kNoVertex;
  }

  /// Builds everything but the owned ids from this rank's owned rows of `g`
  /// (and its distance-1 ghosts' rows at halo 2): the CSR, ghosts and
  /// boundary ranks, then derive(). `marker` is indexed by global id and all
  /// kNoVertex on entry and on return.
  void fill(const Graph& g, const Partition& p, std::vector<VertexId>& marker);

  /// Brings a halo-1 view up to date with the rows `mine` of `rows` (indices
  /// of this rank's owned rows, ascending), the only ones that changed:
  /// resolves their targets, splices them into the owned and boundary-rank
  /// CSRs, sorts the ghosts over the arcs into them, then derive().
  void patch(const ChangedRows& rows, std::span<const std::size_t> mine,
             const Partition& p);

  /// Numbers the last run of ghosts, the candidates [first, num_local()) in
  /// any order, by ascending global id, and sets their owners from `p`.
  /// `arcs` are every arc whose target is a candidate (only their `arc` is
  /// read); a candidate none of them reaches is dropped, candidates of one
  /// global id merge, and each arc's target becomes its final id.
  void sort_ghosts(VertexId first, std::span<const IncidentArc> arcs,
                   const Partition& p);

  /// Throws pmc::Error naming this rank unless `locals` local ids and
  /// `arcs` arcs fit the 32-bit layout.
  void require_fits(std::size_t locals, EdgeId arcs) const;

  /// Derives the ghost side from the rows and the ghost list: the ghost
  /// incidence from `ghost_arcs` (every owned arc into a ghost, in arc
  /// order) and the neighbor ranks.
  void derive(std::span<const IncidentArc> ghost_arcs);

  Rank rank_ = 0;
  int halo_ = 1;
  VertexId num_owned_ = 0;
  std::vector<VertexId> global_ids_;  // each run ascending
  std::vector<std::uint32_t> offsets_;  // over the rows: [0, num_rows())
  std::vector<LocalId> adj_;            // local ids (owned or ghost)
  std::vector<Weight> weights_;
  std::vector<Rank> ghost_owner_;
  std::vector<std::uint32_t> rank_offsets_;  // CSR over owned vertices
  std::vector<Rank> boundary_ranks_;
  std::vector<Rank> neighbor_ranks_;
  std::vector<std::uint32_t> incidence_offsets_;  // CSR over ghosts
  std::vector<IncidentArc> incidence_;
};

/// Throws pmc::Error unless `touched` strictly ascends within [0,
/// num_vertices), the form of the ids of a ChangedRows (a batch's touched
/// vertices). O(touched).
void require_touched_list(std::span<const VertexId> touched,
                          VertexId num_vertices);

/// The complete distributed graph: all ranks' local views.
class DistGraph {
 public:
  /// Splits `g` according to `p` with every rank seeing `halo` (1 or 2)
  /// hops. The graph and partition must agree on the vertex count.
  static DistGraph build(const Graph& g, const Partition& p, int halo = 1);

  /// Brings a halo-1 distribution up to date with the graph g' that `rows`
  /// lead to, by patching only the ranks that own one of them, in place
  /// (see the file comment). `rows` must be well formed over [0, n): ids
  /// as require_touched_list takes them, offsets ascending from 0 to the
  /// target count, weights aligned with the targets, and each row's targets
  /// strictly ascending within [0, n) without the row's own id; every rank
  /// they patch that holds arcs must hold weights. Anything else throws
  /// before any rank changes. Precondition: g' differs from the graph this
  /// distribution was last built or refreshed from only in the rows of
  /// `rows`, and `p` is the partition it was built with. The precondition
  /// is load-bearing: a patch keeps the rows it holds that are not listed,
  /// so a change elsewhere goes unseen. The result equals build(g', p),
  /// field by field; as in the fill, a rank with no arcs holds no weights.
  void refresh(const ChangedRows& rows, const Partition& p);

  [[nodiscard]] Rank num_ranks() const noexcept {
    return static_cast<Rank>(locals_.size());
  }

  [[nodiscard]] const LocalGraph& local(Rank r) const {
    return locals_[static_cast<std::size_t>(r)];
  }

  [[nodiscard]] VertexId num_global_vertices() const noexcept {
    return num_global_vertices_;
  }

  /// Re-checks the distribution invariants (each run of local ids in
  /// global order, local_id inverting global_id, ghost symmetry, edge
  /// conservation, ownership consistency, boundary flags at the halo, each
  /// ghost's incidence, and at halo 2 the ghost rows) against the original
  /// inputs.
  void validate(const Graph& g, const Partition& p) const;

 private:
  std::vector<LocalGraph> locals_;
  VertexId num_global_vertices_ = 0;
};

}  // namespace pmc
