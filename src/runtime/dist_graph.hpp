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
//   * the interior/boundary classification of owned vertices, each boundary
//     vertex's sorted boundary ranks, and the rank-wide sorted list of
//     neighboring ranks;
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
// A rank's ids are dense, and global ids resolve without hashing. Owned
// vertices are numbered in global-id order, so global_id() over [0,
// num_owned) ascends; ghosts are numbered in order of first sight and carry
// a second, sorted index of their global ids. local_id() is a branch-free
// binary search of each.
//
// A rank's view is a function of its owned rows alone (and, at halo 2, its
// distance-1 ghosts' rows), so construction is two passes: DistGraph::build
// numbers every rank's owned vertices, then fills each LocalGraph. The fill
// resolves targets through one global-id-indexed marker, shared by every
// rank's fill and left clear by each. When only some rows of the graph
// change (service mode's edge-update batches), DistGraph::refresh re-runs
// that same fill for the owners of the changed rows only; it serves halo 1.
// A refresh pays for its marker (one entry per global vertex) and one fill
// per stale rank, so a batch's incidence is current before any repair
// reads it.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "graph/csr_graph.hpp"
#include "partition/partition.hpp"
#include "support/types.hpp"

namespace pmc {

/// One rank's share of a distributed graph.
class LocalGraph {
 public:
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
    const std::span<const VertexId> owned(
        global_ids_.data(), static_cast<std::size_t>(num_owned_));
    if (const std::ptrdiff_t i = find_sorted(owned, global); i >= 0) {
      return static_cast<VertexId>(i);
    }
    const std::ptrdiff_t i = find_sorted(ghost_keys_, global);
    return i >= 0 ? ghost_locals_[static_cast<std::size_t>(i)] : kNoVertex;
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
  [[nodiscard]] std::span<const VertexId> neighbors(VertexId local) const {
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

  /// Owned boundary vertices, in local-id order.
  [[nodiscard]] const std::vector<VertexId>& boundary_vertices() const noexcept {
    return boundary_;
  }

  /// Number of cross edges incident to this rank's owned vertices (ghost
  /// rows are not counted).
  [[nodiscard]] EdgeId num_cross_edges() const noexcept { return cross_edges_; }

  /// An owned row's arc into a ghost: arc `arc` of owned vertex `owned`.
  struct IncidentArc {
    VertexId owned = kNoVertex;
    EdgeId arc = 0;
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

  /// Position of `key` in the ascending `keys`, or -1. Branch-free: the
  /// loop runs ceil(log2 n) times whatever the key, and each step is a
  /// conditional move, so lookups in random order cost no mispredictions.
  [[nodiscard]] static std::ptrdiff_t find_sorted(
      std::span<const VertexId> keys, VertexId key) noexcept {
    if (keys.empty()) return -1;
    const VertexId* base = keys.data();
    for (std::size_t n = keys.size(); n > 1;) {
      const std::size_t half = n / 2;
      base = base[half] <= key ? base + half : base;
      n -= half;
    }
    return *base == key ? base - keys.data() : -1;
  }

  /// (Re)builds everything but the owned ids from this rank's owned rows
  /// of `g` (and its distance-1 ghosts' rows at halo 2): drops the previous
  /// ghosts, then rebuilds the CSR, ghosts, ghost index, ghost incidence,
  /// boundary ranks and derived lists. `marker` is indexed by global id and
  /// all kNoVertex on entry and on return.
  void fill(const Graph& g, const Partition& p, std::vector<VertexId>& marker);

  Rank rank_ = 0;
  int halo_ = 1;
  VertexId num_owned_ = 0;
  std::vector<VertexId> global_ids_;
  std::vector<VertexId> ghost_keys_;    // ghost global ids, ascending
  std::vector<VertexId> ghost_locals_;  // their local ids, aligned
  std::vector<EdgeId> offsets_;   // over the rows: [0, num_rows())
  std::vector<VertexId> adj_;     // local ids (owned or ghost)
  std::vector<Weight> weights_;
  std::vector<Rank> ghost_owner_;
  std::vector<std::uint32_t> rank_offsets_;  // CSR over owned vertices
  std::vector<Rank> boundary_ranks_;
  std::vector<Rank> neighbor_ranks_;
  std::vector<VertexId> boundary_;
  std::vector<std::uint32_t> incidence_offsets_;  // CSR over ghosts
  std::vector<IncidentArc> incidence_;
  EdgeId cross_edges_ = 0;
};

/// The complete distributed graph: all ranks' local views.
class DistGraph {
 public:
  /// Splits `g` according to `p` with every rank seeing `halo` (1 or 2)
  /// hops. The graph and partition must agree on the vertex count.
  static DistGraph build(const Graph& g, const Partition& p, int halo = 1);

  /// Brings a halo-1 distribution up to date with `g` by re-filling only
  /// the ranks that own a vertex of `touched`. Precondition: `g` differs
  /// from the graph this distribution was last built or refreshed from only
  /// in the rows of `touched`, and `p` is the partition it was built with.
  /// The result equals build(g, p).
  void refresh(const Graph& g, const Partition& p,
               std::span<const VertexId> touched);

  [[nodiscard]] Rank num_ranks() const noexcept {
    return static_cast<Rank>(locals_.size());
  }

  [[nodiscard]] const LocalGraph& local(Rank r) const {
    return locals_[static_cast<std::size_t>(r)];
  }

  [[nodiscard]] VertexId num_global_vertices() const noexcept {
    return num_global_vertices_;
  }

  /// Re-checks the distribution invariants (owned ids in global order,
  /// local_id inverting global_id, ghost symmetry, edge conservation,
  /// ownership consistency, boundary flags at the halo, each ghost's
  /// incidence, and at halo 2 the ghost rows) against the original inputs.
  void validate(const Graph& g, const Partition& p) const;

 private:
  std::vector<LocalGraph> locals_;
  VertexId num_global_vertices_ = 0;
};

}  // namespace pmc
