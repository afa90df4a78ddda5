// Dynamic-graph update streams for service mode.
//
// Service mode (DESIGN.md §8) keeps a graph alive across a stream of edge
// updates and incrementally repairs the matching and coloring after every
// batch. This header provides the three stream-side pieces:
//
//   * EdgeUpdate / UpdateOp — one insert / delete / reweight operation;
//   * DynamicGraph — a CSR pmc::Graph plus the rows changed since the last
//     fold: it applies updates to private copies of the touched rows,
//     commit() ends a batch and hands its rows out as a ChangedRows, and the
//     committed rows are spliced into the CSR's own arrays only when the CSR
//     is read (folded()) or they hold as many arcs as it does;
//   * UpdateStreamGenerator — a seeded, replayable random stream of valid
//     updates against the evolving graph;
//   * JSONL serialization — write_update_log / read_update_log, so a stream
//     can be captured once and replayed bit-identically (mtx_tool
//     --update-log / --update-replay).
//
// Every generated stream is deterministic given its seed, and a written log
// round-trips exactly (weights are printed with 17 significant digits).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/csr_splice.hpp"
#include "graph/generators.hpp"
#include "support/rng.hpp"
#include "support/types.hpp"

namespace pmc {

/// Kind of one edge update.
enum class UpdateOp : std::uint8_t {
  kInsert = 1,    ///< Add edge (u, v) with weight w; (u, v) must be absent.
  kDelete = 2,    ///< Remove edge (u, v); it must be present.
  kReweight = 3,  ///< Set the weight of existing edge (u, v) to w.
};

[[nodiscard]] const char* to_string(UpdateOp op);

/// One edge update. Endpoints are stored normalized (u < v).
struct EdgeUpdate {
  UpdateOp op = UpdateOp::kInsert;
  VertexId u = kNoVertex;
  VertexId v = kNoVertex;
  Weight w = Weight{1};  ///< Ignored for kDelete.

  [[nodiscard]] bool operator==(const EdgeUpdate&) const = default;
};

/// A mutable undirected weighted graph over a fixed vertex set: a CSR
/// Graph plus the rows changed since it was last folded. apply() edits a
/// private, sorted copy of each endpoint's row, made on the row's first
/// touch in a batch. commit() ends the batch: it returns the batch's rows
/// as a ChangedRows and keeps them as committed rows, leaving the CSR as it
/// is. A fold resizes the committed rows in the CSR's own arrays
/// (resize_rows, graph/csr_splice.hpp), which moves the untouched rows
/// between two changed rows as one block, and writes the changed rows
/// between the blocks. It runs only when folded() reads the CSR, or when
/// commit() finds that the committed rows hold as many arcs as the CSR, so
/// a batch costs its own rows, and a fold's block moves are shared by every
/// batch since the last one. Edges are never sorted.
/// Weights are always stored: an unweighted initial graph gets unit weights.
class DynamicGraph {
 public:
  explicit DynamicGraph(const Graph& initial);

  [[nodiscard]] VertexId num_vertices() const noexcept {
    return graph_.num_vertices();
  }
  [[nodiscard]] EdgeId num_edges() const noexcept { return m_; }
  [[nodiscard]] bool has_edge(VertexId u, VertexId v) const;
  /// Weight of existing edge (u, v); throws if absent.
  [[nodiscard]] Weight edge_weight(VertexId u, VertexId v) const;

  /// Applies one update; throws pmc::Error when the update is invalid
  /// against the current edge set (inserting a present edge, deleting or
  /// reweighting an absent one, self-loop, out-of-range endpoint) or
  /// inserts or reweights with a NaN or infinite weight. A rejected update
  /// changes nothing.
  void apply(const EdgeUpdate& update);

  /// Ends a batch: returns the current rows of the vertices the updates
  /// applied since the last commit touched (both endpoints of each), and
  /// commits them. The CSR's arrays do not change, unless the committed rows
  /// now hold at least as many arcs as the CSR; then they are folded.
  [[nodiscard]] ChangedRows commit();

  /// Commits, then folds every committed row into the CSR in place, and
  /// returns the CSR. Its contents, and its arrays when a fold adds arcs,
  /// change at the next fold.
  const Graph& snapshot();

  /// The graph of every committed update (before the first commit, the
  /// initial graph with unit weights if it had none); updates applied
  /// since the last commit are not in it. It folds the committed rows into
  /// the CSR first, which changes how the graph is stored, not which graph
  /// it is. Not to be called concurrently with any other member.
  [[nodiscard]] const Graph& folded() const;

 private:
  /// Current adjacency of a row changed since the last fold, sorted by
  /// neighbor.
  using Row = std::vector<std::pair<VertexId, Weight>>;

  void require_valid_endpoints(const EdgeUpdate& update) const;
  /// The current row of v when it changed since the last fold (the batch's
  /// copy, else the committed one); nullptr when the CSR holds it.
  [[nodiscard]] const Row* changed_row(VertexId v) const;
  /// Weight of edge (u, v) in the current edge set, or nullopt if absent.
  [[nodiscard]] std::optional<Weight> find_edge(VertexId u, VertexId v) const;
  /// Applies `update`'s change to the row of `a` (whose other endpoint is
  /// `b`), copying the row on its first touch in the batch.
  void edit_row(VertexId a, VertexId b, const EdgeUpdate& update);
  /// Splices the committed rows into the CSR's arrays in place.
  void fold() const;

  // The CSR and the committed rows not yet folded into it change together,
  // on a fold, which a const read of the graph may run (folded()).
  mutable Graph graph_;
  mutable std::map<VertexId, Row> committed_;
  mutable EdgeId committed_arcs_ = 0;  // over committed_'s rows
  EdgeId m_ = 0;
  std::map<VertexId, Row> pending_;  // rows touched since the last commit
};

/// Configuration of the random update stream.
struct UpdateStreamConfig {
  /// Operation mix; the remainder (1 - insert - remove) is reweights.
  double insert_fraction = 0.4;
  double delete_fraction = 0.3;
  /// Weight distribution for inserted / reweighted edges.
  WeightKind weights = WeightKind::kUniformRandom;
  std::uint64_t seed = 0;
};

/// Seeded generator of valid update streams against an evolving graph.
///
/// The generator keeps its own edge-set mirror (it does not mutate the
/// DynamicGraph a service holds), so the produced stream is a pure function
/// of (initial graph, config). Operations that are impossible in the current
/// state degrade deterministically: delete/reweight on an edgeless graph
/// becomes an insert, insert into a complete graph becomes a delete.
class UpdateStreamGenerator {
 public:
  UpdateStreamGenerator(const Graph& initial, UpdateStreamConfig config);

  /// Produces the next update (already applied to the internal mirror).
  [[nodiscard]] EdgeUpdate next();

  /// Produces the next `count` updates.
  [[nodiscard]] std::vector<EdgeUpdate> next_batch(std::int64_t count);

 private:
  [[nodiscard]] EdgeUpdate make_insert();
  [[nodiscard]] EdgeUpdate make_delete();
  [[nodiscard]] EdgeUpdate make_reweight();
  [[nodiscard]] Weight draw_weight();
  void apply_to_mirror(const EdgeUpdate& update);

  using Edge = std::pair<VertexId, VertexId>;
  /// The slot of `slots_` that holds `key`'s position in edges_, or the
  /// free slot where it would go.
  [[nodiscard]] std::size_t slot_of(const Edge& key) const;
  [[nodiscard]] bool contains(VertexId u, VertexId v) const;
  /// Refills `slots_` from edges_, with at least twice as many slots as
  /// edges.
  void reindex();
  /// Frees slot `hole`, shifting back the entries probed past it.
  void unindex(std::size_t hole);

  UpdateStreamConfig config_;
  Rng rng_;
  VertexId n_;
  /// Present edges as normalized (u, v) pairs, for O(1) uniform sampling
  /// and swap-pop removal.
  std::vector<Edge> edges_;
  /// Open-addressing index of edges_: a power-of-two table of positions in
  /// edges_, at most half full, probed linearly from a hash of the edge.
  /// It is only probed, never iterated, so its layout reaches no output.
  std::vector<std::size_t> slots_;
};

/// Writes one update per line as JSON ({"op":"insert","u":1,"v":2,"w":0.5});
/// weights carry 17 significant digits so the log replays bit-identically.
void write_update_log(std::ostream& out, const std::vector<EdgeUpdate>& updates);
void write_update_log(const std::string& path,
                      const std::vector<EdgeUpdate>& updates);

/// Reads a JSONL update log written by write_update_log. Throws pmc::Error
/// naming the line on a malformed one (strict field set, no trailing
/// garbage, numbers as parse_number reads them with no leading '+').
[[nodiscard]] std::vector<EdgeUpdate> read_update_log(std::istream& in);
[[nodiscard]] std::vector<EdgeUpdate> read_update_log(const std::string& path);

}  // namespace pmc
