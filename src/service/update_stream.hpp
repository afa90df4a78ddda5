// Dynamic-graph update streams for service mode.
//
// Service mode (DESIGN.md §8) keeps a graph alive across a stream of edge
// updates and incrementally repairs the matching and coloring after every
// batch. This header provides the three stream-side pieces:
//
//   * EdgeUpdate / UpdateOp — one insert / delete / reweight operation;
//   * DynamicGraph — a CSR pmc::Graph plus the rows touched since the last
//     fold: it applies updates to private copies of the touched rows and
//     snapshot() splices them back into the CSR's own arrays in place;
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
/// Graph plus the rows touched since the last fold. apply() edits a private,
/// sorted copy of each endpoint's row; snapshot() resizes those rows in the
/// CSR's own arrays (resize_rows, graph/csr_splice.hpp), which moves the
/// untouched rows between two touched rows as one block, and writes the
/// touched rows between the blocks. A batch therefore costs one
/// ordered-map entry per touched row and moves only the arcs and offsets
/// of blocks whose shift is not zero; nothing is copied out of the CSR,
/// and edges are never sorted.
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

  /// Folds the rows touched since the last fold into the CSR in place and
  /// returns the CSR. Its contents, and its arrays when a batch adds arcs,
  /// change at the next snapshot() with rows to fold.
  const Graph& snapshot();

  /// The CSR as of the last snapshot() (before the first, the initial
  /// graph with unit weights if it had none); updates applied since then
  /// are pending.
  [[nodiscard]] const Graph& folded() const noexcept { return graph_; }

 private:
  /// Current adjacency of a row touched since the last fold, sorted by
  /// neighbor.
  using Row = std::vector<std::pair<VertexId, Weight>>;

  void require_valid_endpoints(const EdgeUpdate& update) const;
  /// Weight of edge (u, v) in the current edge set, or nullopt if absent.
  [[nodiscard]] std::optional<Weight> find_edge(VertexId u, VertexId v) const;
  /// Applies `update`'s change to the row of `a` (whose other endpoint is
  /// `b`), copying the row out of the CSR on its first touch.
  void edit_row(VertexId a, VertexId b, const EdgeUpdate& update);

  Graph graph_;
  EdgeId m_ = 0;
  std::map<VertexId, Row> pending_;  // rows touched, by vertex
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
