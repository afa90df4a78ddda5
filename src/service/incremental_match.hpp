// Incremental re-matching after a batch of edge updates (service mode).
//
// The locally-dominant half-approximate matching is the unique fixed point
// of the paper's §3 protocol under the deterministic tie-breaking (weight
// descending, then smaller neighbor id), so it can be repaired instead of
// recomputed: only the part of the old matching whose support changed needs
// to be re-negotiated, and the result is byte-identical to a full recompute
// on the new graph.
//
// The repair runs as a two-phase protocol on the same event engine as the
// one-shot matching (all traffic is ordinary fabric messages: alpha-beta
// costed, bundled, fault-injectable):
//
//   Phase 1 (closure). Seed the endpoints of every updated edge as
//   *invalidated*, then close under three monotone rules:
//     (a) dissolution — the mate of an invalidated matched vertex is
//         invalidated (a matching cannot keep half a pair);
//     (b) failed revival — a FAILED vertex adjacent to an invalidated
//         vertex is invalidated (its "all neighbors dead" conclusion may
//         no longer hold);
//     (c) preference — a matched vertex that prefers an invalidated
//         neighbor over its current mate (by the protocol's tie-break
//         order) is invalidated (its pair may not be locally dominant in
//         the new graph).
//   Cross-rank propagation uses a new INVALIDATE record: every rank holding
//   a ghost copy of an invalidated vertex revives that ghost (all ghosts
//   start dead — the previous matching decided everything) and applies the
//   same rules to the ghost's incident owned vertices. The closure is a
//   monotone fixed point, so it is independent of message arrival order.
//
//   Phase 2 (re-match). At global quiescence the engine's idle fan-out
//   flips every rank into the ordinary §3.2 protocol restricted to the
//   invalidated region: frozen vertices and non-revived ghosts are dead,
//   invalidated vertices order their arcs again (the graph changed under
//   them) and re-enter candidate selection. The frozen part of the old
//   matching plus the re-negotiated part equals the full matching of the
//   new graph.
//
// A rank pays for what it repairs. It builds its per-vertex arrays only
// when the repair first reaches it: an owned seed in start(), or any
// record; a rank the closure never reaches allocates nothing and only
// flips phase at idle(). start() looks up only the touched ids within the
// rank's owned global-id range. Reaching a rank marks all its owned
// vertices frozen at once; a frozen vertex's previous mate (none when it
// failed) is read and resolved to a local id only when the closure first
// needs it. A ghost's incident owned arcs come from the LocalGraph; the
// re-match phase walks only the invalidated vertices, in local-id order.
// The result is the previous matching, updated in place: each rank
// overwrites only its invalidated vertices, since rule (a) invalidates both
// ends of every pair it dissolves, on either rank, so every frozen vertex's
// previous mate is still its mate.
#pragma once

#include <deque>
#include <span>
#include <tuple>
#include <vector>

#include "matching/match_process.hpp"
#include "matching/parallel.hpp"

namespace pmc {

/// Result of an incremental re-matching run.
struct IncrementalMatchResult {
  Matching matching;  ///< Matching of the *new* graph (== full recompute).
  RunResult run;      ///< Modelled time + communication statistics.
  int max_activations = 0;
  /// Vertices invalidated by the closure (re-negotiated), summed over ranks.
  VertexId invalidated = 0;
  /// Their global ids, rank by rank: the only vertices whose mate can
  /// differ from the previous matching's.
  std::vector<VertexId> invalidated_ids;
  /// Ranks the repair reached, which built repair state.
  Rank ranks_reached = 0;
};

/// Repairs `previous` (the matching of the pre-update graph) into the
/// matching of `dist` (the distribution of the *post-update* graph), in
/// place: pass it by move to copy nothing. `touched` lists the global
/// endpoints of the batch's updates, strictly ascending (the ids of the
/// batch's DynamicGraph::commit()); any other list throws pmc::Error. The
/// result is byte-identical to match_distributed(dist, options).matching.
[[nodiscard]] IncrementalMatchResult match_incremental(
    const DistGraph& dist, Matching previous,
    const std::vector<VertexId>& touched,
    const DistMatchingOptions& options = {});

/// One rank's two-phase repair state machine (see file comment).
class IncrementalMatchProcess : public MatchProcess {
 public:
  /// `prev_mate` is the previous global mate array (kNoVertex = unmatched);
  /// `touched` the batch's seed vertices (global ids). Both must outlive the
  /// process.
  IncrementalMatchProcess(const LocalGraph& lg,
                          const DistMatchingOptions& options,
                          const std::vector<VertexId>& prev_mate,
                          const std::vector<VertexId>& touched);

  void start(EventContext& ctx) override;
  void handle(EventContext& ctx, Rank src,
              std::span<const std::byte> payload) override;
  void idle(EventContext& ctx) override;
  [[nodiscard]] bool done() const override;
  [[nodiscard]] std::string debug_state() const override;

  /// Writes the invalidated vertices' repaired mates into `global_mate`,
  /// which holds the previous matching (frozen entries are already right),
  /// and appends their global ids to `ids`.
  void collect(std::vector<VertexId>& global_mate,
               std::vector<VertexId>& ids) const;

  /// Whether the repair reached this rank (see reach()).
  [[nodiscard]] bool reached() const noexcept { return reached_; }

  /// INVALIDATE: the closure phase's cross-rank record — `vertex` was
  /// invalidated, so its ghost copies revive (REQUEST/SUCCEEDED/FAILED keep
  /// their base meaning in the re-match phase).
  struct Invalidate {
    static constexpr std::uint8_t kTag = 4;
    VertexId vertex = kNoVertex;
    static constexpr std::tuple kFields{IdField{&Invalidate::vertex}};
  };

 protected:
  enum class Phase : std::uint8_t { kClosure, kMatch };

  /// mate_ of a frozen vertex until frozen_mate() reads it.
  static constexpr VertexId kUnresolved = kNoVertex - 1;
  static_assert(narrow(kUnresolved) == kUnresolved,
                "kUnresolved must survive the 32-bit mate_ as itself");

  /// Sizes the per-vertex arrays and marks every owned vertex frozen,
  /// once: the first time the repair reaches this rank.
  void reach();

  /// Local id of frozen vertex v's previous mate (kNoVertex when v failed,
  /// or when the mate is no longer on this rank), read from the previous
  /// matching on first use.
  [[nodiscard]] VertexId frozen_mate(VertexId v);

  /// Marks owned vertex v invalidated: dissolves its pair, announces the
  /// revival to every rank holding a ghost copy, and queues the closure
  /// checks for its local neighbors. No-op unless v is frozen.
  void invalidate(EventContext& ctx, VertexId v);
  /// True iff the closure rules pull owned vertex u in, given that its
  /// neighbor `cause` (weight w_uc on their shared edge) was just
  /// invalidated.
  [[nodiscard]] bool closure_pulls(VertexId u, VertexId cause, Weight w_uc);
  /// Drains the closure worklist (invalidate() feeds it).
  void drain_closure(EventContext& ctx);
  void handle_invalidate(EventContext& ctx, VertexId v_global);

  const std::vector<VertexId>& prev_mate_;
  const std::vector<VertexId>& touched_;
  Phase phase_ = Phase::kClosure;
  bool reached_ = false;
  std::vector<VertexId> invalidated_ids_;  // sorted by idle()
  std::deque<VertexId> closure_queue_;
};

}  // namespace pmc
