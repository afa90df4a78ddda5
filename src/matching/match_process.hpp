// The per-rank state machine of the distributed half-approximate matching
// (the paper's §3.2/§3.3 protocol), factored out of matching/parallel.cpp so
// extensions can derive from it.
//
// The base class implements the one-shot protocol exactly: REQUEST /
// SUCCEEDED / FAILED records, staged in one Outbox per rank and sent
// bundled or eager, over the event engine.
// Derived classes (e.g. the service-mode incremental re-matcher) add record
// kinds by overriding handle() around handle_records() and reuse the
// candidate/cascade machinery through the protected surface. The base
// behavior is byte-identical to the pre-refactor implementation — the
// determinism pins in tests/test_determinism_regression.cpp hold across the
// move.
//
// A ghost's death cascades through LocalGraph::ghost_incidence, which the
// distribution builds once: a process builds no per-ghost lists of its own.
//
// Candidates come in the paper's arc order (weight descending, then the
// neighbor's global id ascending) without sorting any row: a recompute
// finds the row's best live arc by a scan and counts the arcs that beat
// it, which are dead, since death is permanent within a match phase. ptr_
// counts them, so each recompute charges one unit per arc a walk of the
// sorted row would have skipped. A scan costs deg(v) per recompute: a row
// whose neighbors die in its own order pays deg(v)^2 (DESIGN.md §3c).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "matching/parallel.hpp"
#include "runtime/dist_graph.hpp"
#include "runtime/event_engine.hpp"
#include "runtime/fabric.hpp"
#include "runtime/serialize.hpp"

namespace pmc {

/// One rank's matching state machine (see matching/parallel.hpp for the
/// protocol description).
class MatchProcess : public Process {
 public:
  MatchProcess(const LocalGraph& lg, const DistMatchingOptions& options);

  void start(EventContext& ctx) override;
  void handle(EventContext& ctx, Rank src,
              std::span<const std::byte> payload) override;
  [[nodiscard]] bool done() const override;
  [[nodiscard]] std::string debug_state() const override;

  /// Extracts the rank's matched pairs as (owned global id, mate global id).
  void collect(std::vector<VertexId>& global_mate) const;

  [[nodiscard]] int activations() const noexcept { return activations_; }

  // ---- wire records (paper §3.2) ------------------------------------------

  /// REQUEST: `from` (a ghost of the receiver) prefers the receiver's `to`.
  struct Request {
    static constexpr std::uint8_t kTag = 1;
    VertexId from = kNoVertex;
    VertexId to = kNoVertex;
    static constexpr std::tuple kFields{IdField{&Request::from},
                                        RelIdField{&Request::to}};
  };
  /// SUCCEEDED: `vertex` matched `mate`.
  struct Succeeded {
    static constexpr std::uint8_t kTag = 2;
    VertexId vertex = kNoVertex;
    VertexId mate = kNoVertex;
    static constexpr std::tuple kFields{IdField{&Succeeded::vertex},
                                        RelIdField{&Succeeded::mate}};
  };
  /// FAILED: `vertex` has no live neighbor left.
  struct Failed {
    static constexpr std::uint8_t kTag = 3;
    VertexId vertex = kNoVertex;
    static constexpr std::tuple kFields{IdField{&Failed::vertex}};
  };

 protected:
  enum class VState : std::uint8_t {
    kUndecided = 0,
    kMatched = 1,
    kFailed = 2,
    /// Decided by a previous matching that a service repair has not
    /// invalidated: matched or failed as that matching says, which the
    /// repair reads only when it needs to (IncrementalMatchProcess).
    kFrozen = 3
  };

  /// A local id (owned or ghost) as the per-vertex arrays hold it, in the
  /// distribution's width; the distribution checks that every local id fits.
  [[nodiscard]] static constexpr LocalGraph::LocalId narrow(
      VertexId local) noexcept {
    return static_cast<LocalGraph::LocalId>(local);
  }

  /// One activation: decodes the payload's records of kinds R..., and for
  /// each charges one unit, calls on_record(record), then drains the
  /// cascades it queued; finally flushes the outgoing records.
  template <typename... R, typename Fn>
  void handle_records(EventContext& ctx, std::span<const std::byte> payload,
                      Fn&& on_record) {
    ++activations_;
    // Trace attribution: this rank's sends now belong to its activation
    // depth (the matching analogue of a round), and record handling plus
    // the cascades it triggers count as boundary work.
    ctx.set_round(activations_);
    ctx.set_phase(WorkPhase::kBoundary);
    for_each_record<R...>(payload, [&](const auto& record) {
      ctx.charge(1.0);
      on_record(record);
      process_pending(ctx);
    });
    flush(ctx);
  }

  // ---- candidate maintenance ---------------------------------------------

  [[nodiscard]] bool target_dead(VertexId t) const;
  void recompute_candidate(EventContext& ctx, VertexId v);

  // ---- state transitions --------------------------------------------------

  void fail_vertex(EventContext& ctx, VertexId v);
  void match_local(EventContext& ctx, VertexId a, VertexId b);
  void match_cross(EventContext& ctx, VertexId v, VertexId ghost);
  /// Sends `record` (x's SUCCEEDED or FAILED) to every rank holding a live
  /// ghost of x except `exclude_rank`, and queues x's waiting neighbors.
  template <typename R>
  void notify_decided(EventContext& ctx, VertexId x, const R& record,
                      Rank exclude_rank);
  void ghost_died(VertexId ghost, VertexId skip);
  void process_pending(EventContext& ctx);

  // ---- message handling ---------------------------------------------------

  void on_record(EventContext& ctx, const Request& request);
  void on_record(EventContext& ctx, const Succeeded& succeeded);
  void on_record(EventContext& ctx, const Failed& failed);
  [[nodiscard]] EdgeId find_arc(VertexId v, VertexId t) const;

  // ---- outgoing records ---------------------------------------------------

  /// Forwards a flushed frame to ctx.send.
  [[nodiscard]] static auto sender(EventContext& ctx) {
    return [&ctx](Rank d, std::vector<std::byte> payload,
                  std::int64_t records) {
      ctx.send(d, std::move(payload), records);
    };
  }
  /// Stages `record` in dst's slot of the outbox. In eager mode (the
  /// unbundled ablation) the slot is sent at once: one single-record frame.
  template <typename R>
  void enqueue_record(EventContext& ctx, Rank dst, const R& record) {
    out_.slot(dst).put(record);
    if (!bundled_) out_.flush_first_touched(sender(ctx));
  }
  /// Sends every staged record, one frame per destination in ascending
  /// rank order (the paper's §3.3 bundling: one message per neighbour rank
  /// per activation). Nothing is staged in eager mode.
  void flush(EventContext& ctx) { out_.flush_ascending(sender(ctx)); }

  /// Charges deg(v): the paper's pass that orders v's arcs before its first
  /// proposal. recompute_candidate produces the order itself.
  void charge_row(EventContext& ctx, VertexId v) {
    ctx.charge(static_cast<double>(lg_.offset_end(v) - lg_.offset_begin(v)));
  }

  /// Whether arc a comes before arc c in the paper's order: weight
  /// descending, then the neighbor's global id ascending.
  [[nodiscard]] bool precedes(EdgeId a, EdgeId c) const {
    const Weight wa = lg_.arc_weight(a);
    const Weight wc = lg_.arc_weight(c);
    if (wa != wc) return wa > wc;
    return lg_.global_id(lg_.arc_target(a)) < lg_.global_id(lg_.arc_target(c));
  }

  /// Row v's best live arc, found by a scan, with ptr_ moved past the arcs
  /// before it and one unit charged per arc passed; -1 (ptr_ at the row's
  /// end) when every arc is dead.
  [[nodiscard]] EdgeId scan_row(EventContext& ctx, VertexId v);

  const LocalGraph& lg_;
  bool bundled_;
  Outbox out_;
  std::vector<VState> state_;
  std::vector<LocalGraph::LocalId> mate_;
  /// An undecided vertex's candidate; kNoVertex until its first recompute.
  std::vector<LocalGraph::LocalId> cand_;
  /// How many arcs of the row come before the current candidate in the
  /// paper's order; all of them are dead.
  std::vector<std::uint32_t> ptr_;
  std::vector<bool> ghost_dead_;
  std::vector<bool> arc_requested_;
  /// Owned vertices whose candidate may have died, in FIFO order.
  std::vector<LocalGraph::LocalId> pending_;
  std::vector<Rank> scratch_ranks_;
  VertexId undecided_ = 0;
  int activations_ = 0;
};

}  // namespace pmc
