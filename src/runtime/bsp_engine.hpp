// Superstep-structured simulated runtime — the stand-in for the BSP-flavored
// communication pattern of the parallel coloring framework.
//
// Unlike EventEngine (fully asynchronous, message-driven), BspEngine is
// driven *by* the algorithm: the driver runs per-rank phases (run_ranks,
// run_ranks_snapshot) whose callbacks charge work and send messages through
// a RankCtx. Clocks, per-channel FIFO ordering, alpha-beta costs and
// accounting live in the shared CommFabric (runtime/fabric.hpp); the engine
// owns only the per-rank inboxes and the superstep receive primitives that
// mirror the paper's sync/async modes:
//
//   * ctx.poll()  — deliver only messages whose modelled arrival time is
//                   <= the rank's clock (asynchronous supersteps: a rank
//                   proceeds with whatever color information has arrived);
//   * exchange()  — barrier(), i.e. advance every rank to the global
//                   completion time of all in-flight messages ("wait until
//                   all incoming messages are successfully received"), then
//                   hand every rank its whole inbox. It is the only way to
//                   drain an inbox, so a drain always follows a barrier.
//
// A bare barrier() also models the collective (allreduce) termination check
// at the end of each coloring round.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <vector>

#include "runtime/comm_stats.hpp"
#include "runtime/exec/backend.hpp"
#include "runtime/fabric.hpp"
#include "runtime/machine_model.hpp"
#include "support/types.hpp"

namespace pmc {

/// One delivered BSP message.
struct BspMessage {
  Rank src = kNoRank;
  double arrival = 0.0;
  /// Algorithm-level record count carried by the frame. Receive-side work
  /// charges scale with this, not with payload.size(): encoded bytes vary
  /// with the wire codec, while the records a rank must apply do not.
  std::int64_t records = 0;
  std::vector<std::byte> payload;
};

/// Simulated BSP communication layer over `num_ranks` virtual processors.
class BspEngine {
 public:
  /// When config.fault is enabled, a send's receipt reports drops and
  /// duplicates: a dropped message is never delivered (the *algorithm*
  /// recovers — e.g. the coloring re-enters affected vertices into conflict
  /// repair), a duplicated copy is filtered at the receiver (counted as
  /// suppressed) so a straggler cannot carry stale state into a later
  /// superstep.
  ///
  /// `exec` selects the execution backend for the rank phases: with
  /// exec.threads > 1 their callbacks run on a work-stealing pool, with
  /// exec.threads == 1 inline — bit-identically either way.
  BspEngine(Rank num_ranks, MachineModel model, FabricConfig config = {},
            ExecConfig exec = {});

  [[nodiscard]] Rank num_ranks() const noexcept { return fabric_.num_ranks(); }

  /// Whether the fabric injects faults (drives the algorithms' recovery
  /// paths).
  [[nodiscard]] bool faults_enabled() const noexcept {
    return fabric_.config().fault.enabled();
  }

  /// Latest modelled arrival among all pending (undelivered) messages, or
  /// 0.0 with nothing in flight. O(P): inboxes are sorted by arrival, so
  /// each contributes its back() in O(1) — no per-message rescans.
  [[nodiscard]] double pending_horizon() const;

  /// Global synchronization: every rank's clock advances to the maximum of
  /// all clocks and all in-flight arrivals, plus the collective cost. Also
  /// models an allreduce (the "any rank still has work" check).
  void barrier();

  // ---- per-rank execution ---------------------------------------------------

  /// Callback for RankCtx::send: invoked once the send's receipt is known,
  /// at the rank-ordered merge. The payload span is only valid during the
  /// call.
  using ReceiptFn = std::function<void(const CommFabric::SendReceipt&,
                                       std::span<const std::byte>)>;

  /// A rank's handle inside a rank phase. Charges go to a private fabric
  /// lane and sends are recorded with their lane send time, then replayed
  /// through the fabric in rank order at the merge — so the schedule is the
  /// same at every thread count (see CommFabric::Lane).
  class RankCtx {
   public:
    [[nodiscard]] Rank rank() const noexcept { return rank_; }

    void charge(double work_units);
    void charge(double work_units, WorkPhase phase);

    void send(Rank dst, std::vector<std::byte> payload, std::int64_t records);
    /// Send whose fault verdict the algorithm reacts to (e.g. the coloring
    /// decodes a dropped payload into its repair set). The receipt is only
    /// known at the merge, so the verdict arrives through the callback.
    void send(Rank dst, std::vector<std::byte> payload, std::int64_t records,
              ReceiptFn on_receipt);

    /// Deliver messages already arrived at this rank's clock — the
    /// asynchronous-superstep receive. Only available inside
    /// run_ranks_snapshot() phases, at most once per callback, and before
    /// any charge or send: the result is harvested at the rank's
    /// superstep-entry clock, and a later poll at an advanced clock could
    /// observe arrivals the harvest cannot reproduce.
    [[nodiscard]] std::vector<BspMessage> poll();

   private:
    friend class BspEngine;
    struct DeferredSend {
      Rank dst = kNoRank;
      std::vector<std::byte> payload;
      std::int64_t records = 0;
      CommFabric::SendTime send_time;
      ReceiptFn on_receipt;
    };

    RankCtx(BspEngine& engine, Rank r);

    Rank rank_ = kNoRank;
    bool poll_allowed_ = false;  ///< Set only by run_ranks_snapshot().
    bool polled_ = false;        ///< poll() is one-shot per callback.
    bool dirty_ = false;         ///< Any charge/send forbids a later poll().
    CommFabric::Lane lane_;
    std::vector<DeferredSend> sends_;
    /// Pre-harvested poll() result (run_ranks_snapshot() only).
    std::vector<BspMessage> snapshot_;
  };

  /// Runs body(ctx) once for every rank (concurrently with a threaded
  /// backend), each against its own RankCtx, and merges the contexts in
  /// rank order afterwards. Callbacks see no other rank's effects from the
  /// same phase (synchronous-superstep compute, conflict detection). Phases
  /// that poll() mid-superstep must use run_ranks_snapshot() instead.
  void run_ranks(const std::function<void(RankCtx&)>& body);

  /// The bulk-synchronous exchange that ends a superstep round: barrier(),
  /// then a run_ranks() phase in which `apply` consumes every message
  /// pending for the rank. Each rank touches only its own inbox, so the
  /// phase is deterministic at every thread count.
  void exchange(
      const std::function<void(RankCtx&, std::vector<BspMessage>)>& apply);

  /// Runs an asynchronous superstep — a phase whose callbacks may call
  /// ctx.poll() once, up front — once for every rank, with the semantics of
  /// running the ranks one after another in rank order: rank r's poll sees
  /// (a) pre-existing inbox messages with arrival <= clock_r and (b)
  /// same-superstep sends from ranks s < r that already arrived.
  ///
  /// A clock-only safety check decides how. (b) is empty whenever every
  /// rank's entry clock lies strictly below a floating-point lower bound on
  /// the earliest message any earlier rank could emit this superstep
  /// ((clock_s + send_overhead) + message_seconds(0), evaluated in the send
  /// path's own op order — every later step only adds nonnegative cost,
  /// takes a max, or rounds a monotone op). When that holds for all ranks,
  /// every poll() result is harvested up front and the callbacks run
  /// together (concurrently under a threaded backend), merged in rank order
  /// like run_ranks(); otherwise the phase falls back to running rank r
  /// against its harvest at its turn and merging it before rank r + 1
  /// starts. The check reads only rank clocks, so every thread count takes
  /// the same branch — see DESIGN.md §5c ("Snapshot-harvested asynchronous
  /// supersteps").
  void run_ranks_snapshot(const std::function<void(RankCtx&)>& body);

  /// How many run_ranks_snapshot() phases passed the safety check and ran
  /// their ranks together (parallel-capable), and how many fell back to
  /// rank-by-rank execution. Pure functions of the rank clocks, so both are
  /// identical at every thread count — tests use them to assert the
  /// parallel path was really exercised.
  [[nodiscard]] std::int64_t snapshot_parallel_phases() const noexcept {
    return snapshot_parallel_phases_;
  }
  [[nodiscard]] std::int64_t snapshot_fallback_phases() const noexcept {
    return snapshot_fallback_phases_;
  }

  /// Current virtual time of rank r.
  [[nodiscard]] double now(Rank r) const { return fabric_.now(r); }

  /// Modelled parallel time so far (max over rank clocks).
  [[nodiscard]] double time() const { return fabric_.max_time(); }

  [[nodiscard]] const CommStats& comm() const noexcept {
    return fabric_.comm();
  }
  [[nodiscard]] const MachineModel& model() const noexcept {
    return fabric_.model();
  }

  /// Per-rank charged-compute distribution (load balance). Barriers
  /// synchronize the clocks, so this — not `now()` — is the balance signal.
  [[nodiscard]] LoadStats load_stats() const { return fabric_.load_stats(); }

  /// The shared comm substrate (clocks, costs, stats, instrumentation).
  [[nodiscard]] CommFabric& fabric() noexcept { return fabric_; }
  [[nodiscard]] const CommFabric& fabric() const noexcept { return fabric_; }

 private:
  /// Delivers messages to r whose arrival time has passed r's clock.
  [[nodiscard]] std::vector<BspMessage> poll(Rank r);
  /// Delivers all pending messages for r regardless of time.
  [[nodiscard]] std::vector<BspMessage> drain(Rank r);
  /// Inserts an already-priced message into dst's inbox (sorted by arrival).
  void deliver(Rank dst, Rank src, double arrival, std::int64_t records,
               std::vector<std::byte> payload);
  /// Whether every rank's clock sits strictly below the floating-point
  /// lower bound on any same-superstep arrival from an earlier rank (the
  /// run_ranks_snapshot() safety condition).
  [[nodiscard]] bool snapshot_parallel_safe() const;
  /// Garbles the delivered copy of a corrupted message, verifies the frame
  /// checksum rejects it, and counts the detection at dst. The frame never
  /// reaches the inbox; the sender's receipt drives the algorithm's repair.
  void reject_corrupted(Rank dst, const CommFabric::SendReceipt& receipt,
                        std::vector<std::byte> payload);
  /// Absorbs a rank's lane and replays its recorded sends. A snapshot
  /// phase's unpolled harvest goes back to the inbox first.
  void merge(RankCtx& ctx);

  CommFabric fabric_;
  ExecutionBackend backend_;
  /// Pending (undelivered) messages per destination, FIFO by arrival.
  std::vector<std::deque<BspMessage>> inboxes_;
  std::int64_t snapshot_parallel_phases_ = 0;
  std::int64_t snapshot_fallback_phases_ = 0;
};

}  // namespace pmc
