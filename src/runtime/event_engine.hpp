// Asynchronous discrete-event engine — the simulated stand-in for MPI
// point-to-point communication.
//
// Each logical rank is a Process (a message-driven state machine). The
// engine composes the shared CommFabric (runtime/fabric.hpp) for clocks,
// channel FIFO ordering, alpha-beta costs and accounting, and owns only the
// scheduling discipline: a global event queue ordered by arrival time.
// Semantics:
//
//   * Process::start(ctx) runs once per rank; computation advances the
//     rank's clock via ctx.charge(work_units).
//   * ctx.send(dst, payload) timestamps the message with the sender's
//     current clock; arrival = send + latency + beta * (payload + header).
//     Delivery is FIFO per (src, dst) channel, like MPI's non-overtaking
//     guarantee. An optional deterministic jitter perturbs cross-channel
//     delivery order (used by tests to exercise the arrival-order
//     sensitivity discussed around the paper's Fig 3.1).
//   * The engine dispatches events globally in (time, sequence) order and
//     invokes Process::handle on the destination, after advancing that
//     rank's clock to at least the arrival time. Dispatch is *windowed*:
//     the queue is a calendar of buckets, each half the model's minimum
//     event-generation lookahead wide, so no event's successor can land in
//     its own bucket. The lowest bucket is popped whole, sharded by
//     destination rank (across the thread pool with a threaded backend;
//     handlers run against private fabric lanes), and the recorded effects
//     are merged back in (time, seq) order — bit-identical to one-at-a-time
//     dispatch (DESIGN.md §5c).
//   * Each transmission's bytes are stored once, in the engine's
//     FrameStore (runtime/frame_store.hpp): events, retransmission entries
//     and duplicates refer to them by handle, and only the sequential merge
//     adds or releases a frame.
//   * When the queue drains and some rank reports !done(), the engine calls
//     Process::idle once per such rank; if that generates no messages and
//     ranks are still unfinished, the run aborts with a deadlock diagnostic.
//
// The modelled parallel time of a run is the maximum rank clock at
// completion — what the paper's "compute time" plots show.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "runtime/comm_stats.hpp"
#include "runtime/exec/backend.hpp"
#include "runtime/fabric.hpp"
#include "runtime/frame_store.hpp"
#include "runtime/machine_model.hpp"
#include "support/types.hpp"

namespace pmc {

class EventEngine;

/// Per-rank API surface handed to Process callbacks.
///
/// Every callback — start(), idle() and each event's handle() — runs
/// *deferred*: charges go to a private fabric lane (borrowed from the engine
/// — one lane per rank shard) and every fabric-visible action — sends, round
/// labels, transport acks/retransmissions, recovery notes — is recorded in
/// program order, then replayed through the fabric in deterministic order
/// afterwards, so the event schedule is the same at every thread count
/// (DESIGN.md §5c). With a sequential backend the lanes simply run inline.
class EventContext {
 public:
  [[nodiscard]] Rank rank() const noexcept { return lane_->rank(); }

  /// Advances this rank's virtual clock by work_units * seconds_per_work.
  void charge(double work_units) noexcept { lane_->charge(work_units); }

  /// Sends a payload to dst; `records` is the number of algorithm-level
  /// records inside (statistics only).
  void send(Rank dst, std::vector<std::byte> payload, std::int64_t records);

  /// Current virtual time of this rank.
  [[nodiscard]] double now() const noexcept { return lane_->now(); }

  /// Trace attribution (instrumentation only): the round label this rank's
  /// subsequent sends carry, and the phase its charges count toward.
  void set_round(int round);
  void set_phase(WorkPhase phase) noexcept { lane_->set_phase(phase); }

 private:
  friend class EventEngine;

  /// One recorded deferred action; ops must replay in their original program
  /// order (a round label attributes the sends that follow it, a transport
  /// ack precedes the handler it unblocked, a retransmission precedes the
  /// release of the frame it resends, and so on). Handler-level ops (kSend
  /// and round notes) and engine-level transport ops share one list so a
  /// window merge reproduces each event's full effect sequence. One op is
  /// written per send, ack, retransmission, release and note, so it stays
  /// small.
  struct DeferredOp {
    enum class Kind : std::uint8_t {
      kSend,        ///< Handler ctx.send (first transmission).
      kAck,         ///< Transport ack for a delivered data message.
      kRetransmit,  ///< Retry-timer resend of an unacked message.
      kRelease,     ///< A retired transport entry's frame.
      kNote,        ///< A trace event of kind `note` at this rank.
    };
    Kind kind = Kind::kSend;
    CommEvent::Kind note = CommEvent::Kind::kRound;  ///< kNote: its kind.
    Rank peer = kNoRank;             ///< Send/ack target or retry peer.
    std::vector<std::byte> payload;  ///< kSend: the frame, stored at replay.
    /// kRetransmit, kRelease: the stored frame (a shard only reads the
    /// store; the merge references or releases it in replay order).
    FrameStore::Handle frame = FrameStore::kNone;
    /// kRetransmit: the attempt number; kNote: the event's value (a round
    /// label or a retry's attempt).
    int value = 0;
    std::int64_t records = 0;
    /// kNote: the clock value the note reads; kSend/kAck/kRetransmit: the
    /// lane-priced send time.
    std::variant<double, CommFabric::SendTime> time;
    double seconds = 0.0;    ///< kNote of a backoff: waited seconds.
    std::uint64_t tseq = 0;  ///< kAck/kRetransmit: transport sequence.
  };
  static_assert(sizeof(DeferredOp) <= 80);

  /// Context over a borrowed lane (owned by the engine's fan-out or window
  /// shard; one lane may serve many per-event contexts in sequence) that
  /// records into a borrowed op frame (the engine's, reused across windows).
  EventContext(EventEngine& engine, CommFabric::Lane& lane,
               std::vector<DeferredOp>& ops)
      : engine_(&engine), lane_(&lane), ops_(&ops) {}

  /// Appends an op of `kind` stamped with the lane clock (the value a note
  /// reads); the caller fills in the kind-specific fields.
  DeferredOp& record(DeferredOp::Kind kind) {
    DeferredOp& op = ops_->emplace_back();
    op.kind = kind;
    op.time = lane_->now();
    return op;
  }
  /// Appends a note of trace event `kind` at this rank.
  DeferredOp& note(CommEvent::Kind kind) {
    DeferredOp& op = record(DeferredOp::Kind::kNote);
    op.note = kind;
    return op;
  }

  EventEngine* engine_;
  CommFabric::Lane* lane_;
  std::vector<DeferredOp>* ops_;
};

/// A rank's algorithm state machine.
class Process {
 public:
  virtual ~Process() = default;

  /// Initial computation; runs once before any message delivery.
  virtual void start(EventContext& ctx) = 0;

  /// Delivery of one message.
  virtual void handle(EventContext& ctx, Rank src,
                      std::span<const std::byte> payload) = 0;

  /// Called when the system is quiescent but this rank is not done. May send
  /// messages to make progress. Default: no-op.
  virtual void idle(EventContext& ctx) { (void)ctx; }

  /// True once this rank's part of the computation is complete.
  [[nodiscard]] virtual bool done() const = 0;

  /// One-line state description for deadlock diagnostics.
  [[nodiscard]] virtual std::string debug_state() const { return "?"; }
};

/// Discrete-event scheduler over a set of rank Processes.
class EventEngine {
 public:
  /// When config.fault is enabled the engine layers a reliable transport
  /// over the lossy fabric: every data message carries a per-channel
  /// transport sequence number (plus a small modelled header), the receiver
  /// acknowledges and suppresses duplicate sequence numbers, and the sender
  /// retransmits unacknowledged messages on an exponential-backoff timer up
  /// to fault.max_attempts tries (the final try escalating to a fault-exempt
  /// path when fault.reliable_tail). With faults disabled the transport is
  /// absent and behavior is bit-identical to the pre-fault engine.
  ///
  /// `exec` selects the execution backend: with exec.threads > 1 the
  /// per-rank start() and idle() fan-outs and each dispatch window's rank
  /// shards run on a work-stealing pool, with exec.threads == 1 inline.
  /// Either way every callback runs against a deferred context over a
  /// private fabric lane and the recorded effects merge in a fixed order, so
  /// the observable run is bit-identical at every thread count.
  explicit EventEngine(MachineModel model, FabricConfig config = {},
                       ExecConfig exec = {});

  /// Registers a rank process; ranks are numbered in registration order.
  Rank add_process(std::unique_ptr<Process> process);

  [[nodiscard]] Rank num_ranks() const noexcept {
    return static_cast<Rank>(processes_.size());
  }

  /// Runs to completion; throws pmc::Error on deadlock. Returns the run
  /// result (modelled time = max rank clock).
  RunResult run();

  /// Access to a rank's process (e.g. to extract results after run()).
  [[nodiscard]] Process& process(Rank r) { return *processes_[static_cast<std::size_t>(r)]; }

  [[nodiscard]] const MachineModel& model() const noexcept {
    return fabric_.model();
  }

  /// The shared comm substrate (clocks, costs, stats, instrumentation).
  [[nodiscard]] CommFabric& fabric() noexcept { return fabric_; }
  [[nodiscard]] const CommFabric& fabric() const noexcept { return fabric_; }

 private:
  friend class EventContext;

  /// Event kinds. kData is an algorithm message; kAck and kTimer exist only
  /// when the reliable transport is active (faults enabled).
  enum class EventKind : std::uint8_t { kData, kAck, kTimer };

  struct Event {
    double time = 0.0;
    std::uint64_t tseq = 0;  ///< Transport sequence on the (src,dst) channel.
    /// kData: the delivered bytes, one holder of them until the window that
    /// dispatches the event has merged.
    FrameStore::Handle frame = FrameStore::kNone;
    Rank src = kNoRank;
    Rank dst = kNoRank;
    EventKind kind = EventKind::kData;
    /// The fabric garbled this copy in flight: its frame is a private copy
    /// with a flipped bit, which the receiver's checksum must reject.
    bool corrupted = false;
  };
  static_assert(std::is_trivially_copyable_v<Event> && sizeof(Event) <= 32);

  /// An unacknowledged data message kept for retransmission.
  struct Pending {
    std::int64_t records = 0;
    /// One holder of the message's bytes; kNone once the entry is gone
    /// (acked, or its final try is out), never to be read again.
    FrameStore::Handle frame = FrameStore::kNone;
    int attempt = 0;  ///< Tries made so far.
  };

  /// One rank's reliable-transport state toward one peer, both directions.
  /// Transport sequence numbers (tseqs) are dense per (src, dst) channel and
  /// start at 0, so both sides keep a floor plus a short tail instead of a
  /// set: the state is O(messages in flight), not O(messages sent). A
  /// rank's channels change only through its own events (data on the
  /// receiver side; acks and timers on the sender side) and the sequential
  /// replay of its sends, so concurrent shards of a window touch disjoint
  /// ranks' channels.
  struct Channel {
    Rank peer = kNoRank;
    /// Sender side (this rank -> peer): the entries of tseqs [base, next),
    /// from the oldest not yet gone to the last issued, in a ring indexed
    /// by tseq (its size a power of two, doubled when full).
    std::uint64_t base = 0;
    std::uint64_t next = 0;
    std::vector<Pending> ring;
    /// Receiver side (peer -> this rank): every tseq below `floor` was
    /// delivered, and so were the ones in `above` (sorted, all > floor).
    std::uint64_t floor = 0;
    std::vector<std::uint64_t> above;

    /// Issues the next tseq and returns its (blank) entry.
    Pending& issue();
    /// tseq's retransmission entry, or nullptr once it is gone.
    [[nodiscard]] Pending* pending(std::uint64_t tseq) noexcept;
    /// True once tseq's entry is gone: `base` only grows and a gone entry
    /// never gets its frame back, so a settled tseq stays settled.
    [[nodiscard]] bool settled(std::uint64_t tseq) const noexcept;
    /// Marks tseq's entry gone, drops gone entries off the front, and hands
    /// back the frame it held for its caller to release (kNone if the entry
    /// was already gone).
    [[nodiscard]] FrameStore::Handle retire(std::uint64_t tseq) noexcept;
    /// Records a delivery of tseq; false if it was delivered before.
    bool deliver(std::uint64_t tseq);
  };

  /// Replays one recorded first transmission: the sender-side clock costs
  /// were already applied to the rank's lane, which priced `send_time`.
  void enqueue_at(Rank src, Rank dst, std::vector<std::byte> payload,
                  std::int64_t records, CommFabric::SendTime send_time);
  /// Queues an event in the bucket its time falls in.
  void push_event(const Event& ev);
  /// `rank`'s transport channel to `peer`, opened on first use.
  Channel& channel(Rank rank, Rank peer);
  /// `rank`'s transport channel to `peer`, or nullptr if it was never
  /// opened (never opens one).
  [[nodiscard]] const Channel* find_channel(Rank rank, Rank peer) const;
  /// Prices and schedules one (re)transmission of stored `frame` whose
  /// sender-side clock costs are already paid (send_time is the priced send
  /// instant), arming the next retry timer unless `attempt` exhausted the
  /// budget. Shared by first transmissions and retransmissions.
  void transmit_priced(Rank src, Rank dst, std::uint64_t tseq,
                       FrameStore::Handle frame, std::int64_t records,
                       int attempt, CommFabric::SendTime send_time);
  /// Prices and schedules one transport ack whose sender-side clock costs
  /// are already paid. Acks ride the same lossy fabric but never retry.
  void replay_ack(Rank from, Rank to, std::uint64_t tseq,
                  CommFabric::SendTime send_time);
  /// Dispatches one event through `ctx`, recording its effects for the
  /// window merge. Runs on a shard: it may read the frame store but records
  /// every reference or release as an op.
  void dispatch(const Event& ev, EventContext& ctx);
  /// Records the release of a frame a shard retired (nothing for kNone).
  static void release_at_merge(EventContext& ctx, FrameStore::Handle frame);
  /// Pops the lowest bucket as one window, drops its settled retry timers,
  /// dispatches the rest sharded by destination rank on the backend, then
  /// merges: absorbs the shard lanes, replays every event's recorded ops in
  /// (time, seq) order, and releases the window's frames.
  void dispatch_window();
  /// Fills replay_order_ with the window's events in (time, index) order.
  void sort_window();
  /// Replays one recorded op frame against the live fabric and empties it.
  void replay_ops(Rank rank, std::vector<EventContext::DeferredOp>& ops);
  /// Runs start() (phase == kStart) or idle() over `ranks` on the backend,
  /// then merges the contexts in rank order.
  enum class FanPhase : std::uint8_t { kStart, kIdle };
  void fan_out(const std::vector<Rank>& ranks, FanPhase phase);

  CommFabric fabric_;
  ExecutionBackend backend_;
  std::vector<std::unique_ptr<Process>> processes_;
  /// The event queue, a calendar of buckets: the bucket keyed k holds the
  /// events with floor(time / window_seconds_) == k, in push order — which
  /// is seq order, the tie-breaker among equal times. With a zero window the
  /// key is the time's bit pattern instead (one bucket per instant). The
  /// calendar is one vector sorted by descending key, so the lowest bucket
  /// pops off the back; it stays ordered because start() and idle kicks can
  /// fill a bucket below the last one dispatched.
  struct Bucket {
    std::int64_t key = 0;
    std::vector<Event> events;
  };
  std::vector<Bucket> calendar_;
  /// The last dispatched window's storage, emptied, for the next bucket the
  /// calendar opens (one window's worth at most: the next pop frees it if
  /// no bucket took it).
  std::vector<Event> spare_;
  std::uint64_t events_posted_ = 0;
  bool ran_ = false;

  /// Every transmission's bytes (see runtime/frame_store.hpp). Shards only
  /// read it; the merge adds, references and releases frames.
  FrameStore store_;

  /// Per-window scratch, kept across windows so its storage is reused: the
  /// window's (time, index) replay order and its sorting buffer; its shards
  /// — each one's rank, first slot in by_shard_ (replay positions grouped
  /// by rank), and the per-rank counters that place them; and one op frame
  /// per event in replay order (per rank during a fan-out). The window's
  /// events themselves are the popped bucket, whose storage becomes the
  /// spare.
  struct TimeKey {
    std::uint64_t time_bits = 0;  ///< A non-negative time's bit pattern.
    std::uint32_t index = 0;
  };
  std::vector<Event> window_;
  std::vector<TimeKey> replay_order_;
  std::vector<TimeKey> sort_buffer_;
  std::vector<Rank> shard_rank_;
  std::vector<std::uint32_t> shard_begin_;
  std::vector<std::uint32_t> shard_fill_;
  std::vector<std::uint32_t> by_shard_;
  std::vector<std::vector<EventContext::DeferredOp>> op_frames_;

  /// Windowed-dispatch bucket width: half the minimum spacing between an
  /// event and any successor it generates, so a successor always lands in a
  /// later bucket (DESIGN.md §5c). A degenerate cost model with no minimum
  /// event spacing has 0, and each bucket holds the events of one instant.
  double window_seconds_ = 0.0;

  /// Reliable transport state: one channel list per rank, sorted by peer
  /// (empty unless faults are enabled).
  bool transport_ = false;
  std::vector<std::vector<Channel>> channels_;
};

}  // namespace pmc
