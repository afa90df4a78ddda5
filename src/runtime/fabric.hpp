// Shared communication fabric of the simulated runtimes.
//
// EventEngine (asynchronous, message-driven) and BspEngine (superstep /
// barrier) each used to hand-roll the same mechanics: per-rank virtual
// clocks, the per-(src,dst) channel FIFO non-overtaking rule, alpha-beta
// cost charging, and CommStats accounting. CommFabric owns all of it once;
// the engines keep only their scheduling discipline (a global event queue
// vs per-rank inboxes) and compose the fabric.
//
// Every per-destination record stages through one Outbox per sender — a
// FrameWriter slot per rank on the sender's sorted destination list, never
// one per rank of the machine. The matching paper's §3.3 bundling is a
// flush per activation (eager mode, the unbundled ablation, sends each
// slot as soon as it holds a record); FanoutStage adds the coloring
// paper's §4.2 send policies on top: kBroadcastUnion (FIAB),
// kCustomizedAll (FIAC), or kCustomizedNeighbors (NEW).
//
// ColorRecord is the one record kind that FanoutStage, the coloring
// drivers and the coloring verifier share.
//
// All modelled-time semantics (send overhead, latency + inverse-bandwidth
// cost, FIFO channels, deterministic jitter) are bit-identical to the
// pre-fabric engines; tests/test_determinism_regression.cpp pins this.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "runtime/comm_stats.hpp"
#include "runtime/machine_model.hpp"
#include "runtime/serialize.hpp"
#include "runtime/trace.hpp"
#include "support/error.hpp"
#include "support/types.hpp"

namespace pmc {

/// Who receives a superstep's staged boundary records (the coloring paper's
/// §4.2 communication modes).
enum class SendPolicy {
  kBroadcastUnion,       ///< FIAB: same union payload to every other rank.
  kCustomizedAll,        ///< FIAC: customized (possibly empty) message to all.
  kCustomizedNeighbors,  ///< NEW: customized messages, touched ranks only.
};

/// One interval during which a rank's network is unavailable: messages it
/// would inject, and messages that would arrive at it, wait for the window
/// to close (a transient node stall, not a crash — no state is lost).
struct StallWindow {
  Rank rank = 0;
  double start = 0.0;
  double duration = 0.0;
};

/// Deterministic fault-injection knobs. Every per-message verdict is a pure
/// function of (seed, global send sequence number), so a fixed seed gives a
/// bit-identical fault schedule; with all rates zero and no stall windows the
/// layer is inert and the fabric behaves exactly as without it.
struct FaultConfig {
  double drop_rate = 0.0;       ///< P(message silently lost).
  double duplicate_rate = 0.0;  ///< P(second copy delivered); never on drops
                                ///< or corruptions.
  double delay_rate = 0.0;      ///< P(extra delay added to arrival).
  /// P(message garbled in flight). The message still arrives; the engine
  /// flips a bit of the delivered bytes and the frame checksum catches it —
  /// a detected corruption routes into retry (event engine) or repair
  /// re-entry (BSP paths) instead of being decoded.
  double corrupt_rate = 0.0;
  /// Upper bound on the injected extra delay (and on the duplicate copy's
  /// lag behind the original).
  double max_extra_delay_seconds = 0.0;
  std::uint64_t seed = 0;  ///< Verdict stream seed (independent of jitter).
  /// Per-rank network-unavailability intervals.
  std::vector<StallWindow> stalls;

  // Recovery protocol (used by the engines' reliable transport, not by the
  // fabric itself; its retransmission timer is fixed in event_engine.cpp).
  int max_attempts = 12;  ///< Total tries per message (1 = no retry).
  /// When true, the final attempt bypasses fault injection (the model for
  /// "escalate to a reliable path"), guaranteeing termination. When false,
  /// exhausting the budget on a lost message is a hard error.
  bool reliable_tail = true;

  [[nodiscard]] bool enabled() const noexcept {
    return drop_rate > 0.0 || duplicate_rate > 0.0 || delay_rate > 0.0 ||
           corrupt_rate > 0.0 || !stalls.empty();
  }
};

/// Construction options for a CommFabric.
struct FabricConfig {
  /// > 0 adds a deterministic pseudo-random delay in [0, jitter_seconds)
  /// to each message arrival (per-message, derived from jitter_seed).
  double jitter_seconds = 0.0;
  std::uint64_t jitter_seed = 0;
  FaultConfig fault;
  TraceConfig trace;
};

/// Shared clock/cost/accounting substrate composed by both engines.
class CommFabric {
 public:
  using Config = FabricConfig;

  class Lane;

  /// The instant a send enters the network, priced by Lane::begin_send()
  /// and required by post_send_at(). Only a Lane can make one, so every
  /// posted message has paid its sender-side costs, and a send cannot be
  /// priced at a constant or a live clock read.
  class SendTime {
   public:
    [[nodiscard]] double seconds() const noexcept { return seconds_; }

   private:
    friend class Lane;
    explicit SendTime(double seconds) noexcept : seconds_(seconds) {}
    double seconds_;
  };

  /// What post_send_at() hands back to the engine's scheduler.
  struct SendReceipt {
    double arrival = 0.0;    ///< Modelled arrival time (FIFO-adjusted).
    std::uint64_t seq = 0;   ///< Global send sequence number (tie-breaker).
    bool dropped = false;    ///< Fault layer lost the message (no delivery).
    bool duplicated = false; ///< A second copy arrives at duplicate_arrival.
    /// Fault layer garbled the message in flight: it arrives, but the
    /// engine delivers flipped bytes and the frame checksum rejects them.
    bool corrupted = false;
    double duplicate_arrival = 0.0;
  };

  explicit CommFabric(MachineModel model, Config config = {});

  /// Registers one more rank; returns its id (registration order).
  Rank add_rank();

  [[nodiscard]] Rank num_ranks() const noexcept {
    return static_cast<Rank>(clocks_.size());
  }
  [[nodiscard]] const MachineModel& model() const noexcept { return model_; }

  // ---- clocks ------------------------------------------------------------

  [[nodiscard]] double now(Rank r) const {
    return clocks_[static_cast<std::size_t>(r)];
  }

  /// Modelled parallel time so far (max over rank clocks). Clocks move only
  /// by absorbing a Lane or completing a collective.
  [[nodiscard]] double max_time() const;

  // ---- point-to-point ------------------------------------------------------

  /// The shared send path. The sender-side costs (stall wait + software
  /// overhead) were already applied to a Lane replica of src's clock by
  /// Lane::begin_send(), which priced `send_time` — so this never reads or
  /// moves src's live clock. It prices the message with the alpha-beta
  /// model (+ optional deterministic jitter), enforces FIFO non-overtaking
  /// on the (src, dst) channel, and records the send and its fault verdicts
  /// in the trace; the engine schedules delivery at the returned arrival
  /// time.
  /// Replaying a phase's recorded sends in rank order therefore fixes
  /// sequence numbers, jitter and fault verdicts, channel FIFO state and
  /// trace events at every thread count.
  ///
  /// When fault injection is configured (config().fault.enabled()) the
  /// receipt may additionally report the message dropped, duplicated or
  /// corrupted, and arrivals are deferred past any stall window covering dst
  /// (delivery). `fault_exempt` sends (acks' escalation path, the reliable
  /// tail) bypass the verdicts but still consume a sequence number.
  SendReceipt post_send_at(Rank src, Rank dst, std::size_t payload_bytes,
                           std::int64_t records, SendTime send_time,
                           bool fault_exempt = false);

  // ---- collectives ---------------------------------------------------------

  /// Completes a barrier/allreduce: every clock advances to `horizon` (the
  /// caller's max over clocks and in-flight arrivals) plus the collective
  /// cost for the current rank count.
  void complete_collective(double horizon);

  // ---- instrumentation -----------------------------------------------------

  /// Hands one event to the trace. The fabric records its own sends and
  /// collectives; the engines post round labels and their transports'
  /// recovery events (suppressed duplicates, rejected frames, retries,
  /// backoff) here.
  void note(const CommEvent& event) { trace_.record(event); }

  /// Sets every rank's round label (BSP-style global rounds).
  void set_round_all(int round) {
    note({.kind = CommEvent::Kind::kRound, .rank = kNoRank, .value = round});
  }

  [[nodiscard]] const Config& config() const noexcept { return config_; }

  /// Earliest time >= t at which rank r's network is outside every stall
  /// window (identity when no window covers t).
  [[nodiscard]] double stall_clear(Rank r, double t) const;

  // ---- per-rank execution lanes --------------------------------------------

  /// Private per-rank accounting replica for a rank phase. While rank
  /// callbacks run (concurrently with a threaded backend), each rank charges
  /// compute and pays sender-side message costs against its own Lane —
  /// only *reading* shared fabric state (model, config, stall windows). At
  /// the merge the engine absorbs every lane and replays the recorded sends
  /// in a fixed order, which fixes the global order of the shared counters
  /// (send_seq_, channel FIFO, the trace).
  class Lane {
   public:
    Lane() = default;

    [[nodiscard]] Rank rank() const noexcept { return rank_; }
    [[nodiscard]] double now() const noexcept { return clock_; }

    /// Charges work_units of compute (attributed to the lane's current
    /// phase, or to an explicit one-shot phase). Inline: handlers charge
    /// per record and per arc. Prices exactly as
    /// MachineModel::compute_seconds, from the model's fields cached at
    /// construction.
    void charge(double work_units) { charge(work_units, phase_); }
    void charge(double work_units, WorkPhase phase) {
      const double seconds = work_units * seconds_per_work_ / speedup_;
      clock_ += seconds;
      compute_seconds_ += seconds;
      switch (phase) {
        case WorkPhase::kInterior:
          interior_seconds_ += seconds;
          break;
        case WorkPhase::kBoundary:
          boundary_seconds_ += seconds;
          break;
        case WorkPhase::kOther:
          other_seconds_ += seconds;
          break;
      }
    }

    /// Sets the phase later charges count toward (absorbed into the trace at
    /// merge).
    void set_phase(WorkPhase phase) noexcept { phase_ = phase; }

    /// clock = max(clock, t) — delivery of an event at time t.
    void advance_to(double t) noexcept { clock_ = std::max(clock_, t); }

    /// Applies the sender-side cost of one message (stall wait unless the
    /// send is fault-exempt, then the software overhead) to the replica
    /// clock and returns the send time to record for post_send_at().
    [[nodiscard]] SendTime begin_send(bool fault_exempt = false);

   private:
    friend class CommFabric;
    Lane(const CommFabric& fabric, Rank r);

    const CommFabric* fabric_ = nullptr;
    Rank rank_ = -1;
    double seconds_per_work_ = 0.0;  ///< The model's, cached for charge().
    double speedup_ = 1.0;           ///< The model's thread_speedup().
    double clock_ = 0.0;
    double compute_seconds_ = 0.0;
    double interior_seconds_ = 0.0;
    double boundary_seconds_ = 0.0;
    double other_seconds_ = 0.0;
    WorkPhase phase_ = WorkPhase::kOther;
  };

  /// Snapshot of rank r's accounting (clock, charged compute, phase timers,
  /// current phase label) to run a rank callback against.
  [[nodiscard]] Lane make_lane(Rank r) const { return Lane(*this, r); }

  /// Installs a lane's final accounting back into the fabric (assignment,
  /// not accumulation — the lane already contains the snapshot baseline).
  void absorb_lane(const Lane& lane);

  // ---- results -------------------------------------------------------------

  [[nodiscard]] const CommStats& comm() const noexcept {
    return trace_.comm();
  }
  [[nodiscard]] const CommBreakdown& breakdown() const noexcept {
    return trace_.breakdown();
  }

  /// Per-rank charged-compute distribution (load balance).
  [[nodiscard]] LoadStats load_stats() const;

  /// Fills run with sim_seconds (max clock), comm, load and breakdown, and
  /// flushes the trace sink: a trace that could not be written throws
  /// pmc::Error naming its path.
  void export_into(RunResult& run);

 private:
  MachineModel model_;
  Config config_;
  std::vector<double> clocks_;
  /// Charged compute seconds per rank (load-balance statistics).
  std::vector<double> compute_seconds_;
  /// The last scheduled arrival on one (src, dst) channel.
  struct ChannelArrival {
    Rank dst = kNoRank;
    double arrival = 0.0;
  };
  /// Per source rank, its channels' last arrivals sorted by destination,
  /// enforcing FIFO order. Sparse: rank pairs that actually communicate are
  /// few (graph neighbors), while a dense P*P array would not scale to 16k
  /// ranks.
  std::vector<std::vector<ChannelArrival>> channel_arrivals_;
  std::uint64_t send_seq_ = 0;
  CommTrace trace_;
};

/// One rank's outgoing-record staging: a FrameWriter slot per destination
/// on a sorted list fixed at construction — the ranks the sender can reach,
/// which its caller already knows (LocalGraph::neighbor_ranks(), at either
/// halo). Staging therefore costs O(neighbours), not O(ranks). Its three
/// flush walks fix the send order, which feeds FIFO channels, jitter and
/// fault verdicts downstream. A flush sends each staged slot as one frame
/// and resets it, delta chain included.
class Outbox {
 public:
  Outbox() = default;
  /// Sorts and deduplicates `destinations`.
  Outbox(std::vector<Rank> destinations, WireCodec codec)
      : destinations_(std::move(destinations)) {
    std::sort(destinations_.begin(), destinations_.end());
    destinations_.erase(
        std::unique(destinations_.begin(), destinations_.end()),
        destinations_.end());
    slots_.assign(destinations_.size(), FrameWriter(codec));
  }

  /// The writer staging records for dst, which must be on the list.
  FrameWriter& slot(Rank dst) {
    const auto it =
        std::lower_bound(destinations_.begin(), destinations_.end(), dst);
    PMC_CHECK(it != destinations_.end() && *it == dst,
              "staging to rank " << dst << ", which is not a destination");
    const auto i = static_cast<std::size_t>(it - destinations_.begin());
    if (slots_[i].empty()) touched_.push_back(i);
    return slots_[i];
  }

  /// Sends every staged slot in ascending destination order.
  template <typename SendFn>
  void flush_ascending(SendFn&& send) {
    for (std::size_t i = 0; i < slots_.size(); ++i) send_staged(i, send);
    touched_.clear();
  }

  /// Sends every staged slot in the order it was first staged into.
  template <typename SendFn>
  void flush_first_touched(SendFn&& send) {
    for (const std::size_t i : touched_) send_staged(i, send);
    touched_.clear();
  }

  /// Sends one frame to every rank in [0, num_ranks) but src, ascending:
  /// the slot's frame for a destination (empty when nothing is staged),
  /// an empty frame for any other rank.
  template <typename SendFn>
  void flush_every_rank(Rank num_ranks, Rank src, SendFn&& send) {
    std::size_t i = 0;
    for (Rank dst = 0; dst < num_ranks; ++dst) {
      const bool listed = i < destinations_.size() && destinations_[i] == dst;
      if (dst != src) {
        const std::int64_t records = listed ? slots_[i].records() : 0;
        send(dst, listed ? slots_[i].take() : std::vector<std::byte>{},
             records);
      }
      if (listed) ++i;
    }
    touched_.clear();
  }

 private:
  /// Sends slot i's frame and resets the slot, unless nothing is staged.
  template <typename SendFn>
  void send_staged(std::size_t i, SendFn& send) {
    FrameWriter& w = slots_[i];
    if (w.empty()) return;
    const std::int64_t records = w.records();
    send(destinations_[i], w.take(), records);
  }

  std::vector<Rank> destinations_;
  std::vector<FrameWriter> slots_;  ///< Parallel to destinations_.
  /// Slot indices in the order they went from empty to staged.
  std::vector<std::size_t> touched_;
};

/// A boundary vertex's color — the record of every coloring driver's and
/// verifier's boundary exchange.
struct ColorRecord {
  VertexId id = kNoVertex;
  Color color = kNoColor;
  static constexpr std::tuple kFields{IdField{&ColorRecord::id},
                                      ColorField{&ColorRecord::color}};
};

/// Per-source staging of one superstep's boundary records under the
/// SendPolicy fixed at construction — the coloring paper's FIAB / FIAC /
/// NEW comparison expressed as a fabric-level primitive. Customized records
/// stage in an Outbox over `destinations`; only FIAC's empty frames reach
/// the other ranks.
class FanoutStage {
 public:
  FanoutStage() = default;
  FanoutStage(SendPolicy policy, Rank num_ranks,
              std::vector<Rank> destinations,
              WireCodec codec = WireCodec::kCompact)
      : policy_(policy),
        num_ranks_(num_ranks),
        out_(std::move(destinations), codec),
        union_payload_(codec) {}

  /// Stages a boundary vertex's record: once into the shared union payload
  /// under kBroadcastUnion, otherwise for each of `ranks` (the vertex's
  /// boundary ranks, which must be destinations).
  void stage(const ColorRecord& record, std::span<const Rank> ranks) {
    if (policy_ == SendPolicy::kBroadcastUnion) {
      union_payload_.put(record);
      return;
    }
    for (const Rank dst : ranks) out_.slot(dst).put(record);
  }

  /// Sends the staged records from src and resets the stage. SendFn is
  /// void(Rank dst, std::vector<std::byte>, std::int64_t records).
  template <typename SendFn>
  void flush(Rank src, SendFn&& send) {
    switch (policy_) {
      case SendPolicy::kCustomizedNeighbors:
        out_.flush_first_touched(send);
        break;
      case SendPolicy::kCustomizedAll:
        // Customized content, but a message goes to *every* other rank —
        // empty for non-neighbors. Same count as FIAB, lower volume.
        out_.flush_every_rank(num_ranks_, src, send);
        break;
      case SendPolicy::kBroadcastUnion: {
        const std::int64_t records = union_payload_.records();
        const auto bytes = union_payload_.take();
        for (Rank dst = 0; dst < num_ranks_; ++dst) {
          if (dst == src) continue;
          send(dst, bytes, records);
        }
        break;
      }
    }
  }

 private:
  SendPolicy policy_ = SendPolicy::kCustomizedNeighbors;
  Rank num_ranks_ = 0;
  Outbox out_;
  FrameWriter union_payload_;
};

}  // namespace pmc
