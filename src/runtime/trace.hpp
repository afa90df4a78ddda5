// Instrumentation layer of the simulated comm fabric.
//
// Every fabric event reaches CommTrace as one CommEvent record, through
// CommTrace::record. The trace folds it into the per-rank × per-round
// CommStats breakdowns, the message-size histogram and the fault counters
// that RunResult::breakdown surfaces — the per-phase counts related
// distributed-matching codes (Azad et al., Birn et al.) report and that the
// aggregate-only CommStats could not produce — and into the run's CommStats
// totals. An optional JSONL sink appends one line per event for offline
// analysis (DESIGN.md §5b lists the line kinds).
//
// Round and phase are *attribution labels* set by the algorithm (or engine)
// driving the fabric:
//   * round — the algorithm's outer iteration at send time. The speculative
//     coloring uses its coloring round; the asynchronous matching uses the
//     sending rank's activation depth (messages handled so far).
//   * phase — whether charged compute is interior work (local, no ghosts),
//     boundary work (ghost/conflict handling), or unclassified.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "runtime/comm_stats.hpp"
#include "support/types.hpp"

namespace pmc {

/// What a charged unit of compute was doing (instrumentation only; has no
/// effect on modelled time).
enum class WorkPhase : std::uint8_t { kInterior, kBoundary, kOther };

/// Instrumentation options threaded through engine/algorithm options.
struct TraceConfig {
  /// When non-empty, every send, collective and round event, and every
  /// fault and recovery event but backoff, is appended to this file as one
  /// JSON object per line.
  std::string jsonl_path;
};

/// One fabric event. `rank` is the rank it counts against (DESIGN.md §5b
/// lists each kind's); a kind reads only the fields its JSONL line prints,
/// and a backoff, which prints none, reads `rank` and `seconds`.
struct CommEvent {
  enum class Kind : std::uint8_t {
    kRound, kSend, kDrop, kDuplicate, kCorrupt, kDupSuppressed,
    kCorruptDetected, kRetry, kBackoff, kCollective
  };
  Kind kind = Kind::kRound;
  Rank rank = kNoRank;       ///< A round event's kNoRank labels every rank.
  Rank peer = kNoRank;       ///< A message's other end.
  int value = 0;             ///< A round label, or a retry's attempt.
  double time = 0.0;         ///< Modelled seconds.
  double seconds = 0.0;      ///< The time a backoff waited.
  std::int64_t bytes = 0;    ///< Payload plus envelope.
  std::int64_t payload = 0;  ///< The encoded payload alone.
  std::int64_t records = 0;
};

/// Accumulates a run's instrumentation; owned by the CommFabric.
class CommTrace {
 public:
  /// Opens the JSONL sink when config names one; a path that cannot be
  /// opened throws pmc::Error.
  explicit CommTrace(TraceConfig config = {});

  /// Registers one more rank (per-rank vectors grow).
  void add_rank();

  /// Folds one event into the breakdown and the totals, and writes its JSONL
  /// line when a sink is open.
  void record(const CommEvent& event);

  /// Flushes the sink. This and record() throw pmc::Error naming the path
  /// once any of the trace could not be written; as the sink buffers its
  /// lines, a short trace shows an error only here.
  void flush();

  [[nodiscard]] WorkPhase phase(Rank r) const noexcept {
    return rank_phase_[static_cast<std::size_t>(r)];
  }

  /// Installs rank r's phase timers and phase label from a fabric lane
  /// (assignment — the lane carried the snapshot baseline forward). Charged
  /// compute reaches the trace only this way.
  void absorb_rank_compute(Rank r, double interior_seconds,
                           double boundary_seconds, double other_seconds,
                           WorkPhase phase) noexcept;

  [[nodiscard]] const CommBreakdown& breakdown() const noexcept {
    return breakdown_;
  }
  /// The run's message and collective totals.
  [[nodiscard]] const CommStats& comm() const noexcept { return comm_; }

 private:
  CommStats& round_slot(int round);
  /// Adds `amount` to one fault counter of rank r and of r's round label.
  template <typename T>
  void add_fault(Rank r, T FaultStats::*field, T amount);
  void write_line(const CommEvent& event);

  TraceConfig config_;
  CommBreakdown breakdown_;
  CommStats comm_;
  std::vector<int> rank_round_;
  std::vector<WorkPhase> rank_phase_;
  /// Highest round label seen; collectives are attributed to it (they are
  /// global events, meaningful only for the BSP engine's global rounds).
  int global_round_ = 0;
  std::ofstream sink_;
};

}  // namespace pmc
