// Instrumentation layer of the simulated comm fabric.
//
// CommTrace turns the fabric's raw event stream (sends, collectives, charged
// compute) into the per-rank × per-round CommStats breakdowns, message-size
// histograms and interior/boundary phase timers that RunResult::breakdown
// surfaces — the per-phase counts related distributed-matching codes (Azad
// et al., Birn et al.) report and that the aggregate-only CommStats could
// not produce. An optional JSONL sink appends one trace event per line for
// offline analysis.
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
#include <iosfwd>
#include <memory>
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
  /// When non-empty, every send / collective / round event is appended to
  /// this file as one JSON object per line.
  std::string jsonl_path;
};

/// Accumulates a run's instrumentation; owned by the CommFabric.
class CommTrace {
 public:
  explicit CommTrace(TraceConfig config = {});
  ~CommTrace();

  CommTrace(CommTrace&&) noexcept;
  CommTrace& operator=(CommTrace&&) noexcept;

  /// Registers one more rank (per-rank vectors grow).
  void add_rank();

  /// Sets the round label future sends from rank r are attributed to.
  void set_round(Rank r, int round);

  /// Sets every rank's round label (BSP-style global rounds).
  void set_round_all(int round);

  [[nodiscard]] int round(Rank r) const noexcept {
    return rank_round_[static_cast<std::size_t>(r)];
  }

  [[nodiscard]] WorkPhase phase(Rank r) const noexcept {
    return rank_phase_[static_cast<std::size_t>(r)];
  }

  /// Installs rank r's phase timers and phase label from a fabric lane
  /// (assignment — the lane carried the snapshot baseline forward). Charged
  /// compute reaches the trace only this way.
  void absorb_rank_compute(Rank r, double interior_seconds,
                           double boundary_seconds, double other_seconds,
                           WorkPhase phase) noexcept;

  /// One point-to-point message; `total_bytes` includes the envelope,
  /// `payload_bytes` is the encoded payload alone.
  void on_send(double time, Rank src, Rank dst, std::int64_t total_bytes,
               std::int64_t payload_bytes, std::int64_t records);

  /// One barrier / allreduce completing at `time`.
  void on_collective(double time);

  /// Fault-layer events; attribution follows FaultStats' documented charging
  /// (drop/duplicate to the sender, suppression to the receiver, retry and
  /// backoff to the retransmitting rank) at that rank's current round label.
  void on_drop(double time, Rank src, Rank dst, std::int64_t total_bytes);
  void on_duplicate(double time, Rank src, Rank dst, std::int64_t total_bytes);
  void on_corrupt(double time, Rank src, Rank dst, std::int64_t total_bytes);
  void on_dup_suppressed(double time, Rank dst);
  void on_corruption_detected(double time, Rank dst);
  void on_retry(double time, Rank src, Rank dst, int attempt);
  void on_backoff(Rank src, double seconds);

  [[nodiscard]] const CommBreakdown& breakdown() const noexcept {
    return breakdown_;
  }

 private:
  CommStats& round_slot(int round);
  FaultStats& fault_round_slot(int round);
  FaultStats& fault_rank_slot(Rank r);
  void emit_json(const std::string& line);

  TraceConfig config_;
  CommBreakdown breakdown_;
  std::vector<int> rank_round_;
  std::vector<WorkPhase> rank_phase_;
  /// Highest round label seen; collectives are attributed to it (they are
  /// global events, meaningful only for the BSP engine's global rounds).
  int global_round_ = 0;
  std::unique_ptr<std::ofstream> sink_;
};

}  // namespace pmc
