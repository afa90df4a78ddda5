// Communication and run statistics reported by the simulated runtime.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace pmc {

/// Message traffic counters accumulated over a run.
struct CommStats {
  std::int64_t messages = 0;  ///< Point-to-point messages sent.
  std::int64_t bytes = 0;     ///< Payload + envelope bytes sent.
  /// Encoded payload bytes only (bytes minus the modelled envelopes) — the
  /// wire-codec ablation compares this across codecs.
  std::int64_t payload_bytes = 0;
  std::int64_t records = 0;   ///< Algorithm-level records inside messages.
  std::int64_t collectives = 0;  ///< Barriers / allreduces performed.

  void operator+=(const CommStats& other) noexcept {
    messages += other.messages;
    bytes += other.bytes;
    payload_bytes += other.payload_bytes;
    records += other.records;
    collectives += other.collectives;
  }

  [[nodiscard]] std::string to_string() const;
};

/// Number of power-of-two message-size histogram buckets. Bucket i counts
/// messages whose total (payload + envelope) size lands in [2^i, 2^(i+1));
/// the last bucket absorbs everything larger.
inline constexpr std::size_t kMessageSizeBuckets = 24;

/// Fault-injection and recovery counters (all zero when the fault layer is
/// disabled). Drops/duplicates are charged to the *sending* rank (the fabric
/// injected the fault on its message); suppressed duplicates to the
/// *receiving* rank (its transport filtered the copy); retries and backoff
/// to the rank whose transport re-sent.
struct FaultStats {
  std::int64_t drops = 0;           ///< Messages the fabric dropped.
  std::int64_t duplicates = 0;      ///< Messages the fabric duplicated.
  std::int64_t dup_suppressed = 0;  ///< Duplicate copies filtered on receive.
  /// Messages the fabric garbled in flight (charged to the sender, like
  /// drops/duplicates).
  std::int64_t corruptions = 0;
  /// Garbled frames the receiver's checksum validation rejected (charged to
  /// the receiver, like dup_suppressed). Equals `corruptions` in aggregate:
  /// a single flipped bit never survives the FNV-1a check.
  std::int64_t corruptions_detected = 0;
  std::int64_t retries = 0;         ///< Transport retransmissions.
  double backoff_seconds = 0.0;     ///< Total time spent in retry backoff.

  void operator+=(const FaultStats& other) noexcept {
    drops += other.drops;
    duplicates += other.duplicates;
    dup_suppressed += other.dup_suppressed;
    corruptions += other.corruptions;
    corruptions_detected += other.corruptions_detected;
    retries += other.retries;
    backoff_seconds += other.backoff_seconds;
  }

  [[nodiscard]] bool any() const noexcept {
    return drops != 0 || duplicates != 0 || dup_suppressed != 0 ||
           corruptions != 0 || corruptions_detected != 0 || retries != 0 ||
           backoff_seconds != 0.0;
  }
};

/// Fine-grained view of a run's communication, filled by the fabric's
/// instrumentation layer (runtime/trace.hpp): who sent (per rank), when in
/// the algorithm (per round), how big (size histogram), and how the charged
/// compute splits between interior and boundary work.
struct CommBreakdown {
  /// Traffic attributed to the *sending* rank (collectives to every rank).
  std::vector<CommStats> per_rank;
  /// Traffic attributed to the sender's algorithm round at send time.
  /// Matching uses the sender's activation depth; coloring uses the
  /// speculative-coloring round.
  std::vector<CommStats> per_round;
  /// Message counts per power-of-two total-size bucket (kMessageSizeBuckets).
  std::vector<std::int64_t> message_size_histogram;
  /// Charged compute seconds per rank, split by work phase.
  std::vector<double> interior_seconds;
  std::vector<double> boundary_seconds;
  std::vector<double> other_seconds;
  /// Injected faults and recovery work, attributed like the CommStats above:
  /// per sending/retrying rank and per that rank's round label at the time.
  /// Both stay empty-summing (all zeros) when fault injection is off.
  std::vector<FaultStats> per_rank_faults;
  std::vector<FaultStats> per_round_faults;

  /// Histogram bucket for a message of `bytes` total size.
  [[nodiscard]] static std::size_t size_bucket(std::int64_t bytes) noexcept;

  /// Sum of the per-rank fault counters (whole-run fault totals).
  [[nodiscard]] FaultStats total_faults() const noexcept;
};

/// Distribution of per-rank *compute* time (charged work only, excluding
/// waits) — the load-balance view of a run.
struct LoadStats {
  double min_seconds = 0.0;
  double max_seconds = 0.0;
  double mean_seconds = 0.0;

  /// max / mean; 1.0 = perfectly balanced (and for empty runs).
  [[nodiscard]] double imbalance() const noexcept {
    return mean_seconds > 0.0 ? max_seconds / mean_seconds : 1.0;
  }
};

/// Outcome of a simulated distributed run.
struct RunResult {
  double sim_seconds = 0.0;   ///< Modelled parallel time (max rank clock).
  double wall_seconds = 0.0;  ///< Real time the simulation itself took.
  CommStats comm;
  LoadStats load;             ///< Per-rank compute-time distribution.
  int rounds = 0;             ///< Algorithm-level outer rounds (if meaningful).
  CommBreakdown breakdown;    ///< Per-rank / per-round instrumentation.
};

}  // namespace pmc
