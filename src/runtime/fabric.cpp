#include "runtime/fabric.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace pmc {

namespace {

/// Uniform double in [0, 1) from a 64-bit hash (same construction as the
/// jitter draw: top 53 bits scaled by 2^-53).
double unit_from(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// Salts separating the per-message fault sub-streams. One base hash per
// message (from the fault seed and the global send sequence) is re-mixed
// with a distinct salt per decision, so e.g. raising drop_rate does not
// reshuffle which messages get duplicated.
constexpr std::uint64_t kDelaySalt = 0x9E3779B97F4A7C15ULL;
constexpr std::uint64_t kDelayAmountSalt = 0xBF58476D1CE4E5B9ULL;
constexpr std::uint64_t kDropSalt = 0x94D049BB133111EBULL;
constexpr std::uint64_t kDupSalt = 0xD6E8FEB86659FD93ULL;
constexpr std::uint64_t kDupDelaySalt = 0xA5CB3D9FB523AE64ULL;
constexpr std::uint64_t kCorruptSalt = 0x2545F4914F6CDD1DULL;

}  // namespace

CommFabric::CommFabric(MachineModel model, Config config)
    : model_(std::move(model)),
      config_(std::move(config)),
      trace_(config_.trace) {
  PMC_REQUIRE(config_.jitter_seconds >= 0.0, "negative jitter");
  const FaultConfig& F = config_.fault;
  PMC_REQUIRE(F.drop_rate >= 0.0 && F.drop_rate <= 1.0,
              "drop_rate outside [0,1]: " << F.drop_rate);
  PMC_REQUIRE(F.duplicate_rate >= 0.0 && F.duplicate_rate <= 1.0,
              "duplicate_rate outside [0,1]: " << F.duplicate_rate);
  PMC_REQUIRE(F.delay_rate >= 0.0 && F.delay_rate <= 1.0,
              "delay_rate outside [0,1]: " << F.delay_rate);
  PMC_REQUIRE(F.corrupt_rate >= 0.0 && F.corrupt_rate <= 1.0,
              "corrupt_rate outside [0,1]: " << F.corrupt_rate);
  PMC_REQUIRE(F.max_extra_delay_seconds >= 0.0, "negative fault delay bound");
  PMC_REQUIRE(F.delay_rate == 0.0 || F.max_extra_delay_seconds > 0.0,
              "delay_rate > 0 needs max_extra_delay_seconds > 0");
  PMC_REQUIRE(F.max_attempts >= 1, "max_attempts must be >= 1");
  for (const StallWindow& w : F.stalls) {
    PMC_REQUIRE(w.start >= 0.0 && w.duration >= 0.0,
                "stall window with negative start or duration");
  }
}

double CommFabric::stall_clear(Rank r, double t) const {
  // Windows are few and may chain or overlap; iterate to a fixed point.
  bool moved = true;
  while (moved) {
    moved = false;
    for (const StallWindow& w : config_.fault.stalls) {
      if (w.rank != r) continue;
      if (t >= w.start && t < w.start + w.duration) {
        t = w.start + w.duration;
        moved = true;
      }
    }
  }
  return t;
}

Rank CommFabric::add_rank() {
  clocks_.push_back(0.0);
  compute_seconds_.push_back(0.0);
  channel_arrivals_.emplace_back();
  trace_.add_rank();
  return static_cast<Rank>(clocks_.size()) - 1;
}

double CommFabric::max_time() const {
  if (clocks_.empty()) return 0.0;
  return *std::max_element(clocks_.begin(), clocks_.end());
}

CommFabric::SendReceipt CommFabric::post_send_at(Rank src, Rank dst,
                                                 std::size_t payload_bytes,
                                                 std::int64_t records,
                                                 SendTime send,
                                                 bool fault_exempt) {
  PMC_REQUIRE(src >= 0 && src < num_ranks(), "send from invalid rank " << src);
  PMC_REQUIRE(dst >= 0 && dst < num_ranks(), "send to invalid rank " << dst);
  PMC_REQUIRE(dst != src, "send to self (rank " << src << ")");
  const double send_time = send.seconds();
  const FaultConfig& F = config_.fault;
  const bool faulty = F.enabled() && !fault_exempt;
  double arrival =
      send_time + model_.message_seconds(static_cast<double>(payload_bytes));
  if (config_.jitter_seconds > 0.0) {
    const std::uint64_t h =
        splitmix64(config_.jitter_seed ^ splitmix64(send_seq_));
    arrival += config_.jitter_seconds * static_cast<double>(h >> 11) *
               0x1.0p-53;
  }

  SendReceipt receipt;
  if (faulty) {
    // All verdicts come from one base hash per message, salted per decision
    // (see kDropSalt et al.) — deterministic in (fault seed, send_seq_).
    const std::uint64_t base = splitmix64(F.seed ^ splitmix64(send_seq_));
    if (F.delay_rate > 0.0 &&
        unit_from(splitmix64(base ^ kDelaySalt)) < F.delay_rate) {
      arrival += F.max_extra_delay_seconds *
                 unit_from(splitmix64(base ^ kDelayAmountSalt));
    }
    receipt.dropped = F.drop_rate > 0.0 &&
                      unit_from(splitmix64(base ^ kDropSalt)) < F.drop_rate;
    // Corruption only makes sense for messages that arrive; a corrupted
    // message is never also duplicated (one failure mode per message keeps
    // the recovery paths analyzable, and with corrupt_rate == 0 the drop and
    // duplicate verdict streams are unchanged).
    receipt.corrupted =
        !receipt.dropped && F.corrupt_rate > 0.0 &&
        unit_from(splitmix64(base ^ kCorruptSalt)) < F.corrupt_rate;
    if (!receipt.dropped && !receipt.corrupted && F.duplicate_rate > 0.0 &&
        unit_from(splitmix64(base ^ kDupSalt)) < F.duplicate_rate) {
      receipt.duplicated = true;
      receipt.duplicate_arrival =
          arrival + F.max_extra_delay_seconds *
                        unit_from(splitmix64(base ^ kDupDelaySalt));
    }
    // A stalled receiver cannot accept deliveries until its window clears.
    arrival = stall_clear(dst, arrival);
  }

  // FIFO per channel: a message may not overtake an earlier one on the same
  // (src, dst) pair (MPI non-overtaking rule). Dropped messages never arrive
  // and so never constrain the channel; duplicate copies are a network
  // artifact outside the FIFO guarantee (they may overtake later sends) but
  // never precede their own original.
  if (!receipt.dropped) {
    auto& channels = channel_arrivals_[static_cast<std::size_t>(src)];
    auto it = std::lower_bound(
        channels.begin(), channels.end(), dst,
        [](const ChannelArrival& c, Rank d) { return c.dst < d; });
    if (it == channels.end() || it->dst != dst) {
      channels.insert(it, ChannelArrival{dst, arrival});
    } else {
      arrival = std::max(arrival, it->arrival);
      it->arrival = arrival;
    }
    if (receipt.duplicated) {
      receipt.duplicate_arrival =
          stall_clear(dst, std::max(receipt.duplicate_arrival, arrival));
    }
  }

  CommEvent event{.kind = CommEvent::Kind::kSend,
                  .rank = src,
                  .peer = dst,
                  .time = send_time,
                  .bytes = static_cast<std::int64_t>(payload_bytes) +
                           static_cast<std::int64_t>(model_.header_bytes),
                  .payload = static_cast<std::int64_t>(payload_bytes),
                  .records = records};
  trace_.record(event);
  // A message gets at most one verdict: one more event on the same message.
  if (receipt.dropped || receipt.corrupted || receipt.duplicated) {
    event.kind = receipt.dropped     ? CommEvent::Kind::kDrop
                 : receipt.corrupted ? CommEvent::Kind::kCorrupt
                                     : CommEvent::Kind::kDuplicate;
    trace_.record(event);
  }

  receipt.arrival = arrival;
  receipt.seq = send_seq_++;
  return receipt;
}

CommFabric::Lane::Lane(const CommFabric& fabric, Rank r)
    : fabric_(&fabric),
      rank_(r),
      seconds_per_work_(fabric.model_.seconds_per_work),
      speedup_(fabric.model_.thread_speedup()),
      clock_(fabric.now(r)),
      compute_seconds_(fabric.compute_seconds_[static_cast<std::size_t>(r)]),
      interior_seconds_(
          fabric.breakdown().interior_seconds[static_cast<std::size_t>(r)]),
      boundary_seconds_(
          fabric.breakdown().boundary_seconds[static_cast<std::size_t>(r)]),
      other_seconds_(
          fabric.breakdown().other_seconds[static_cast<std::size_t>(r)]),
      phase_(fabric.trace_.phase(r)) {}

CommFabric::SendTime CommFabric::Lane::begin_send(bool fault_exempt) {
  // A stalled sender cannot inject into the network until the window clears
  // (stalls also cover the exempt path: the rank itself is down, not just
  // the lossy link).
  if (fabric_->config_.fault.enabled() && !fault_exempt) {
    clock_ = std::max(clock_, fabric_->stall_clear(rank_, clock_));
  }
  // Sender pays the per-message software overhead (LogP "o") before the
  // message enters the network — the cost message bundling amortizes.
  clock_ += fabric_->model_.send_overhead;
  return SendTime(clock_);
}

void CommFabric::absorb_lane(const Lane& lane) {
  PMC_REQUIRE(lane.fabric_ == this, "absorbing a lane from another fabric");
  const auto i = static_cast<std::size_t>(lane.rank_);
  clocks_[i] = lane.clock_;
  compute_seconds_[i] = lane.compute_seconds_;
  trace_.absorb_rank_compute(lane.rank_, lane.interior_seconds_,
                             lane.boundary_seconds_, lane.other_seconds_,
                             lane.phase_);
}

void CommFabric::complete_collective(double horizon) {
  horizon += model_.collective_seconds(num_ranks());
  std::fill(clocks_.begin(), clocks_.end(), horizon);
  trace_.record({.kind = CommEvent::Kind::kCollective, .time = horizon});
}

LoadStats CommFabric::load_stats() const {
  LoadStats load;
  if (compute_seconds_.empty()) return load;
  const auto [mn, mx] =
      std::minmax_element(compute_seconds_.begin(), compute_seconds_.end());
  load.min_seconds = *mn;
  load.max_seconds = *mx;
  double total = 0.0;
  for (double s : compute_seconds_) total += s;
  load.mean_seconds = total / static_cast<double>(num_ranks());
  return load;
}

void CommFabric::export_into(RunResult& run) {
  trace_.flush();
  run.sim_seconds = max_time();
  run.comm = trace_.comm();
  run.load = load_stats();
  run.breakdown = trace_.breakdown();
}

}  // namespace pmc
