#include "runtime/bsp_engine.hpp"

#include <algorithm>
#include <limits>

#include "support/error.hpp"

namespace pmc {

BspEngine::BspEngine(Rank num_ranks, MachineModel model, FabricConfig config,
                     ExecConfig exec)
    : fabric_(std::move(model), std::move(config)), backend_(exec) {
  PMC_REQUIRE(num_ranks >= 1, "need at least one rank");
  for (Rank r = 0; r < num_ranks; ++r) (void)fabric_.add_rank();
  inboxes_.resize(static_cast<std::size_t>(num_ranks));
}

void BspEngine::reject_corrupted(Rank dst,
                                 const CommFabric::SendReceipt& receipt,
                                 std::vector<std::byte> payload) {
  // Honest detection: physically flip a bit of the delivered copy and let
  // frame validation reject it (empty payloads have nothing to flip and are
  // rejected outright).
  if (!payload.empty()) corrupt_one_bit(payload, receipt.seq);
  PMC_CHECK(payload.empty() || !FrameReader(payload).valid(),
            "garbled frame passed checksum validation");
  fabric_.note({.kind = CommEvent::Kind::kCorruptDetected,
                .rank = dst,
                .time = fabric_.now(dst)});
}

void BspEngine::deliver(Rank dst, Rank src, double arrival,
                        std::int64_t records, std::vector<std::byte> payload) {
  BspMessage msg;
  msg.src = src;
  msg.arrival = arrival;
  msg.records = records;
  msg.payload = std::move(payload);
  // Insert keeping the inbox sorted by arrival; messages mostly arrive in
  // order so the scan from the back is near O(1).
  auto& inbox = inboxes_[static_cast<std::size_t>(dst)];
  auto pos = inbox.end();
  while (pos != inbox.begin() && std::prev(pos)->arrival > msg.arrival) {
    --pos;
  }
  inbox.insert(pos, std::move(msg));
}

std::vector<BspMessage> BspEngine::poll(Rank r) {
  auto& inbox = inboxes_[static_cast<std::size_t>(r)];
  const double now_r = fabric_.now(r);
  std::vector<BspMessage> out;
  while (!inbox.empty() && inbox.front().arrival <= now_r) {
    out.push_back(std::move(inbox.front()));
    inbox.pop_front();
  }
  return out;
}

double BspEngine::pending_horizon() const {
  // Each inbox is kept sorted by arrival (deliver() inserts in order), so
  // its latest pending arrival is its back() — O(P) total instead of the
  // O(P * inflight) rescan of every message.
  double horizon = 0.0;
  for (const auto& inbox : inboxes_) {
    if (!inbox.empty()) horizon = std::max(horizon, inbox.back().arrival);
  }
  return horizon;
}

void BspEngine::barrier() {
  fabric_.complete_collective(std::max(fabric_.max_time(), pending_horizon()));
}

std::vector<BspMessage> BspEngine::drain(Rank r) {
  auto& inbox = inboxes_[static_cast<std::size_t>(r)];
  std::vector<BspMessage> out(std::make_move_iterator(inbox.begin()),
                              std::make_move_iterator(inbox.end()));
  inbox.clear();
  // Receiving after a barrier: the rank has already waited past all
  // arrivals, so its clock does not move here.
  return out;
}

BspEngine::RankCtx::RankCtx(BspEngine& engine, Rank r)
    : rank_(r), lane_(engine.fabric_.make_lane(r)) {}

void BspEngine::RankCtx::charge(double work_units) {
  dirty_ = true;
  lane_.charge(work_units);
}

void BspEngine::RankCtx::charge(double work_units, WorkPhase phase) {
  dirty_ = true;
  lane_.charge(work_units, phase);
}

void BspEngine::RankCtx::send(Rank dst, std::vector<std::byte> payload,
                              std::int64_t records) {
  send(dst, std::move(payload), records, ReceiptFn{});
}

void BspEngine::RankCtx::send(Rank dst, std::vector<std::byte> payload,
                              std::int64_t records, ReceiptFn on_receipt) {
  dirty_ = true;
  sends_.push_back({dst, std::move(payload), records, lane_.begin_send(),
                    std::move(on_receipt)});
}

std::vector<BspMessage> BspEngine::RankCtx::poll() {
  PMC_REQUIRE(poll_allowed_,
              "RankCtx::poll() reads mid-superstep cross-rank state and is "
              "only available inside run_ranks_snapshot() phases");
  PMC_REQUIRE(!polled_,
              "RankCtx::poll() may be called at most once per superstep "
              "callback");
  // A poll after the clock has advanced could observe pre-existing arrivals
  // in (entry clock, advanced clock] that the entry-clock harvest cannot
  // contain; forbidding it keeps the harvest exact.
  PMC_REQUIRE(!dirty_,
              "RankCtx::poll() must precede every charge and send in the "
              "callback (it is resolved at the superstep-entry clock)");
  polled_ = true;
  return std::move(snapshot_);
}

void BspEngine::exchange(
    const std::function<void(RankCtx&, std::vector<BspMessage>)>& apply) {
  barrier();
  // Post-barrier drains touch only the rank's own inbox.
  run_ranks([&](RankCtx& ctx) { apply(ctx, drain(ctx.rank())); });
}

void BspEngine::run_ranks(const std::function<void(RankCtx&)>& body) {
  const Rank P = num_ranks();
  std::vector<RankCtx> ctxs;
  ctxs.reserve(static_cast<std::size_t>(P));
  for (Rank r = 0; r < P; ++r) ctxs.push_back(RankCtx(*this, r));
  // Rank callbacks run against their lanes (concurrently with a threaded
  // backend); the fabric itself is only read. Per-rank inboxes (exchange()
  // drains) are disjoint between callbacks.
  backend_.parallel_for(static_cast<std::size_t>(P),
                        [&](std::size_t i) { body(ctxs[i]); });
  // Merging in ascending rank order fixes the global order of sequence
  // numbers, FIFO channel state, stats and trace output.
  for (RankCtx& ctx : ctxs) merge(ctx);
}

bool BspEngine::snapshot_parallel_safe() const {
  const Rank P = num_ranks();
  const MachineModel& m = fabric_.model();
  // Lower bound on the arrival of anything rank s could send this
  // superstep, evaluated in the live send path's own floating-point op
  // order: begin_send() computes fl(clock + send_overhead) (a fault stall
  // can only push the clock later first), post_send_at() adds
  // message_seconds(payload) >= message_seconds(0) — monotone in the
  // payload under round-to-nearest — and everything after (jitter, delay,
  // receiver stall, FIFO ordering) only adds nonnegative cost or takes a
  // max. So fl(fl(clock_s + send_overhead) + message_seconds(0)) never
  // exceeds the true arrival.
  double prefix_min_bound = std::numeric_limits<double>::infinity();
  for (Rank r = 0; r < P; ++r) {
    const double clock_r = fabric_.now(r);
    // Rank r's poll could see a same-superstep send from some s < r: an
    // up-front harvest cannot reproduce that, so the whole superstep falls
    // back to rank-by-rank execution (all-or-nothing keeps the decision a
    // pure function of the entry clocks).
    if (!(clock_r < prefix_min_bound)) return false;
    const double bound_r = (clock_r + m.send_overhead) + m.message_seconds(0.0);
    prefix_min_bound = std::min(prefix_min_bound, bound_r);
  }
  return true;
}

void BspEngine::run_ranks_snapshot(const std::function<void(RankCtx&)>& body) {
  const Rank P = num_ranks();
  const auto harvested = [&](Rank r) {
    RankCtx ctx(*this, r);
    ctx.poll_allowed_ = true;
    ctx.snapshot_ = poll(r);
    return ctx;
  };
  if (!snapshot_parallel_safe()) {
    // Fallback: rank r harvests at its turn, after every s < r has merged,
    // so its poll sees their same-superstep arrivals. poll() precedes any
    // charge or send, so the harvest equals a live poll at the entry clock.
    // The safety check reads only rank clocks, so every thread count
    // reaches this branch for the same supersteps.
    ++snapshot_fallback_phases_;
    for (Rank r = 0; r < P; ++r) {
      RankCtx ctx = harvested(r);
      body(ctx);
      merge(ctx);
    }
    return;
  }
  // With no same-superstep arrival able to land at or before any rank's
  // entry clock, each rank's poll() result is exactly the set of
  // pre-existing messages already arrived — harvestable before compute
  // runs.
  ++snapshot_parallel_phases_;
  std::vector<RankCtx> ctxs;
  ctxs.reserve(static_cast<std::size_t>(P));
  for (Rank r = 0; r < P; ++r) ctxs.push_back(harvested(r));
  // Callbacks touch only their own lane and immutable snapshot inbox.
  backend_.parallel_for(static_cast<std::size_t>(P),
                        [&](std::size_t i) { body(ctxs[i]); });
  for (RankCtx& ctx : ctxs) merge(ctx);
}

void BspEngine::merge(RankCtx& ctx) {
  // A snapshot callback that never polled leaves its harvested messages
  // pending. Their arrivals are <= the rank's entry clock, which is below
  // every arrival still in (or about to enter) the inbox, so re-prepending
  // in original order preserves the sorted-inbox invariant.
  if (!ctx.polled_ && !ctx.snapshot_.empty()) {
    auto& inbox = inboxes_[static_cast<std::size_t>(ctx.rank_)];
    inbox.insert(inbox.begin(), std::make_move_iterator(ctx.snapshot_.begin()),
                 std::make_move_iterator(ctx.snapshot_.end()));
  }
  // Absorb the lane before replaying its sends: a send's dup-suppression
  // trace event reads the *receiver's* clock, which must already be final
  // for lower ranks and still pre-phase for higher ranks, at every thread
  // count.
  fabric_.absorb_lane(ctx.lane_);
  for (auto& s : ctx.sends_) {
    const auto receipt = fabric_.post_send_at(ctx.rank_, s.dst,
                                              s.payload.size(), s.records,
                                              s.send_time);
    // A duplicated copy is filtered at the receiver rather than delivered: a
    // copy straggling into a *later* round would carry a stale color and
    // could make conflict detection asymmetric. (The event engine's
    // transport does the same by sequence number; here the round structure
    // stands in for it.)
    if (receipt.duplicated) {
      fabric_.note({.kind = CommEvent::Kind::kDupSuppressed,
                    .rank = s.dst,
                    .time = fabric_.now(s.dst)});
    }
    // Detection precedes the receipt callback; the callback still sees the
    // *original* bytes, so only a copy is garbled.
    if (!receipt.dropped && receipt.corrupted) {
      reject_corrupted(s.dst, receipt, s.payload);
    }
    if (s.on_receipt) {
      s.on_receipt(receipt, std::span<const std::byte>(s.payload));
    }
    if (!receipt.dropped && !receipt.corrupted) {
      deliver(s.dst, ctx.rank_, receipt.arrival, s.records,
              std::move(s.payload));
    }
  }
  ctx.sends_.clear();
}

}  // namespace pmc
