#include "runtime/event_engine.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <sstream>
#include <utility>

#include "support/error.hpp"
#include "support/timer.hpp"

namespace pmc {

namespace {

/// Modelled wire overhead of the reliable transport (faults enabled only):
/// a kind tag plus the 8-byte channel sequence number on every data
/// message, and the same 12 bytes as an ack's whole payload.
constexpr std::size_t kTransportHeaderBytes = 12;
constexpr std::size_t kAckPayloadBytes = 12;

/// Retransmission timer: attempt k re-sends kRtoSeconds * 2^(k-1) after it
/// was sent. Sized for blue_gene_p-scale latencies, the first timeout fires
/// at ~7x the one-way latency.
constexpr double kRtoSeconds = 25e-6;

}  // namespace

void EventContext::send(Rank dst, std::vector<std::byte> payload,
                        std::int64_t records) {
  // With the reliable transport, a one-attempt budget makes the very first
  // transmit the (fault-exempt) reliable tail, which skips the stall wait.
  const FaultConfig& F = engine_->fabric_.config().fault;
  const bool exempt_first =
      engine_->transport_ && F.max_attempts == 1 && F.reliable_tail;
  DeferredOp& op = record(DeferredOp::Kind::kSend);
  op.peer = dst;
  op.payload = std::move(payload);
  op.records = records;
  op.time = lane_->begin_send(exempt_first);
}

void EventContext::set_round(int round) {
  note(CommEvent::Kind::kRound).value = round;
}

EventEngine::EventEngine(MachineModel model, FabricConfig config,
                         ExecConfig exec)
    : fabric_(std::move(model), std::move(config)),
      backend_(exec),
      transport_(fabric_.config().fault.enabled()) {
  // Minimum spacing between an event and any event its dispatch can
  // generate: every send pays the software overhead, then either the wire
  // latency (data/ack arrival) or a full retransmission timeout (retry
  // timer). Half of that bound is the bucket width, so a successor of any
  // event in bucket k lands at least a whole bucket past bucket k's end —
  // a margin no floating-point drift in ((t + o) + alpha) can close. A
  // degenerate (all-zero) cost model has no spacing: its buckets hold one
  // instant each.
  const MachineModel& m = fabric_.model();
  double lookahead = m.latency;
  if (transport_) {
    lookahead = std::min(lookahead, kRtoSeconds);
  }
  lookahead += m.send_overhead;
  window_seconds_ = std::max(0.0, 0.5 * lookahead);
}

Rank EventEngine::add_process(std::unique_ptr<Process> process) {
  PMC_REQUIRE(process != nullptr, "null process");
  PMC_REQUIRE(!ran_, "cannot add processes after run()");
  processes_.push_back(std::move(process));
  channels_.emplace_back();
  return fabric_.add_rank();
}

void EventEngine::push_event(const Event& ev) {
  // Event times are never negative, so truncation is floor; and with a zero
  // window the bit pattern orders like the value (+ 0.0 folds -0.0 into 0).
  const std::int64_t key =
      window_seconds_ > 0.0
          ? static_cast<std::int64_t>(ev.time / window_seconds_)
          : std::bit_cast<std::int64_t>(ev.time + 0.0);
  // Descending keys: the buckets above `key` come first.
  auto it = std::partition_point(
      calendar_.begin(), calendar_.end(),
      [key](const Bucket& b) { return b.key > key; });
  if (it == calendar_.end() || it->key != key) {
    it = calendar_.insert(it, Bucket{key, std::exchange(spare_, {})});
  }
  it->events.push_back(ev);
  ++events_posted_;
}

EventEngine::Pending& EventEngine::Channel::issue() {
  if (next - base == ring.size()) {
    // Full: double the ring, re-placing each live tseq by the wider mask.
    std::vector<Pending> wider(std::max<std::size_t>(4, 2 * ring.size()));
    for (std::uint64_t t = base; t < next; ++t) {
      wider[t & (wider.size() - 1)] = ring[t & (ring.size() - 1)];
    }
    ring = std::move(wider);
  }
  Pending& entry = ring[next++ & (ring.size() - 1)];
  entry = Pending{};
  return entry;
}

EventEngine::Pending* EventEngine::Channel::pending(
    std::uint64_t tseq) noexcept {
  if (settled(tseq)) return nullptr;
  return &ring[tseq & (ring.size() - 1)];
}

bool EventEngine::Channel::settled(std::uint64_t tseq) const noexcept {
  return tseq < base || tseq >= next ||
         ring[tseq & (ring.size() - 1)].frame == FrameStore::kNone;
}

FrameStore::Handle EventEngine::Channel::retire(std::uint64_t tseq) noexcept {
  Pending* entry = pending(tseq);
  if (entry == nullptr) return FrameStore::kNone;
  // The entry may wait behind an older one; its frame need not.
  const FrameStore::Handle frame =
      std::exchange(entry->frame, FrameStore::kNone);
  while (base != next && settled(base)) ++base;
  return frame;
}

bool EventEngine::Channel::deliver(std::uint64_t tseq) {
  if (tseq < floor) return false;
  const auto it = std::lower_bound(above.begin(), above.end(), tseq);
  if (it != above.end() && *it == tseq) return false;
  if (tseq != floor) {
    above.insert(it, tseq);
    return true;
  }
  // The floor itself arrived: advance over the run of tseqs it now joins.
  ++floor;
  auto run = above.begin();
  while (run != above.end() && *run == floor) {
    ++run;
    ++floor;
  }
  above.erase(above.begin(), run);
  return true;
}

EventEngine::Channel& EventEngine::channel(Rank rank, Rank peer) {
  std::vector<Channel>& list = channels_[static_cast<std::size_t>(rank)];
  auto it = std::lower_bound(
      list.begin(), list.end(), peer,
      [](const Channel& c, Rank p) { return c.peer < p; });
  if (it == list.end() || it->peer != peer) {
    it = list.insert(it, Channel{});
    it->peer = peer;
  }
  return *it;
}

const EventEngine::Channel* EventEngine::find_channel(Rank rank,
                                                      Rank peer) const {
  const std::vector<Channel>& list = channels_[static_cast<std::size_t>(rank)];
  const auto it = std::lower_bound(
      list.begin(), list.end(), peer,
      [](const Channel& c, Rank p) { return c.peer < p; });
  return it == list.end() || it->peer != peer ? nullptr : &*it;
}

void EventEngine::enqueue_at(Rank src, Rank dst,
                             std::vector<std::byte> payload,
                             std::int64_t records,
                             CommFabric::SendTime send_time) {
  const std::size_t bytes = payload.size();
  const FrameStore::Handle frame = store_.add(std::move(payload));
  if (!transport_) {
    // The data event is the frame's one holder.
    const auto receipt =
        fabric_.post_send_at(src, dst, bytes, records, send_time);
    push_event({receipt.arrival, 0, frame, src, dst, EventKind::kData, false});
    return;
  }
  // The retransmission entry is the frame's first holder; each delivered
  // copy adds one.
  Channel& chan = channel(src, dst);
  const std::uint64_t tseq = chan.next;
  Pending& entry = chan.issue();
  entry.frame = frame;
  entry.records = records;
  entry.attempt = 1;
  transmit_priced(src, dst, tseq, frame, records, 1, send_time);
  // A final try arms no timer, so nothing reads its entry again: the
  // retransmission state goes now (a late ack finds it gone harmlessly).
  if (fabric_.config().fault.max_attempts <= 1) {
    store_.release(chan.retire(tseq));
  }
}

void EventEngine::transmit_priced(Rank src, Rank dst, std::uint64_t tseq,
                                  FrameStore::Handle frame,
                                  std::int64_t records, int attempt,
                                  CommFabric::SendTime send_time) {
  const FaultConfig& F = fabric_.config().fault;
  const bool final_attempt = attempt >= F.max_attempts;
  const bool exempt = final_attempt && F.reliable_tail;
  const std::size_t bytes = store_.size(frame);
  const auto receipt =
      fabric_.post_send_at(src, dst, bytes + kTransportHeaderBytes, records,
                           send_time, exempt);
  if (receipt.dropped) {
    if (final_attempt) {
      // reliable_tail is off and the last try was lost: no further recovery
      // is possible, fail loudly rather than hang or silently diverge.
      PMC_FAIL("retry budget exhausted: rank " << src << " -> rank " << dst
               << " tseq " << tseq << " lost after " << attempt
               << " attempts");
    }
  } else {
    if (receipt.corrupted && final_attempt) {
      // A corrupted copy will be rejected at the receiver, so without the
      // reliable tail (an exempt send is never corrupted) the message is as
      // lost as a drop — same loud failure.
      PMC_FAIL("retry budget exhausted: rank " << src << " -> rank " << dst
               << " tseq " << tseq << " garbled after " << attempt
               << " attempts");
    }
    // Physically garble a private copy of the delivered bytes (never the
    // shared frame a retransmission or duplicate reads) so the receiver's
    // checksum check rejects it honestly; an empty frame has no bit to
    // flip.
    FrameStore::Handle delivered = frame;
    if (receipt.corrupted && bytes != 0) {
      delivered = store_.corrupted_copy(frame, receipt.seq);
    } else {
      store_.reference(frame);
    }
    push_event({receipt.arrival, tseq, delivered, src, dst, EventKind::kData,
                receipt.corrupted});
    if (receipt.duplicated) {
      store_.reference(frame);
      push_event({receipt.duplicate_arrival, tseq, frame, src, dst,
                  EventKind::kData, false});
    }
  }
  if (!final_attempt) {
    // The timer is armed at the send time: the recorded lane send time, not
    // the live clock, which has already absorbed the whole lane. It fires
    // at the sender (dst = src) and names the peer the message targets.
    push_event({send_time.seconds() + std::ldexp(kRtoSeconds, attempt - 1),
                tseq, FrameStore::kNone, /*src=*/dst, /*dst=*/src,
                EventKind::kTimer, false});
  }
}

void EventEngine::replay_ack(Rank from, Rank to, std::uint64_t tseq,
                             CommFabric::SendTime send_time) {
  // Acks ride the same lossy fabric (a lost ack is what makes duplicate
  // suppression necessary) but are never themselves retried.
  const auto receipt =
      fabric_.post_send_at(from, to, kAckPayloadBytes, 0, send_time);
  if (receipt.dropped) return;
  // An ack's payload is modelled-only (no bytes to flip): the corrupted
  // flag alone marks it for rejection at the sender.
  push_event({receipt.arrival, tseq, FrameStore::kNone, from, to,
              EventKind::kAck, receipt.corrupted});
  if (receipt.duplicated) {
    push_event({receipt.duplicate_arrival, tseq, FrameStore::kNone, from, to,
                EventKind::kAck, false});
  }
}

void EventEngine::dispatch(const Event& ev, EventContext& ctx) {
  using Kind = EventContext::DeferredOp::Kind;
  CommFabric::Lane& lane = *ctx.lane_;
  switch (ev.kind) {
    case EventKind::kData: {
      lane.advance_to(ev.time);
      const std::span<const std::byte> payload = store_.bytes(ev.frame);
      if (ev.corrupted) {
        // Honest detection: the delivered bytes themselves must fail frame
        // validation (empty payloads have nothing to flip and are rejected
        // outright). No ack — the sender's retry timer recovers.
        PMC_CHECK(payload.empty() || !FrameReader(payload).valid(),
                  "garbled frame passed checksum validation");
        ctx.note(CommEvent::Kind::kCorruptDetected);
        return;
      }
      if (transport_) {
        const bool fresh = channel(ev.dst, ev.src).deliver(ev.tseq);
        // Always (re-)ack: the sender may be retrying because an earlier
        // ack was lost.
        const CommFabric::SendTime ack_time = lane.begin_send(false);
        EventContext::DeferredOp& ack = ctx.record(Kind::kAck);
        ack.peer = ev.src;
        ack.tseq = ev.tseq;
        ack.time = ack_time;
        if (!fresh) {
          ctx.note(CommEvent::Kind::kDupSuppressed);
          return;
        }
      }
      processes_[static_cast<std::size_t>(ev.dst)]->handle(ctx, ev.src,
                                                           payload);
      return;
    }
    case EventKind::kAck: {
      lane.advance_to(ev.time);
      if (ev.corrupted) {
        // A garbled ack is rejected, not trusted: the pending entry stays
        // and the data message will be retransmitted (then re-acked).
        ctx.note(CommEvent::Kind::kCorruptDetected);
        return;
      }
      release_at_merge(ctx, channel(ev.dst, ev.src).retire(ev.tseq));
      return;
    }
    case EventKind::kTimer: {
      const Rank sender = ev.dst;
      const Rank peer = ev.src;
      Channel& chan = channel(sender, peer);
      Pending* entry = chan.pending(ev.tseq);
      if (entry == nullptr) return;  // acked meanwhile: timer no-ops
      // Still unacknowledged: the rank sat out the timeout, then retries.
      const double waited = ev.time - lane.now();
      if (waited > 0.0) ctx.note(CommEvent::Kind::kBackoff).seconds = waited;
      lane.advance_to(ev.time);
      entry->attempt += 1;
      EventContext::DeferredOp& retry = ctx.note(CommEvent::Kind::kRetry);
      retry.peer = peer;
      retry.value = entry->attempt;
      const FaultConfig& F = fabric_.config().fault;
      const bool final_attempt = entry->attempt >= F.max_attempts;
      const bool exempt = final_attempt && F.reliable_tail;
      const CommFabric::SendTime send_time = lane.begin_send(exempt);
      // The resend names the entry's frame. A later ack in the same window
      // (processed by this same shard) may retire the entry, but the
      // release it records replays after this resend.
      EventContext::DeferredOp& resend = ctx.record(Kind::kRetransmit);
      resend.peer = peer;
      resend.frame = entry->frame;
      resend.records = entry->records;
      resend.value = entry->attempt;
      resend.tseq = ev.tseq;
      resend.time = send_time;
      // See enqueue_at(): after the final try the entry goes now.
      if (final_attempt) release_at_merge(ctx, chan.retire(ev.tseq));
      return;
    }
  }
}

void EventEngine::release_at_merge(EventContext& ctx,
                                   FrameStore::Handle frame) {
  if (frame == FrameStore::kNone) return;
  ctx.record(EventContext::DeferredOp::Kind::kRelease).frame = frame;
}

void EventEngine::dispatch_window() {
  // The lowest bucket is the window. Bucket keys grow with time, so its
  // events precede every other queued event in (time, seq) order; and none
  // of their successors can join it (DESIGN.md §5c): a successor lands in a
  // later bucket or — with a zero window — in a fresh bucket for the same
  // instant, which is then the lowest one.
  spare_ = std::move(window_);
  spare_.clear();
  window_ = std::move(calendar_.back().events);
  calendar_.pop_back();
  if (transport_) {
    // A timer whose entry is already gone can only no-op: dispatch would
    // return before touching its lane or recording anything. Gone is
    // permanent, so it is dropped here, before the sort and the shards.
    // The drop keeps push order (seq order) among the rest.
    std::erase_if(window_, [this](const Event& ev) {
      if (ev.kind != EventKind::kTimer) return false;
      const Channel* chan = find_channel(ev.dst, ev.src);
      return chan == nullptr || chan->settled(ev.tseq);
    });
    if (window_.empty()) return;
  }
  const auto n = static_cast<std::uint32_t>(window_.size());

  sort_window();

  // Shard by destination rank (each event mutates only its destination's
  // clock, process and transport channels): a counting sort of the replay
  // positions by destination is stable, so each shard is a contiguous run,
  // in ascending rank order (so a multi-shard failure deterministically
  // surfaces the lowest rank's error) and in replay order within the shard.
  shard_fill_.assign(static_cast<std::size_t>(num_ranks()), 0);
  for (const Event& ev : window_) {
    ++shard_fill_[static_cast<std::size_t>(ev.dst)];
  }
  shard_rank_.clear();
  shard_begin_.clear();
  std::uint32_t filled = 0;
  for (Rank r = 0; r < num_ranks(); ++r) {
    std::uint32_t& fill = shard_fill_[static_cast<std::size_t>(r)];
    if (fill == 0) continue;
    shard_rank_.push_back(r);
    shard_begin_.push_back(filled);
    filled += std::exchange(fill, filled);
  }
  const std::size_t shards = shard_rank_.size();
  shard_begin_.push_back(n);
  by_shard_.resize(n);
  for (std::uint32_t k = 0; k < n; ++k) {
    const Rank dst = window_[replay_order_[k].index].dst;
    by_shard_[shard_fill_[static_cast<std::size_t>(dst)]++] = k;
  }

  // Run the shards (concurrently with a threaded backend): each against a
  // private lane, recording one op frame per event, indexed by replay
  // position. The shared fabric and other ranks' channels are only read.
  std::vector<CommFabric::Lane> lanes(shards);
  if (op_frames_.size() < n) op_frames_.resize(n);
  backend_.parallel_for(shards, [this, &lanes](std::size_t s) {
    lanes[s] = fabric_.make_lane(shard_rank_[s]);
    for (std::size_t k = shard_begin_[s]; k < shard_begin_[s + 1]; ++k) {
      const std::uint32_t pos = by_shard_[k];
      EventContext ctx(*this, lanes[s], op_frames_[pos]);
      dispatch(window_[replay_order_[pos].index], ctx);
    }
  });

  // Merge: install the lanes' final accounting, then replay every event's
  // recorded effects in the window's (time, seq) order — so sequence
  // numbers, jitter and fault verdicts, FIFO channel state and trace output
  // all land exactly as under one-at-a-time dispatch.
  for (const CommFabric::Lane& lane : lanes) fabric_.absorb_lane(lane);
  for (std::uint32_t k = 0; k < n; ++k) {
    replay_ops(window_[replay_order_[k].index].dst, op_frames_[k]);
  }
  // The dispatched data events drop their hold on the frames they carried.
  for (const Event& ev : window_) {
    if (ev.frame != FrameStore::kNone) store_.release(ev.frame);
  }
}

void EventEngine::sort_window() {
  // Replay order: (time, seq). A bucket fills in push order, so an event's
  // index in it ranks its seq, and a stable sort by time alone keeps equal
  // times in seq order. A non-negative double's bit pattern orders like its
  // value (+ 0.0 folds -0.0 into 0), so an LSD radix sort of the patterns
  // does it: one stable counting pass per byte in which they differ.
  const auto n = static_cast<std::uint32_t>(window_.size());
  replay_order_.resize(n);
  std::uint64_t any = 0;
  std::uint64_t all = ~std::uint64_t{0};
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto bits = std::bit_cast<std::uint64_t>(window_[i].time + 0.0);
    replay_order_[i] = {bits, i};
    any |= bits;
    all &= bits;
  }
  sort_buffer_.resize(n);
  for (int shift = 0; shift < 64; shift += 8) {
    if (((any ^ all) >> shift & 0xff) == 0) continue;
    std::array<std::uint32_t, 257> start{};
    for (const TimeKey& key : replay_order_) {
      ++start[(key.time_bits >> shift & 0xff) + 1];
    }
    for (std::size_t d = 1; d < start.size(); ++d) start[d] += start[d - 1];
    for (const TimeKey& key : replay_order_) {
      sort_buffer_[start[key.time_bits >> shift & 0xff]++] = key;
    }
    replay_order_.swap(sort_buffer_);
  }
}

void EventEngine::replay_ops(Rank rank,
                             std::vector<EventContext::DeferredOp>& ops) {
  using Kind = EventContext::DeferredOp::Kind;
  using SendTime = CommFabric::SendTime;
  for (EventContext::DeferredOp& op : ops) {
    switch (op.kind) {
      case Kind::kSend:
        enqueue_at(rank, op.peer, std::move(op.payload), op.records,
                   std::get<SendTime>(op.time));
        break;
      case Kind::kAck:
        replay_ack(rank, op.peer, op.tseq, std::get<SendTime>(op.time));
        break;
      case Kind::kRetransmit:
        transmit_priced(rank, op.peer, op.tseq, op.frame, op.records,
                        op.value, std::get<SendTime>(op.time));
        break;
      case Kind::kRelease:
        store_.release(op.frame);
        break;
      case Kind::kNote:
        fabric_.note({.kind = op.note,
                      .rank = rank,
                      .peer = op.peer,
                      .value = op.value,
                      .time = std::get<double>(op.time),
                      .seconds = op.seconds});
        break;
    }
  }
  ops.clear();
}

void EventEngine::fan_out(const std::vector<Rank>& ranks, FanPhase phase) {
  std::vector<CommFabric::Lane> lanes;
  lanes.reserve(ranks.size());
  if (op_frames_.size() < ranks.size()) op_frames_.resize(ranks.size());
  std::vector<EventContext> ctxs;
  ctxs.reserve(ranks.size());
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    lanes.push_back(fabric_.make_lane(ranks[i]));
    ctxs.push_back(EventContext(*this, lanes.back(), op_frames_[i]));
  }
  // Callbacks run against their lanes (concurrently with a threaded
  // backend; the shared fabric is only read); the rank-ordered merge below
  // restores the global order of sequence numbers, transport state and
  // trace output.
  backend_.parallel_for(ctxs.size(), [&](std::size_t i) {
    Process& p = *processes_[static_cast<std::size_t>(ranks[i])];
    if (phase == FanPhase::kStart) {
      p.start(ctxs[i]);
    } else {
      p.idle(ctxs[i]);
    }
  });
  for (std::size_t i = 0; i < ctxs.size(); ++i) {
    fabric_.absorb_lane(lanes[i]);
    replay_ops(ranks[i], op_frames_[i]);
  }
}

RunResult EventEngine::run() {
  PMC_REQUIRE(!ran_, "EventEngine::run() may only be called once");
  PMC_REQUIRE(!processes_.empty(), "no processes registered");
  ran_ = true;
  WallTimer wall;

  {
    std::vector<Rank> all(static_cast<std::size_t>(num_ranks()));
    for (Rank r = 0; r < num_ranks(); ++r) {
      all[static_cast<std::size_t>(r)] = r;
    }
    fan_out(all, FanPhase::kStart);
  }

  while (true) {
    while (!calendar_.empty()) dispatch_window();
    bool all_done = true;
    for (const auto& p : processes_) {
      if (!p->done()) {
        all_done = false;
        break;
      }
    }
    if (all_done) break;

    // Quiescent but unfinished: give stuck ranks a chance to make progress.
    // Progress = new messages or a done-state change; otherwise deadlock.
    const std::uint64_t posted_before = events_posted_;
    Rank done_before = 0;
    for (const auto& p : processes_) {
      if (p->done()) ++done_before;
    }
    std::vector<Rank> stuck;
    for (Rank r = 0; r < num_ranks(); ++r) {
      if (!processes_[static_cast<std::size_t>(r)]->done()) stuck.push_back(r);
    }
    fan_out(stuck, FanPhase::kIdle);
    Rank done_after = 0;
    for (const auto& p : processes_) {
      if (p->done()) ++done_after;
    }
    if (calendar_.empty() && events_posted_ == posted_before &&
        done_after == done_before) {
      std::ostringstream oss;
      oss << "distributed computation deadlocked; unfinished ranks:";
      int listed = 0;
      for (Rank r = 0; r < num_ranks() && listed < 8; ++r) {
        if (!processes_[static_cast<std::size_t>(r)]->done()) {
          oss << " [rank " << r << ": "
              << processes_[static_cast<std::size_t>(r)]->debug_state() << "]";
          ++listed;
        }
      }
      PMC_FAIL(oss.str());
    }
  }

  RunResult result;
  fabric_.export_into(result);
  result.wall_seconds = wall.seconds();
  return result;
}

}  // namespace pmc
