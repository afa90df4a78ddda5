#include "runtime/event_engine.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "support/error.hpp"
#include "support/timer.hpp"

namespace pmc {

namespace {

/// Modelled wire overhead of the reliable transport (faults enabled only):
/// a kind tag plus the 8-byte channel sequence number on every data
/// message, and the same 12 bytes as an ack's whole payload.
constexpr std::size_t kTransportHeaderBytes = 12;
constexpr std::size_t kAckPayloadBytes = 12;

}  // namespace

Rank EventContext::num_ranks() const noexcept { return engine_->num_ranks(); }

EventContext::DeferredOp& EventContext::record(DeferredOp::Kind kind) {
  DeferredOp& op = ops_->emplace_back();
  op.kind = kind;
  op.note_time = lane_->now();
  return op;
}

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
  op.send_time = lane_->begin_send(exempt_first);
}

void EventContext::set_round(int round) {
  record(DeferredOp::Kind::kRound).round = round;
}

EventEngine::EventEngine(MachineModel model, FabricConfig config,
                         ExecConfig exec)
    : fabric_(std::move(model), std::move(config)),
      backend_(exec),
      transport_(fabric_.config().fault.enabled()) {
  // Minimum spacing between an event and any event its dispatch can
  // generate: every send pays the software overhead, then either the wire
  // latency (data/ack arrival) or a full retransmission timeout (retry
  // timer). Half of that bound is the window span — the margin keeps
  // floating-point associativity drift (computing horizon as W + span vs a
  // generated time as ((t + o) + alpha)) from ever pulling a generated event
  // inside its own window. A degenerate (all-zero) cost model has no
  // spacing: its windows hold one event each.
  const MachineModel& m = fabric_.model();
  double lookahead = m.latency;
  if (transport_) {
    lookahead = std::min(lookahead, fabric_.config().fault.rto_seconds);
  }
  lookahead += m.send_overhead;
  window_seconds_ = std::max(0.0, 0.5 * lookahead);
}

EventEngine::EventEngine(MachineModel model, double jitter_seconds,
                         std::uint64_t jitter_seed, TraceConfig trace)
    : EventEngine(std::move(model),
                  CommFabric::Config{jitter_seconds, jitter_seed,
                                     FaultConfig{}, std::move(trace)}) {}

Rank EventEngine::add_process(std::unique_ptr<Process> process) {
  PMC_REQUIRE(process != nullptr, "null process");
  PMC_REQUIRE(!ran_, "cannot add processes after run()");
  processes_.push_back(std::move(process));
  transport_state_.emplace_back();
  return fabric_.add_rank();
}

void EventEngine::push_event(Event ev) {
  ev.seq = order_seq_++;
  queue_.push(std::move(ev));
  ++events_posted_;
}

void EventEngine::enqueue_at(Rank src, Rank dst,
                             std::vector<std::byte> payload,
                             std::int64_t records, double send_time) {
  if (!transport_) {
    const auto receipt =
        fabric_.post_send_at(src, dst, payload.size(), records, send_time);
    Event ev;
    ev.time = receipt.arrival;
    ev.src = src;
    ev.dst = dst;
    ev.payload = std::move(payload);
    push_event(std::move(ev));
    return;
  }
  auto& sender = transport_state_[static_cast<std::size_t>(src)];
  const std::uint64_t tseq = sender.next_tseq[dst]++;
  Pending& entry = sender.unacked[dst][tseq];
  entry.payload = std::move(payload);
  entry.records = records;
  entry.attempt = 1;
  const FaultConfig& F = fabric_.config().fault;
  const bool exempt = entry.attempt >= F.max_attempts && F.reliable_tail;
  transmit_priced(src, dst, tseq, entry.payload, entry.records, entry.attempt,
                  send_time);
  // Exempt tail: delivery is guaranteed, drop the retransmission state (a
  // late ack for an earlier try is ignored harmlessly). Without the tail a
  // delivered final try just stops retrying; the entry stays until its ack
  // arrives, or inertly forever if that ack is lost.
  if (exempt) sender.unacked[dst].erase(tseq);
}

void EventEngine::transmit_priced(Rank src, Rank dst, std::uint64_t tseq,
                                  const std::vector<std::byte>& payload,
                                  std::int64_t records, int attempt,
                                  double send_time) {
  const FaultConfig& F = fabric_.config().fault;
  const bool final_attempt = attempt >= F.max_attempts;
  const bool exempt = final_attempt && F.reliable_tail;
  const auto receipt =
      fabric_.post_send_at(src, dst, payload.size() + kTransportHeaderBytes,
                           records, send_time, exempt);
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
    Event ev;
    ev.time = receipt.arrival;
    ev.src = src;
    ev.dst = dst;
    ev.payload = payload;  // keep the original for retransmission
    ev.tseq = tseq;
    ev.corrupted = receipt.corrupted;
    // Physically garble the delivered copy (never the retransmission
    // source) so the receiver's checksum check rejects it honestly.
    if (ev.corrupted && !ev.payload.empty()) {
      corrupt_one_bit(ev.payload, receipt.seq);
    }
    push_event(std::move(ev));
    if (receipt.duplicated) {
      Event dup;
      dup.time = receipt.duplicate_arrival;
      dup.src = src;
      dup.dst = dst;
      dup.payload = payload;
      dup.tseq = tseq;
      push_event(std::move(dup));
    }
  }
  if (!final_attempt) {
    Event timer;
    timer.kind = EventKind::kTimer;
    // The timer is armed at the send time: the recorded lane send time, not
    // the live clock, which has already absorbed the whole lane.
    timer.time =
        send_time + F.rto_seconds * std::pow(F.rto_backoff, attempt - 1);
    timer.src = dst;  // peer the pending message targets
    timer.dst = src;  // rank whose timer fires
    timer.tseq = tseq;
    push_event(std::move(timer));
  }
}

void EventEngine::replay_ack(Rank from, Rank to, std::uint64_t tseq,
                             double send_time) {
  // Acks ride the same lossy fabric (a lost ack is what makes duplicate
  // suppression necessary) but are never themselves retried.
  const auto receipt =
      fabric_.post_send_at(from, to, kAckPayloadBytes, 0, send_time);
  if (receipt.dropped) return;
  Event ev;
  ev.kind = EventKind::kAck;
  ev.time = receipt.arrival;
  ev.src = from;
  ev.dst = to;
  ev.tseq = tseq;
  // An ack's payload is modelled-only (no bytes to flip): the corrupted
  // flag alone marks it for rejection at the sender.
  ev.corrupted = receipt.corrupted;
  push_event(std::move(ev));
  if (receipt.duplicated) {
    Event dup = ev;
    dup.time = receipt.duplicate_arrival;
    dup.payload.clear();
    push_event(std::move(dup));
  }
}

void EventEngine::dispatch(const Event& ev, EventContext& ctx) {
  using Kind = EventContext::DeferredOp::Kind;
  CommFabric::Lane& lane = *ctx.lane_;
  switch (ev.kind) {
    case EventKind::kData: {
      lane.advance_to(ev.time);
      if (ev.corrupted) {
        // Honest detection: the delivered bytes themselves must fail frame
        // validation (empty payloads have nothing to flip and are rejected
        // outright). No ack — the sender's retry timer recovers.
        PMC_CHECK(ev.payload.empty() || !FrameReader(ev.payload).valid(),
                  "garbled frame passed checksum validation");
        ctx.record(Kind::kNoteCorruptDetected);
        return;
      }
      if (transport_) {
        auto& receiver = transport_state_[static_cast<std::size_t>(ev.dst)];
        const bool fresh = receiver.delivered[ev.src].insert(ev.tseq).second;
        // Always (re-)ack: the sender may be retrying because an earlier
        // ack was lost.
        const double ack_time = lane.begin_send(false);
        EventContext::DeferredOp& ack = ctx.record(Kind::kAck);
        ack.peer = ev.src;
        ack.tseq = ev.tseq;
        ack.send_time = ack_time;
        if (!fresh) {
          ctx.record(Kind::kNoteDupSuppressed);
          return;
        }
      }
      processes_[static_cast<std::size_t>(ev.dst)]->handle(ctx, ev.src,
                                                           ev.payload);
      return;
    }
    case EventKind::kAck: {
      lane.advance_to(ev.time);
      if (ev.corrupted) {
        // A garbled ack is rejected, not trusted: the pending entry stays
        // and the data message will be retransmitted (then re-acked).
        ctx.record(Kind::kNoteCorruptDetected);
        return;
      }
      auto& unacked = transport_state_[static_cast<std::size_t>(ev.dst)].unacked;
      auto chan = unacked.find(ev.src);
      if (chan != unacked.end()) chan->second.erase(ev.tseq);
      return;
    }
    case EventKind::kTimer: {
      const Rank sender = ev.dst;
      const Rank peer = ev.src;
      auto& unacked = transport_state_[static_cast<std::size_t>(sender)].unacked;
      auto chan = unacked.find(peer);
      if (chan == unacked.end()) return;
      auto it = chan->second.find(ev.tseq);
      if (it == chan->second.end()) return;  // acked meanwhile: timer no-ops
      // Still unacknowledged: the rank sat out the timeout, then retries.
      const double waited = ev.time - lane.now();
      if (waited > 0.0) ctx.record(Kind::kNoteBackoff).seconds = waited;
      lane.advance_to(ev.time);
      Pending& entry = it->second;
      entry.attempt += 1;
      EventContext::DeferredOp& retry = ctx.record(Kind::kNoteRetry);
      retry.peer = peer;
      retry.attempt = entry.attempt;
      const FaultConfig& F = fabric_.config().fault;
      const bool final_attempt = entry.attempt >= F.max_attempts;
      const bool exempt = final_attempt && F.reliable_tail;
      const double send_time = lane.begin_send(exempt);
      // Snapshot the message: a later ack in the same window (processed by
      // this same shard) may erase the entry before the merge replays the
      // retransmission.
      EventContext::DeferredOp& resend = ctx.record(Kind::kRetransmit);
      resend.peer = peer;
      resend.payload = entry.payload;
      resend.records = entry.records;
      resend.attempt = entry.attempt;
      resend.tseq = ev.tseq;
      resend.send_time = send_time;
      // See enqueue_at(): the exempt tail's delivery is guaranteed, so the
      // retransmission state goes now.
      if (exempt) chan->second.erase(ev.tseq);
      return;
    }
  }
}

void EventEngine::dispatch_window() {
  // The events of one window, in (time, seq) pop order — the order
  // one-at-a-time dispatch would have applied them, restored at merge time.
  // The head always opens the window, so a zero span yields one-event
  // windows.
  window_.clear();
  const double horizon = queue_.top().time + window_seconds_;
  do {
    // priority_queue::top is const; the move is safe because the element is
    // popped immediately after.
    window_.push_back(std::move(const_cast<Event&>(queue_.top())));
    queue_.pop();
  } while (!queue_.empty() && queue_.top().time < horizon);

  // Shard by destination rank (each event mutates only its destination's
  // clock, process and transport slot): a stable sort of the window by
  // destination makes each shard a contiguous run, in ascending rank order
  // (so a multi-shard failure deterministically surfaces the lowest rank's
  // error) and in pop order within the shard.
  order_.resize(window_.size());
  for (std::uint32_t i = 0; i < order_.size(); ++i) order_[i] = i;
  std::stable_sort(order_.begin(), order_.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return window_[a].dst < window_[b].dst;
                   });
  shard_begin_.clear();
  for (std::size_t k = 0; k < order_.size(); ++k) {
    if (k == 0 || window_[order_[k]].dst != window_[order_[k - 1]].dst) {
      shard_begin_.push_back(k);
    }
  }
  const std::size_t shards = shard_begin_.size();
  shard_begin_.push_back(order_.size());

  // Run the shards (concurrently with a threaded backend): each against a
  // private lane, recording per-event op frames. The shared fabric and
  // other ranks' transport slots are only read.
  std::vector<CommFabric::Lane> lanes(shards);
  if (frames_.size() < window_.size()) frames_.resize(window_.size());
  backend_.parallel_for(shards, [this, &lanes](std::size_t s) {
    lanes[s] = fabric_.make_lane(window_[order_[shard_begin_[s]]].dst);
    for (std::size_t k = shard_begin_[s]; k < shard_begin_[s + 1]; ++k) {
      EventContext ctx(*this, lanes[s], frames_[order_[k]]);
      dispatch(window_[order_[k]], ctx);
    }
  });

  // Merge: install the lanes' final accounting, then replay every event's
  // recorded effects in the window's (time, seq) order — so sequence
  // numbers, jitter and fault verdicts, FIFO channel state and trace output
  // all land exactly as under one-at-a-time dispatch.
  for (const CommFabric::Lane& lane : lanes) fabric_.absorb_lane(lane);
  for (std::size_t i = 0; i < window_.size(); ++i) {
    replay_ops(window_[i].dst, frames_[i]);
  }
}

void EventEngine::replay_ops(Rank rank,
                             std::vector<EventContext::DeferredOp>& ops) {
  using Kind = EventContext::DeferredOp::Kind;
  for (EventContext::DeferredOp& op : ops) {
    switch (op.kind) {
      case Kind::kSend:
        enqueue_at(rank, op.peer, std::move(op.payload), op.records,
                   op.send_time);
        break;
      case Kind::kRound:
        fabric_.set_round(rank, op.round);
        break;
      case Kind::kAck:
        replay_ack(rank, op.peer, op.tseq, op.send_time);
        break;
      case Kind::kRetransmit:
        transmit_priced(rank, op.peer, op.tseq, op.payload, op.records,
                        op.attempt, op.send_time);
        break;
      case Kind::kNoteBackoff:
        fabric_.note_backoff(rank, op.seconds);
        break;
      case Kind::kNoteRetry:
        fabric_.note_retry_at(op.note_time, rank, op.peer, op.attempt);
        break;
      case Kind::kNoteDupSuppressed:
        fabric_.note_dup_suppressed_at(op.note_time, rank);
        break;
      case Kind::kNoteCorruptDetected:
        fabric_.note_corruption_detected_at(op.note_time, rank);
        break;
    }
  }
  ops.clear();
}

void EventEngine::fan_out(const std::vector<Rank>& ranks, FanPhase phase) {
  std::vector<CommFabric::Lane> lanes;
  lanes.reserve(ranks.size());
  if (frames_.size() < ranks.size()) frames_.resize(ranks.size());
  std::vector<EventContext> ctxs;
  ctxs.reserve(ranks.size());
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    lanes.push_back(fabric_.make_lane(ranks[i]));
    ctxs.push_back(EventContext(*this, lanes.back(), frames_[i]));
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
    replay_ops(ranks[i], frames_[i]);
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
    while (!queue_.empty()) dispatch_window();
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
    if (queue_.empty() && events_posted_ == posted_before &&
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
