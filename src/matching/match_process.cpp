#include "matching/match_process.hpp"

#include <algorithm>
#include <sstream>

#include "support/error.hpp"

namespace pmc {

MatchProcess::MatchProcess(const LocalGraph& lg,
                           const DistMatchingOptions& options)
    : lg_(lg),
      bundler_(options.bundled ? BundleMode::kBundled : BundleMode::kEager,
               lg.neighbor_ranks(), options.bundle_flush_bytes,
               options.codec) {}

void MatchProcess::sort_arcs(EventContext& ctx, VertexId v) {
  const EdgeId b = lg_.offset_begin(v);
  const EdgeId e = lg_.offset_end(v);
  for (EdgeId a = b; a < e; ++a) {
    arc_order_[static_cast<std::size_t>(a)] = static_cast<std::uint32_t>(a - b);
  }
  std::sort(arc_order_.begin() + b, arc_order_.begin() + e,
            [this, b](std::uint32_t x, std::uint32_t y) {
              const EdgeId ax = b + x;
              const EdgeId ay = b + y;
              const Weight wx = lg_.arc_weight(ax);
              const Weight wy = lg_.arc_weight(ay);
              if (wx != wy) return wx > wy;
              return lg_.global_id(lg_.arc_target(ax)) <
                     lg_.global_id(lg_.arc_target(ay));
            });
  ctx.charge(static_cast<double>(e - b));
}

void MatchProcess::start(EventContext& ctx) {
  ctx.set_phase(WorkPhase::kInterior);
  const VertexId n = lg_.num_owned();
  state_.assign(static_cast<std::size_t>(n), VState::kUndecided);
  mate_.assign(static_cast<std::size_t>(n), kNoVertex);
  cand_.assign(static_cast<std::size_t>(n), kNoVertex);
  ptr_.assign(static_cast<std::size_t>(n), 0);
  initialized_.assign(static_cast<std::size_t>(n), false);
  ghost_dead_.assign(static_cast<std::size_t>(lg_.num_ghosts()), false);
  arc_requested_.assign(static_cast<std::size_t>(
                            n > 0 ? lg_.offset_end(n - 1) : 0),
                        false);
  undecided_ = n;

  // Per-vertex arc order: weight descending, ties by smallest global label
  // of the neighbor (the paper's tie-breaking rule). Positions are stored
  // relative to the vertex's arc range to keep them 32-bit.
  arc_order_.resize(arc_requested_.size());
  for (VertexId v = 0; v < n; ++v) {
    sort_arcs(ctx, v);
  }

  // Initial candidates; reciprocal local pairs match as soon as the second
  // endpoint initializes, and cascades run through the pending queue
  // (the paper's inner loop over interior work).
  for (VertexId v = 0; v < n; ++v) {
    if (state_[static_cast<std::size_t>(v)] == VState::kUndecided &&
        !initialized_[static_cast<std::size_t>(v)]) {
      recompute_candidate(ctx, v);
      process_pending(ctx);
    }
  }
  flush(ctx);
}

void MatchProcess::handle(EventContext& ctx, Rank src,
                          std::span<const std::byte> payload) {
  (void)src;
  handle_records<Request, Succeeded, Failed>(
      ctx, payload, [&](const auto& record) { on_record(ctx, record); });
}

bool MatchProcess::done() const { return undecided_ == 0; }

std::string MatchProcess::debug_state() const {
  std::ostringstream oss;
  oss << "undecided " << undecided_ << "/" << lg_.num_owned();
  return oss.str();
}

void MatchProcess::collect(std::vector<VertexId>& global_mate) const {
  for (VertexId v = 0; v < lg_.num_owned(); ++v) {
    if (state_[static_cast<std::size_t>(v)] == VState::kMatched) {
      global_mate[static_cast<std::size_t>(lg_.global_id(v))] =
          lg_.global_id(mate_[static_cast<std::size_t>(v)]);
    }
  }
}

// ---- candidate maintenance -------------------------------------------

bool MatchProcess::target_dead(VertexId t) const {
  if (lg_.is_ghost(t)) {
    return ghost_dead_[static_cast<std::size_t>(t - lg_.num_owned())];
  }
  return state_[static_cast<std::size_t>(t)] != VState::kUndecided;
}

void MatchProcess::recompute_candidate(EventContext& ctx, VertexId v) {
  initialized_[static_cast<std::size_t>(v)] = true;
  const EdgeId b = lg_.offset_begin(v);
  const EdgeId deg = lg_.offset_end(v) - b;
  auto& p = ptr_[static_cast<std::size_t>(v)];
  while (p < deg) {
    const VertexId t =
        lg_.arc_target(b + arc_order_[static_cast<std::size_t>(b + p)]);
    if (!target_dead(t)) break;
    ++p;
    ctx.charge(1.0);
  }
  if (p == deg) {
    fail_vertex(ctx, v);
    return;
  }
  const EdgeId arc = b + arc_order_[static_cast<std::size_t>(b + p)];
  const VertexId c = lg_.arc_target(arc);
  cand_[static_cast<std::size_t>(v)] = c;
  if (!lg_.is_ghost(c)) {
    if (initialized_[static_cast<std::size_t>(c)] &&
        state_[static_cast<std::size_t>(c)] == VState::kUndecided &&
        cand_[static_cast<std::size_t>(c)] == v) {
      match_local(ctx, v, c);
    }
    return;
  }
  // Cross candidate: signal the matching preference (paper §3.2), then
  // complete immediately if the other side already requested us (R-set).
  enqueue_record(ctx, lg_.ghost_owner(c),
                 Request{lg_.global_id(v), lg_.global_id(c)});
  if (arc_requested_[static_cast<std::size_t>(arc)]) {
    match_cross(ctx, v, c);
  }
}

// ---- state transitions -------------------------------------------------

void MatchProcess::fail_vertex(EventContext& ctx, VertexId v) {
  state_[static_cast<std::size_t>(v)] = VState::kFailed;
  cand_[static_cast<std::size_t>(v)] = kNoVertex;
  --undecided_;
  notify_decided(ctx, v, Failed{lg_.global_id(v)}, kNoRank);
}

void MatchProcess::match_local(EventContext& ctx, VertexId a, VertexId b) {
  state_[static_cast<std::size_t>(a)] = VState::kMatched;
  state_[static_cast<std::size_t>(b)] = VState::kMatched;
  mate_[static_cast<std::size_t>(a)] = b;
  mate_[static_cast<std::size_t>(b)] = a;
  undecided_ -= 2;
  notify_decided(ctx, a, Succeeded{lg_.global_id(a), lg_.global_id(b)},
                 kNoRank);
  notify_decided(ctx, b, Succeeded{lg_.global_id(b), lg_.global_id(a)},
                 kNoRank);
}

void MatchProcess::match_cross(EventContext& ctx, VertexId v, VertexId ghost) {
  state_[static_cast<std::size_t>(v)] = VState::kMatched;
  mate_[static_cast<std::size_t>(v)] = ghost;
  --undecided_;
  // The ghost is now matched (to us): it is dead for every other owned
  // vertex. Its owner reaches the same conclusion from our REQUEST, so no
  // SUCCEEDED needs to travel to the mate's rank.
  ghost_died(ghost, /*skip=*/v);
  notify_decided(ctx, v, Succeeded{lg_.global_id(v), lg_.global_id(ghost)},
                 lg_.ghost_owner(ghost));
}

template <typename R>
void MatchProcess::notify_decided(EventContext& ctx, VertexId x,
                                  const R& record, Rank exclude_rank) {
  scratch_ranks_.clear();
  for (EdgeId a = lg_.offset_begin(x); a < lg_.offset_end(x); ++a) {
    ctx.charge(1.0);
    const VertexId t = lg_.arc_target(a);
    if (lg_.is_ghost(t)) {
      if (ghost_dead_[static_cast<std::size_t>(t - lg_.num_owned())]) {
        continue;
      }
      const Rank r = lg_.ghost_owner(t);
      if (r != exclude_rank) scratch_ranks_.push_back(r);
    } else if (state_[static_cast<std::size_t>(t)] == VState::kUndecided &&
               initialized_[static_cast<std::size_t>(t)] &&
               cand_[static_cast<std::size_t>(t)] == x) {
      pending_.push_back(t);
    }
  }
  std::sort(scratch_ranks_.begin(), scratch_ranks_.end());
  scratch_ranks_.erase(
      std::unique(scratch_ranks_.begin(), scratch_ranks_.end()),
      scratch_ranks_.end());
  for (Rank r : scratch_ranks_) {
    enqueue_record(ctx, r, record);
  }
}

void MatchProcess::ghost_died(VertexId ghost, VertexId skip) {
  const auto gidx = static_cast<std::size_t>(ghost - lg_.num_owned());
  if (ghost_dead_[gidx]) return;
  ghost_dead_[gidx] = true;
  for (const auto& [w, arc] : lg_.ghost_incidence(ghost)) {
    (void)arc;
    if (w == skip) continue;
    if (state_[static_cast<std::size_t>(w)] == VState::kUndecided &&
        initialized_[static_cast<std::size_t>(w)] &&
        cand_[static_cast<std::size_t>(w)] == ghost) {
      pending_.push_back(w);
    }
  }
}

void MatchProcess::process_pending(EventContext& ctx) {
  while (!pending_.empty()) {
    const VertexId v = pending_.front();
    pending_.pop_front();
    if (state_[static_cast<std::size_t>(v)] != VState::kUndecided) continue;
    // Only recompute when the current candidate is actually dead; the
    // vertex may have been re-queued after already moving on.
    const VertexId c = cand_[static_cast<std::size_t>(v)];
    if (c != kNoVertex && !target_dead(c)) continue;
    recompute_candidate(ctx, v);
  }
}

// ---- message handling ---------------------------------------------------

void MatchProcess::on_record(EventContext& ctx, const Request& request) {
  const VertexId gu = lg_.local_id(request.from);
  const VertexId v = lg_.local_id(request.to);
  PMC_CHECK(gu != kNoVertex && lg_.is_ghost(gu),
            "REQUEST names unknown ghost " << request.from);
  PMC_CHECK(v != kNoVertex && !lg_.is_ghost(v),
            "REQUEST targets non-owned vertex " << request.to);
  // Record the incoming preference on the (v, gu) arc — the R(v) set.
  const EdgeId arc = find_arc(v, gu);
  arc_requested_[static_cast<std::size_t>(arc)] = true;
  if (state_[static_cast<std::size_t>(v)] != VState::kUndecided) {
    // v already decided; the sender learns from our earlier notification.
    return;
  }
  if (initialized_[static_cast<std::size_t>(v)] &&
      cand_[static_cast<std::size_t>(v)] == gu) {
    match_cross(ctx, v, gu);  // handshake: two symmetric REQUESTs
  }
}

void MatchProcess::on_record(EventContext& ctx, const Succeeded& succeeded) {
  (void)ctx;
  const VertexId gx = lg_.local_id(succeeded.vertex);
  PMC_CHECK(gx != kNoVertex && lg_.is_ghost(gx),
            "SUCCEEDED names unknown ghost " << succeeded.vertex);
  const VertexId mate_local = lg_.local_id(succeeded.mate);
  // The mate can never be one of our owned vertices: the owner excludes
  // the mate's rank from SUCCEEDED (the handshake covers it).
  PMC_CHECK(mate_local == kNoVertex || lg_.is_ghost(mate_local),
            "unexpected SUCCEEDED for handshake mate " << succeeded.mate);
  ghost_died(gx, kNoVertex);
}

void MatchProcess::on_record(EventContext& ctx, const Failed& failed) {
  (void)ctx;
  const VertexId gx = lg_.local_id(failed.vertex);
  PMC_CHECK(gx != kNoVertex && lg_.is_ghost(gx),
            "FAILED names unknown ghost " << failed.vertex);
  ghost_died(gx, kNoVertex);
}

EdgeId MatchProcess::find_arc(VertexId v, VertexId t) const {
  for (EdgeId a = lg_.offset_begin(v); a < lg_.offset_end(v); ++a) {
    if (lg_.arc_target(a) == t) return a;
  }
  PMC_FAIL("arc (" << v << " -> " << t << ") not found on rank "
                   << lg_.rank());
}

// ---- outgoing records ---------------------------------------------------
// Aggregation is the runtime Bundler's job: bundled mode stages records
// per destination until flush() (one message per neighbor rank per
// activation, the paper's §3.3 bundling); eager mode sends each record on
// its own (the unbundled ablation).

void MatchProcess::flush(EventContext& ctx) {
  bundler_.flush(
      [&](Rank d, std::vector<std::byte> payload, std::int64_t records) {
        ctx.send(d, std::move(payload), records);
      });
}

}  // namespace pmc
