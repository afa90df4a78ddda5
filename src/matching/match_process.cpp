#include "matching/match_process.hpp"

#include <algorithm>
#include <sstream>

#include "support/error.hpp"

namespace pmc {

MatchProcess::MatchProcess(const LocalGraph& lg,
                           const DistMatchingOptions& options)
    : lg_(lg),
      bundled_(options.bundled),
      out_(lg.neighbor_ranks(), options.codec) {}

void MatchProcess::start(EventContext& ctx) {
  ctx.set_phase(WorkPhase::kInterior);
  const VertexId n = lg_.num_owned();
  state_.assign(static_cast<std::size_t>(n), VState::kUndecided);
  mate_.assign(static_cast<std::size_t>(n), narrow(kNoVertex));
  cand_.assign(static_cast<std::size_t>(n), narrow(kNoVertex));
  ptr_.assign(static_cast<std::size_t>(n), 0);
  ghost_dead_.assign(static_cast<std::size_t>(lg_.num_ghosts()), false);
  const auto arcs = static_cast<std::size_t>(n > 0 ? lg_.offset_end(n - 1) : 0);
  arc_requested_.assign(arcs, false);
  undecided_ = n;

  // Each row is ordered by weight descending, ties by the smallest global
  // label of the neighbor (the paper's tie-breaking rule), before any
  // proposal: deg(v) per row.
  for (VertexId v = 0; v < n; ++v) charge_row(ctx, v);

  // Initial candidates; reciprocal local pairs match as soon as the second
  // endpoint initializes, and cascades run through the pending queue
  // (the paper's inner loop over interior work).
  for (VertexId v = 0; v < n; ++v) {
    if (state_[static_cast<std::size_t>(v)] == VState::kUndecided &&
        cand_[static_cast<std::size_t>(v)] == kNoVertex) {
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

EdgeId MatchProcess::scan_row(EventContext& ctx, VertexId v) {
  const EdgeId b = lg_.offset_begin(v);
  const EdgeId e = lg_.offset_end(v);
  EdgeId best = -1;
  for (EdgeId a = b; a < e; ++a) {
    if (!target_dead(lg_.arc_target(a)) && (best < 0 || precedes(a, best))) {
      best = a;
    }
  }
  // Every arc that beats the best live one is dead, and stays dead: these
  // are the arcs the sorted walk passes, ptr_ of them already.
  auto beaten = static_cast<std::uint32_t>(e - b);
  if (best >= 0) {
    beaten = 0;
    for (EdgeId a = b; a < e; ++a) beaten += precedes(a, best) ? 1U : 0U;
  }
  auto& p = ptr_[static_cast<std::size_t>(v)];
  PMC_CHECK(beaten >= p, "vertex " << lg_.global_id(v)
                                   << "'s candidate moved up its order");
  for (; p < beaten; ++p) ctx.charge(1.0);
  return best;
}

void MatchProcess::recompute_candidate(EventContext& ctx, VertexId v) {
  const EdgeId arc = scan_row(ctx, v);
  if (arc < 0) {
    fail_vertex(ctx, v);
    return;
  }
  const VertexId c = lg_.arc_target(arc);
  cand_[static_cast<std::size_t>(v)] = narrow(c);
  if (!lg_.is_ghost(c)) {
    if (state_[static_cast<std::size_t>(c)] == VState::kUndecided &&
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
  cand_[static_cast<std::size_t>(v)] = narrow(kNoVertex);
  --undecided_;
  notify_decided(ctx, v, Failed{lg_.global_id(v)}, kNoRank);
}

void MatchProcess::match_local(EventContext& ctx, VertexId a, VertexId b) {
  state_[static_cast<std::size_t>(a)] = VState::kMatched;
  state_[static_cast<std::size_t>(b)] = VState::kMatched;
  mate_[static_cast<std::size_t>(a)] = narrow(b);
  mate_[static_cast<std::size_t>(b)] = narrow(a);
  undecided_ -= 2;
  notify_decided(ctx, a, Succeeded{lg_.global_id(a), lg_.global_id(b)},
                 kNoRank);
  notify_decided(ctx, b, Succeeded{lg_.global_id(b), lg_.global_id(a)},
                 kNoRank);
}

void MatchProcess::match_cross(EventContext& ctx, VertexId v, VertexId ghost) {
  state_[static_cast<std::size_t>(v)] = VState::kMatched;
  mate_[static_cast<std::size_t>(v)] = narrow(ghost);
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
               cand_[static_cast<std::size_t>(t)] == x) {
      pending_.push_back(narrow(t));
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
        cand_[static_cast<std::size_t>(w)] == ghost) {
      pending_.push_back(narrow(w));
    }
  }
}

void MatchProcess::process_pending(EventContext& ctx) {
  // A recompute may queue more vertices behind the one it serves.
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const VertexId v = pending_[i];
    if (state_[static_cast<std::size_t>(v)] != VState::kUndecided) continue;
    // Only recompute when the current candidate is actually dead; the
    // vertex may have been re-queued after already moving on.
    const VertexId c = cand_[static_cast<std::size_t>(v)];
    if (c != kNoVertex && !target_dead(c)) continue;
    recompute_candidate(ctx, v);
  }
  pending_.clear();
}

// ---- message handling ---------------------------------------------------

void MatchProcess::on_record(EventContext& ctx, const Request& request) {
  const VertexId gu = lg_.ghost_id(request.from);
  PMC_CHECK(gu != kNoVertex, "REQUEST names unknown ghost " << request.from);
  // Record the incoming preference on the (v, gu) arc — the R(v) set. The
  // ghost's incidence is in owned-id order, so in ascending global id, and
  // a vertex's first entry is its first arc into gu, the one find_arc
  // returns.
  const auto incidence = lg_.ghost_incidence(gu);
  const auto it = std::partition_point(
      incidence.begin(), incidence.end(),
      [&](const LocalGraph::IncidentArc& entry) {
        return lg_.global_id(entry.owned) < request.to;
      });
  VertexId v = kNoVertex;
  EdgeId arc = -1;
  if (it != incidence.end() && lg_.global_id(it->owned) == request.to) {
    v = it->owned;
    arc = it->arc;
  } else {
    // No owned arc into gu names `to`: raise why.
    v = lg_.owned_id(request.to);
    PMC_CHECK(v != kNoVertex,
              "REQUEST targets non-owned vertex " << request.to);
    arc = find_arc(v, gu);
  }
  arc_requested_[static_cast<std::size_t>(arc)] = true;
  if (state_[static_cast<std::size_t>(v)] != VState::kUndecided) {
    // v already decided; the sender learns from our earlier notification.
    return;
  }
  if (cand_[static_cast<std::size_t>(v)] == gu) {
    match_cross(ctx, v, gu);  // handshake: two symmetric REQUESTs
  }
}

void MatchProcess::on_record(EventContext& ctx, const Succeeded& succeeded) {
  (void)ctx;
  const VertexId gx = lg_.ghost_id(succeeded.vertex);
  PMC_CHECK(gx != kNoVertex,
            "SUCCEEDED names unknown ghost " << succeeded.vertex);
  // The mate can never be one of our owned vertices: the owner excludes
  // the mate's rank from SUCCEEDED (the handshake covers it).
  PMC_CHECK(lg_.owned_id(succeeded.mate) == kNoVertex,
            "unexpected SUCCEEDED for handshake mate " << succeeded.mate);
  ghost_died(gx, kNoVertex);
}

void MatchProcess::on_record(EventContext& ctx, const Failed& failed) {
  (void)ctx;
  const VertexId gx = lg_.ghost_id(failed.vertex);
  PMC_CHECK(gx != kNoVertex, "FAILED names unknown ghost " << failed.vertex);
  ghost_died(gx, kNoVertex);
}

EdgeId MatchProcess::find_arc(VertexId v, VertexId t) const {
  for (EdgeId a = lg_.offset_begin(v); a < lg_.offset_end(v); ++a) {
    if (lg_.arc_target(a) == t) return a;
  }
  PMC_FAIL("arc (" << v << " -> " << t << ") not found on rank "
                   << lg_.rank());
}

}  // namespace pmc
