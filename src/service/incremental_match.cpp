#include "service/incremental_match.hpp"

#include <algorithm>
#include <memory>
#include <sstream>
#include <type_traits>
#include <utility>

#include "runtime/event_engine.hpp"
#include "support/error.hpp"

namespace pmc {

std::vector<VertexId> touched_vertices(const std::vector<EdgeUpdate>& updates) {
  std::vector<VertexId> touched;
  touched.reserve(updates.size() * 2);
  for (const EdgeUpdate& e : updates) {
    touched.push_back(e.u);
    touched.push_back(e.v);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  return touched;
}

void require_touched_list(std::span<const VertexId> touched,
                          VertexId num_vertices) {
  VertexId last = -1;
  for (const VertexId v : touched) {
    PMC_REQUIRE(v > last && v < num_vertices,
                "touched list must strictly ascend within [0, "
                    << num_vertices << "): " << v << " after " << last);
    last = v;
  }
}

IncrementalMatchProcess::IncrementalMatchProcess(
    const LocalGraph& lg, const DistMatchingOptions& options,
    const std::vector<VertexId>& prev_mate,
    const std::vector<VertexId>& touched)
    : MatchProcess(lg, options), prev_mate_(prev_mate), touched_(touched) {}

void IncrementalMatchProcess::start(EventContext& ctx) {
  ctx.set_phase(WorkPhase::kInterior);
  const VertexId n = lg_.num_owned();
  state_.assign(static_cast<std::size_t>(n), VState::kUndecided);
  mate_.assign(static_cast<std::size_t>(n), kNoVertex);
  cand_.assign(static_cast<std::size_t>(n), kNoVertex);
  ptr_.assign(static_cast<std::size_t>(n), 0);
  initialized_.assign(static_cast<std::size_t>(n), false);
  // Every ghost starts dead: the previous matching decided every vertex, so
  // only revived (invalidated) neighbors are negotiable. INVALIDATE records
  // revive them.
  ghost_dead_.assign(static_cast<std::size_t>(lg_.num_ghosts()), true);
  arc_requested_.assign(
      static_cast<std::size_t>(n > 0 ? lg_.offset_end(n - 1) : 0), false);
  arc_order_.resize(arc_requested_.size());  // sorted lazily, per invalidated
  invalidated_.assign(static_cast<std::size_t>(n), false);
  undecided_ = 0;

  // Seed the frozen state from the previous matching. The previous matching
  // was maximal, so every owned vertex was either matched or failed; a
  // matched vertex's mate stays unresolved until the closure reads it.
  for (VertexId v = 0; v < n; ++v) {
    if (prev_mate_[static_cast<std::size_t>(lg_.global_id(v))] == kNoVertex) {
      state_[static_cast<std::size_t>(v)] = VState::kFailed;
    } else {
      state_[static_cast<std::size_t>(v)] = VState::kMatched;
      mate_[static_cast<std::size_t>(v)] = kUnresolved;
    }
  }

  // Invalidate the owned seeds and close over them.
  for (const VertexId g : touched_) {
    const VertexId v = lg_.local_id(g);
    if (v != kNoVertex && !lg_.is_ghost(v)) invalidate(ctx, v);
  }
  drain_closure(ctx);
  flush(ctx);
}

VertexId IncrementalMatchProcess::frozen_mate(VertexId v) {
  VertexId& m = mate_[static_cast<std::size_t>(v)];
  if (m == kUnresolved) {
    // A matched cross neighbor may no longer be present on this rank (its
    // last cross edge was deleted): then m is kNoVertex, and v is a seed.
    m = lg_.local_id(prev_mate_[static_cast<std::size_t>(lg_.global_id(v))]);
  }
  return m;
}

void IncrementalMatchProcess::invalidate(EventContext& ctx, VertexId v) {
  if (invalidated_[static_cast<std::size_t>(v)]) return;
  invalidated_[static_cast<std::size_t>(v)] = true;
  invalidated_ids_.push_back(v);
  const VertexId old_mate = frozen_mate(v);
  state_[static_cast<std::size_t>(v)] = VState::kUndecided;
  mate_[static_cast<std::size_t>(v)] = kNoVertex;
  ++undecided_;

  // Rule (a): a matched pair dissolves as a unit. A cross mate dissolves on
  // its own rank (it is a seed, or our INVALIDATE's mate check catches it).
  if (old_mate != kNoVertex && !lg_.is_ghost(old_mate)) {
    closure_queue_.push_back(old_mate);
  }

  // Run the closure checks on v's local neighbors, and announce the revival
  // to every rank holding a ghost copy of v.
  for (EdgeId a = lg_.offset_begin(v); a < lg_.offset_end(v); ++a) {
    ctx.charge(1.0);
    const VertexId t = lg_.arc_target(a);
    if (!lg_.is_ghost(t) && closure_pulls(t, v, lg_.arc_weight(a))) {
      closure_queue_.push_back(t);
    }
  }
  for (const Rank r : lg_.boundary_ranks(v)) {
    enqueue_record(ctx, r, Invalidate{lg_.global_id(v)});
  }
}

bool IncrementalMatchProcess::closure_pulls(VertexId u, VertexId cause,
                                            Weight w_uc) {
  if (invalidated_[static_cast<std::size_t>(u)]) return false;
  const VState s = state_[static_cast<std::size_t>(u)];
  if (s == VState::kFailed) return true;  // rule (b)
  PMC_CHECK(s == VState::kMatched,
            "non-invalidated vertex neither matched nor failed");
  const VertexId m = frozen_mate(u);
  if (m == kNoVertex) return true;  // dangling mate: doomed anyway
  // Rule (a): the pair dissolved, on this rank or (for a cross pair, via
  // INVALIDATE) on the mate's.
  if (m == cause) return true;
  // Rule (c): does u prefer the revived neighbor over its mate, in the
  // protocol's arc order (weight descending, ties to the smaller id)?
  // A tolerant arc lookup: while the start() seed loop is still running, u
  // may be a not-yet-processed seed whose matched edge was deleted — then
  // the arc (u, m) no longer exists and the pair is doomed regardless.
  EdgeId arc_um = EdgeId{-1};
  for (EdgeId a = lg_.offset_begin(u); a < lg_.offset_end(u); ++a) {
    if (lg_.arc_target(a) == m) {
      arc_um = a;
      break;
    }
  }
  if (arc_um < 0) return true;
  const Weight w_um = lg_.arc_weight(arc_um);
  if (w_uc != w_um) return w_uc > w_um;
  return lg_.global_id(cause) < lg_.global_id(m);
}

void IncrementalMatchProcess::drain_closure(EventContext& ctx) {
  while (!closure_queue_.empty()) {
    const VertexId v = closure_queue_.front();
    closure_queue_.pop_front();
    invalidate(ctx, v);
  }
}

void IncrementalMatchProcess::handle(EventContext& ctx, Rank src,
                                     std::span<const std::byte> payload) {
  (void)src;
  handle_records<Request, Succeeded, Failed, Invalidate>(
      ctx, payload, [&](const auto& record) {
        if constexpr (std::is_same_v<std::decay_t<decltype(record)>,
                                     Invalidate>) {
          PMC_CHECK(phase_ == Phase::kClosure,
                    "INVALIDATE after the closure phase on rank "
                        << lg_.rank());
          handle_invalidate(ctx, record.vertex);
        } else {
          PMC_CHECK(phase_ == Phase::kMatch,
                    "matching record during the closure phase on rank "
                        << lg_.rank());
          on_record(ctx, record);
        }
      });
}

void IncrementalMatchProcess::handle_invalidate(EventContext& ctx,
                                                VertexId v_global) {
  const VertexId g = lg_.local_id(v_global);
  PMC_CHECK(g != kNoVertex && lg_.is_ghost(g),
            "INVALIDATE names unknown ghost " << v_global);
  const auto gidx = static_cast<std::size_t>(g - lg_.num_owned());
  PMC_CHECK(ghost_dead_[gidx], "duplicate INVALIDATE for " << v_global);
  ghost_dead_[gidx] = false;  // revived: negotiable again
  for (const auto& [u, arc] : lg_.ghost_incidence(g)) {
    ctx.charge(1.0);
    if (closure_pulls(u, g, lg_.arc_weight(arc))) closure_queue_.push_back(u);
  }
  drain_closure(ctx);
}

void IncrementalMatchProcess::idle(EventContext& ctx) {
  // Global quiescence with closure messages drained: every rank flips to
  // the re-match phase in the same fan-out, so no matching record can reach
  // a rank still in closure. A second idle would mean the §3.2 protocol
  // deadlocked, which the engine reports via debug_state().
  PMC_CHECK(phase_ == Phase::kClosure,
            "idle in the re-match phase on rank " << lg_.rank() << " ("
                                                  << debug_state() << ")");
  phase_ = Phase::kMatch;
  ctx.set_phase(WorkPhase::kInterior);
  // The graph changed under the invalidated vertices: re-sort their arcs
  // (frozen vertices never consult their arc order), then re-enter
  // candidate selection like the one-shot start(), in local-id order.
  std::sort(invalidated_ids_.begin(), invalidated_ids_.end());
  for (const VertexId v : invalidated_ids_) sort_arcs(ctx, v);
  for (const VertexId v : invalidated_ids_) {
    if (state_[static_cast<std::size_t>(v)] == VState::kUndecided &&
        !initialized_[static_cast<std::size_t>(v)]) {
      recompute_candidate(ctx, v);
      process_pending(ctx);
    }
  }
  flush(ctx);
}

bool IncrementalMatchProcess::done() const {
  return phase_ == Phase::kMatch && undecided_ == 0;
}

std::string IncrementalMatchProcess::debug_state() const {
  std::ostringstream oss;
  oss << (phase_ == Phase::kClosure ? "closure" : "re-match") << ", "
      << invalidated_ids_.size() << " invalidated, undecided " << undecided_
      << "/" << lg_.num_owned();
  return oss.str();
}

void IncrementalMatchProcess::collect(
    std::vector<VertexId>& global_mate) const {
  for (const VertexId v : invalidated_ids_) {
    global_mate[static_cast<std::size_t>(lg_.global_id(v))] =
        state_[static_cast<std::size_t>(v)] == VState::kMatched
            ? lg_.global_id(mate_[static_cast<std::size_t>(v)])
            : kNoVertex;
  }
}

IncrementalMatchResult match_incremental(const DistGraph& dist,
                                         const Matching& previous,
                                         const std::vector<VertexId>& touched,
                                         const DistMatchingOptions& options) {
  PMC_REQUIRE(static_cast<VertexId>(previous.mate.size()) ==
                  dist.num_global_vertices(),
              "previous matching covers "
                  << previous.mate.size() << " vertices, distribution has "
                  << dist.num_global_vertices());
  require_touched_list(touched, dist.num_global_vertices());
  EventEngine engine(options.model,
                     FabricConfig{options.jitter_seconds, options.jitter_seed,
                                  options.faults, options.trace},
                     options.exec);
  for (Rank r = 0; r < dist.num_ranks(); ++r) {
    engine.add_process(std::make_unique<IncrementalMatchProcess>(
        dist.local(r), options, previous.mate, touched));
  }
  IncrementalMatchResult result;
  result.run = engine.run();
  // Frozen pairs keep their previous mates: rule (a) invalidates both ends
  // of every dissolved pair, so each rank overwrites only its invalidated
  // vertices.
  result.matching = previous;
  for (Rank r = 0; r < dist.num_ranks(); ++r) {
    const auto& proc =
        static_cast<const IncrementalMatchProcess&>(engine.process(r));
    proc.collect(result.matching.mate);
    result.max_activations =
        std::max(result.max_activations, proc.activations());
    result.invalidated += proc.invalidated_count();
  }
  return result;
}

}  // namespace pmc
