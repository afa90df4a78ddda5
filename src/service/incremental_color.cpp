#include "service/incremental_color.hpp"

#include <algorithm>
#include <numeric>

#include "coloring/color_exchange.hpp"
#include "coloring/sequential.hpp"
#include "runtime/bsp_engine.hpp"
#include "runtime/fabric.hpp"
#include "runtime/serialize.hpp"
#include "service/incremental_match.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"

namespace pmc {

Coloring canonical_coloring(const Graph& g, std::uint64_t seed) {
  const VertexId n = g.num_vertices();
  std::vector<VertexId> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), VertexId{0});
  std::sort(order.begin(), order.end(), [seed](VertexId a, VertexId b) {
    return wins_priority(a, b, seed);
  });
  Coloring result;
  result.color.assign(static_cast<std::size_t>(n), kNoColor);
  ColorChooser chooser(ColorStrategy::kFirstFit);
  for (const VertexId v : order) {
    // Descending priority order: every already-colored neighbor has higher
    // priority, so greedy first-fit is exactly the canonical fit.
    for (const VertexId u : g.neighbors(v)) {
      const Color cu = result.color[static_cast<std::size_t>(u)];
      if (cu != kNoColor) chooser.forbid(cu);
    }
    result.color[static_cast<std::size_t>(v)] = chooser.choose(nullptr);
  }
  return result;
}

namespace {

/// Per-rank working state of the canonical chaotic iteration.
struct CanonState {
  const LocalGraph* lg = nullptr;
  /// Colors of owned and ghost vertices (local ids).
  std::vector<Color> color;
  /// Owned vertices to (re)color this round, sorted by local id.
  std::vector<VertexId> to_color;
  /// Owned vertices whose stored color changed this round.
  std::vector<VertexId> local_changed;
  /// Ghost vertices whose stored color changed this round (via exchange).
  std::vector<VertexId> ghost_changed;
  /// Boundary vertices announced this round, in announcement order — the
  /// deterministic scan list for the lost-announcement repair.
  std::vector<VertexId> announced;
  ColorChooser chooser{ColorStrategy::kFirstFit};
  FanoutStage stage;
};

/// Canonical first-fit for owned vertex v: forbids only the known colors of
/// strictly higher-priority neighbors. Returns the fit; adds deg(v) + 1 to
/// *work.
Color canonical_fit(CanonState& st, VertexId v, std::uint64_t seed,
                    double* work) {
  const LocalGraph& lg = *st.lg;
  const VertexId gv = lg.global_id(v);
  for (const VertexId u : lg.neighbors(v)) {
    const Color cu = st.color[static_cast<std::size_t>(u)];
    if (cu == kNoColor) continue;
    if (wins_priority(lg.global_id(u), gv, seed)) st.chooser.forbid(cu);
  }
  *work += static_cast<double>(lg.degree(v)) + 1.0;
  return st.chooser.choose(nullptr);
}

IncrementalColorResult run_canonical(const DistGraph& dist,
                                     const Coloring* previous,
                                     const std::vector<VertexId>* touched,
                                     const DistColoringOptions& options) {
  PMC_REQUIRE(options.superstep_size >= 1, "superstep size must be >= 1");
  WallTimer wall;
  const Rank P = dist.num_ranks();
  BspEngine engine(P, options.model,
                   FabricConfig{0.0, 0, options.faults, options.trace},
                   options.exec);
  const bool faults_on = engine.faults_enabled();
  const std::uint64_t seed = options.seed;

  std::vector<CanonState> states(static_cast<std::size_t>(P));
  for (Rank r = 0; r < P; ++r) {
    CanonState& st = states[static_cast<std::size_t>(r)];
    const LocalGraph& lg = dist.local(r);
    st.lg = &lg;
    st.stage = FanoutStage(P, lg.neighbor_ranks(), options.codec);
    st.color.assign(static_cast<std::size_t>(lg.num_local()), kNoColor);
    if (previous != nullptr) {
      // Warm start: owned and ghost colors from the previous coloring —
      // every rank sees the same globally consistent state.
      for (VertexId v = 0; v < lg.num_local(); ++v) {
        st.color[static_cast<std::size_t>(v)] =
            previous->color[static_cast<std::size_t>(lg.global_id(v))];
      }
      for (const VertexId g : *touched) {
        const VertexId v = lg.local_id(g);
        if (v != kNoVertex && !lg.is_ghost(v)) st.to_color.push_back(v);
      }
      std::sort(st.to_color.begin(), st.to_color.end());
    } else {
      st.to_color.resize(static_cast<std::size_t>(lg.num_owned()));
      std::iota(st.to_color.begin(), st.to_color.end(), VertexId{0});
    }
  }

  IncrementalColorResult result;
  LostColorSets lost(static_cast<std::size_t>(P));
  std::vector<std::int64_t> recolored(static_cast<std::size_t>(P), 0);
  std::vector<std::int64_t> reentries(static_cast<std::size_t>(P), 0);

  const auto apply_exchange = [&](BspEngine::RankCtx& ctx,
                                  std::vector<BspMessage> msgs) {
    CanonState& st = states[static_cast<std::size_t>(ctx.rank())];
    for (const BspMessage& msg : msgs) {
      apply_color_records(*st.lg, st.color, msg, options.comm_mode,
                          &st.ghost_changed);
    }
  };

  while (true) {
    VertexId max_todo = 0;
    for (const auto& st : states) {
      max_todo = std::max(max_todo, static_cast<VertexId>(st.to_color.size()));
    }
    if (max_todo == 0) break;
    PMC_REQUIRE(result.rounds < options.max_rounds,
                "canonical coloring failed to converge in "
                    << options.max_rounds << " rounds");
    engine.fabric().set_round_all(result.rounds);

    // ---- Recolor phase (synchronous supersteps) -----------------------
    const VertexId steps =
        (max_todo + options.superstep_size - 1) / options.superstep_size;
    for (VertexId k = 0; k < steps; ++k) {
      engine.run_ranks([&](BspEngine::RankCtx& ctx) {
        const Rank r = ctx.rank();
        CanonState& st = states[static_cast<std::size_t>(r)];
        const LocalGraph& lg = *st.lg;
        const auto begin = static_cast<std::size_t>(k * options.superstep_size);
        if (begin >= st.to_color.size()) return;
        const auto end =
            std::min(st.to_color.size(),
                     begin + static_cast<std::size_t>(options.superstep_size));
        for (std::size_t i = begin; i < end; ++i) {
          const VertexId v = st.to_color[i];
          const bool boundary = lg.is_boundary(v);
          double work = 0.0;
          const Color fit = canonical_fit(st, v, seed, &work);
          ctx.charge(work,
                     boundary ? WorkPhase::kBoundary : WorkPhase::kInterior);
          auto& slot = st.color[static_cast<std::size_t>(v)];
          if (slot == fit) continue;  // already canonical: nothing to tell
          slot = fit;
          st.local_changed.push_back(v);
          ++recolored[static_cast<std::size_t>(r)];
          if (!boundary) continue;
          st.announced.push_back(v);
          const VertexId global = lg.global_id(v);
          if (options.comm_mode == CommMode::kBroadcastUnion) {
            st.stage.stage_union(global, fit);
          } else {
            for (const Rank dst : lg.boundary_ranks(v)) {
              st.stage.stage(dst, global, fit);
            }
          }
        }
        st.stage.flush(options.comm_mode, r,
                       lost_tracking_color_sender(lost, faults_on, ctx));
      });
      ++result.total_supersteps;
      engine.exchange(apply_exchange);
    }

    // ---- Re-entry detection (local) -----------------------------------
    engine.run_ranks([&](BspEngine::RankCtx& ctx) {
      const Rank r = ctx.rank();
      CanonState& st = states[static_cast<std::size_t>(r)];
      const LocalGraph& lg = *st.lg;
      auto& lost_r = lost[static_cast<std::size_t>(r)];
      std::vector<VertexId> next;
      // Owned neighbors of everything that changed color this round are
      // the canonicality re-check candidates.
      for (const VertexId v : st.local_changed) {
        ctx.charge(static_cast<double>(lg.degree(v)), WorkPhase::kBoundary);
        for (const VertexId u : lg.neighbors(v)) {
          if (!lg.is_ghost(u)) next.push_back(u);
        }
      }
      for (const VertexId g : st.ghost_changed) {
        const auto inc = lg.ghost_incidence(g);
        ctx.charge(static_cast<double>(inc.size()), WorkPhase::kBoundary);
        for (const auto& in : inc) next.push_back(in.owned);
      }
      std::sort(next.begin(), next.end());
      next.erase(std::unique(next.begin(), next.end()), next.end());
      st.to_color.clear();
      for (const VertexId u : next) {
        if (st.color[static_cast<std::size_t>(u)] == kNoColor) {
          st.to_color.push_back(u);  // pending fault reset
          continue;
        }
        double work = 0.0;
        const Color fit = canonical_fit(st, u, seed, &work);
        ctx.charge(work, WorkPhase::kBoundary);
        if (fit != st.color[static_cast<std::size_t>(u)]) {
          st.to_color.push_back(u);
        }
      }
      if (faults_on && !lost_r.empty()) {
        // Some receiver missed an announcement: reset and re-enter those
        // vertices (they recolor — and re-announce — next round). The scan
        // runs over the deterministic announcement list; the lost list is
        // only probed.
        std::sort(lost_r.begin(), lost_r.end());
        for (const VertexId v : st.announced) {
          if (!std::binary_search(lost_r.begin(), lost_r.end(),
                                  lg.global_id(v))) {
            continue;
          }
          st.color[static_cast<std::size_t>(v)] = kNoColor;
          st.to_color.push_back(v);
          ++reentries[static_cast<std::size_t>(r)];
        }
        std::sort(st.to_color.begin(), st.to_color.end());
        st.to_color.erase(
            std::unique(st.to_color.begin(), st.to_color.end()),
            st.to_color.end());
      }
      st.local_changed.clear();
      st.ghost_changed.clear();
      st.announced.clear();
      lost_r.clear();
    });
    ++result.rounds;

    // ---- Termination check --------------------------------------------
    engine.barrier();
  }

  result.coloring.color.assign(
      static_cast<std::size_t>(dist.num_global_vertices()), kNoColor);
  for (Rank r = 0; r < P; ++r) {
    const CanonState& st = states[static_cast<std::size_t>(r)];
    const LocalGraph& lg = *st.lg;
    for (VertexId v = 0; v < lg.num_owned(); ++v) {
      result.coloring.color[static_cast<std::size_t>(lg.global_id(v))] =
          st.color[static_cast<std::size_t>(v)];
    }
    result.recolored += recolored[static_cast<std::size_t>(r)];
    result.fault_reentries += reentries[static_cast<std::size_t>(r)];
  }
  engine.fabric().export_into(result.run);
  result.run.wall_seconds = wall.seconds();
  result.run.rounds = result.rounds;
  return result;
}

}  // namespace

IncrementalColorResult color_incremental(const DistGraph& dist,
                                         const Coloring& previous,
                                         const std::vector<VertexId>& touched,
                                         const DistColoringOptions& options) {
  PMC_REQUIRE(static_cast<VertexId>(previous.color.size()) ==
                  dist.num_global_vertices(),
              "previous coloring covers "
                  << previous.color.size() << " vertices, distribution has "
                  << dist.num_global_vertices());
  require_touched_list(touched, dist.num_global_vertices());
  return run_canonical(dist, &previous, &touched, options);
}

IncrementalColorResult color_canonical(const DistGraph& dist,
                                       const DistColoringOptions& options) {
  return run_canonical(dist, nullptr, nullptr, options);
}

}  // namespace pmc
