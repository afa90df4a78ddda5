#include "coloring/distance2_parallel.hpp"

#include <algorithm>
#include <numeric>

#include "coloring/color_exchange.hpp"
#include "runtime/bsp_engine.hpp"
#include "runtime/fabric.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"

namespace pmc {

std::vector<Dist2RankView> build_dist2_views(const Graph& g,
                                             const Partition& p) {
  PMC_REQUIRE(p.num_vertices() == g.num_vertices(),
              "graph/partition size mismatch");
  const Rank parts = p.num_parts();
  std::vector<Dist2RankView> views(static_cast<std::size_t>(parts));

  // Owned vertices first, in global order (matching DistGraph's layout).
  for (Rank r = 0; r < parts; ++r) {
    views[static_cast<std::size_t>(r)].rank = r;
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    auto& view = views[static_cast<std::size_t>(p.owner(v))];
    view.global_to_local.emplace(
        v, static_cast<VertexId>(view.global_ids.size()));
    view.global_ids.push_back(v);
  }
  for (auto& view : views) {
    view.num_owned = static_cast<VertexId>(view.global_ids.size());
  }

  auto intern = [](Dist2RankView& view, VertexId global) {
    const auto [it, inserted] = view.global_to_local.emplace(
        global, static_cast<VertexId>(view.global_ids.size()));
    if (inserted) view.global_ids.push_back(global);
    return it->second;
  };

  // Distance-1 ghosts (in deterministic order of discovery).
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    auto& view = views[static_cast<std::size_t>(p.owner(v))];
    for (VertexId u : g.neighbors(v)) {
      (void)intern(view, u);
    }
  }
  for (auto& view : views) {
    view.num_adjacent = static_cast<VertexId>(view.global_ids.size());
  }
  // Distance-2 ghosts: neighbors of the distance-1 layer.
  for (auto& view : views) {
    for (VertexId local = view.num_owned; local < view.num_adjacent; ++local) {
      for (VertexId w : g.neighbors(view.global_ids[static_cast<std::size_t>(local)])) {
        (void)intern(view, w);
      }
    }
  }

  // Adjacency for owned + distance-1 ghosts, rewritten to local ids.
  for (auto& view : views) {
    view.offsets.assign(static_cast<std::size_t>(view.num_adjacent) + 1, 0);
    for (VertexId local = 0; local < view.num_adjacent; ++local) {
      view.offsets[static_cast<std::size_t>(local) + 1] =
          g.degree(view.global_ids[static_cast<std::size_t>(local)]);
    }
    for (std::size_t i = 1; i < view.offsets.size(); ++i) {
      view.offsets[i] += view.offsets[i - 1];
    }
    view.adj.resize(static_cast<std::size_t>(view.offsets.back()));
    std::size_t cursor = 0;
    for (VertexId local = 0; local < view.num_adjacent; ++local) {
      for (VertexId u :
           g.neighbors(view.global_ids[static_cast<std::size_t>(local)])) {
        const auto it = view.global_to_local.find(u);
        PMC_CHECK(it != view.global_to_local.end(),
                  "two-hop closure missed vertex " << u);
        view.adj[cursor++] = it->second;
      }
    }
  }

  // Recipients: ranks owning any vertex within distance <= 2 of each owned
  // vertex, and their union; d2-boundary classification.
  for (auto& view : views) {
    view.recipients.assign(static_cast<std::size_t>(view.num_owned), {});
    std::vector<Rank> scratch;
    for (VertexId v = 0; v < view.num_owned; ++v) {
      scratch.clear();
      const VertexId gv = view.global_ids[static_cast<std::size_t>(v)];
      for (VertexId u : g.neighbors(gv)) {
        if (p.owner(u) != view.rank) scratch.push_back(p.owner(u));
        for (VertexId w : g.neighbors(u)) {
          if (w != gv && p.owner(w) != view.rank) scratch.push_back(p.owner(w));
        }
      }
      std::sort(scratch.begin(), scratch.end());
      scratch.erase(std::unique(scratch.begin(), scratch.end()),
                    scratch.end());
      if (!scratch.empty()) {
        view.d2_boundary.push_back(v);
        view.recipients[static_cast<std::size_t>(v)] = scratch;
        view.recipient_ranks.insert(view.recipient_ranks.end(),
                                    scratch.begin(), scratch.end());
      }
    }
    std::sort(view.recipient_ranks.begin(), view.recipient_ranks.end());
    view.recipient_ranks.erase(std::unique(view.recipient_ranks.begin(),
                                           view.recipient_ranks.end()),
                               view.recipient_ranks.end());
  }
  return views;
}

namespace {

struct D2RankState {
  const Dist2RankView* view = nullptr;
  std::vector<Color> color;          // all local ids
  std::vector<VertexId> to_color;    // owned local ids, this round
  std::vector<VertexId> colored_d2_boundary;
  ColorChooser chooser{ColorStrategy::kFirstFit};
  /// Per-rank staging (isolated so rank callbacks can run concurrently).
  FanoutStage stage;
};

void d2_apply_records(D2RankState& st, const BspMessage& msg) {
  for_each_record<ColorRecord>(msg.payload, [&](const ColorRecord& rec) {
    const auto it = st.view->global_to_local.find(rec.id);
    PMC_CHECK(it != st.view->global_to_local.end(),
              "distance-2 record for vertex outside the view");
    st.color[static_cast<std::size_t>(it->second)] = rec.color;
  });
}

/// First-fit over the distance-2 neighborhood; returns arcs touched.
double d2_color_vertex(D2RankState& st, VertexId v, Color* chosen) {
  const Dist2RankView& view = *st.view;
  double work = 1.0;
  for (VertexId u : view.neighbors(v)) {
    const Color cu = st.color[static_cast<std::size_t>(u)];
    if (cu != kNoColor) st.chooser.forbid(cu);
    work += 1.0;
    for (VertexId w : view.neighbors(u)) {
      if (w == v) continue;
      const Color cw = st.color[static_cast<std::size_t>(w)];
      if (cw != kNoColor) st.chooser.forbid(cw);
      work += 1.0;
    }
  }
  *chosen = st.chooser.choose(nullptr);
  return work;
}

}  // namespace

DistColoringResult color_distance2_distributed_native(
    const Graph& g, const Partition& p, const DistColoringOptions& options) {
  PMC_REQUIRE(options.superstep_size >= 1, "superstep size must be >= 1");
  WallTimer wall;
  const auto views = build_dist2_views(g, p);
  const Rank P = p.num_parts();
  BspEngine engine(P, options.model,
                   FabricConfig{0.0, 0, options.faults, options.trace},
                   options.exec);
  const bool faults_on = engine.faults_enabled();
  const bool sync_mode = options.superstep_mode == SuperstepMode::kSync;

  std::vector<D2RankState> states(static_cast<std::size_t>(P));
  for (Rank r = 0; r < P; ++r) {
    D2RankState& st = states[static_cast<std::size_t>(r)];
    st.view = &views[static_cast<std::size_t>(r)];
    st.color.assign(static_cast<std::size_t>(st.view->num_local()), kNoColor);
    st.chooser = ColorChooser(options.strategy, static_cast<Color>(r));
    st.to_color.resize(static_cast<std::size_t>(st.view->num_owned));
    std::iota(st.to_color.begin(), st.to_color.end(), VertexId{0});
    // Two-hop recipients are precomputed per vertex, so the distance-2
    // flush always uses the neighbor-customized policy (the paper's NEW
    // mode).
    st.stage = FanoutStage(P, st.view->recipient_ranks, options.codec);
  }

  DistColoringResult result;
  // Global ids whose color announcement was dropped this round, per sending
  // rank; the conflict phase resets and re-enters them (same recovery as the
  // distance-1 coloring).
  LostColorSets lost(static_cast<std::size_t>(P));
  const auto apply_exchange = [&](BspEngine::RankCtx& ctx,
                                  std::vector<BspMessage> msgs) {
    D2RankState& st = states[static_cast<std::size_t>(ctx.rank())];
    for (const BspMessage& msg : msgs) d2_apply_records(st, msg);
  };

  while (true) {
    VertexId max_todo = 0;
    for (const auto& st : states) {
      max_todo = std::max(max_todo, static_cast<VertexId>(st.to_color.size()));
    }
    if (max_todo == 0) break;
    PMC_REQUIRE(result.rounds < options.max_rounds,
                "distance-2 coloring failed to converge in "
                    << options.max_rounds << " rounds");
    engine.fabric().set_round_all(result.rounds);
    const VertexId steps =
        (max_todo + options.superstep_size - 1) / options.superstep_size;
    for (VertexId k = 0; k < steps; ++k) {
      // Asynchronous supersteps poll mid-superstep, so they go through the
      // snapshot-harvest path — same rule as the distance-1 coloring. The
      // receive charge scales with records applied (codec-invariant), not
      // encoded payload bytes.
      const auto superstep = [&](BspEngine::RankCtx& ctx) {
        const Rank r = ctx.rank();
        D2RankState& st = states[static_cast<std::size_t>(r)];
        if (!sync_mode) {
          for (const BspMessage& msg : ctx.poll()) {
            d2_apply_records(st, msg);
            ctx.charge(static_cast<double>(msg.records), WorkPhase::kBoundary);
          }
        }
        const auto begin = static_cast<std::size_t>(k * options.superstep_size);
        if (begin >= st.to_color.size()) return;
        const auto end =
            std::min(st.to_color.size(),
                     begin + static_cast<std::size_t>(options.superstep_size));
        for (std::size_t i = begin; i < end; ++i) {
          const VertexId v = st.to_color[i];
          const auto& recipients =
              st.view->recipients[static_cast<std::size_t>(v)];
          Color chosen;
          ctx.charge(d2_color_vertex(st, v, &chosen),
                     recipients.empty() ? WorkPhase::kInterior
                                        : WorkPhase::kBoundary);
          st.color[static_cast<std::size_t>(v)] = chosen;
          if (recipients.empty()) continue;
          st.colored_d2_boundary.push_back(v);
          const VertexId global =
              st.view->global_ids[static_cast<std::size_t>(v)];
          for (Rank dst : recipients) {
            st.stage.stage(dst, global, chosen);
          }
        }
        st.stage.flush(SendPolicy::kCustomizedNeighbors, r,
                       lost_tracking_color_sender(lost, faults_on, ctx));
      };
      if (sync_mode) {
        engine.run_ranks(superstep);
      } else {
        engine.run_ranks_snapshot(superstep);
      }
      ++result.total_supersteps;
      if (sync_mode) engine.exchange(apply_exchange);
    }

    engine.exchange(apply_exchange);

    // Conflict detection over distance-2 neighborhoods. Counters accumulate
    // per rank and fold in rank order after the parallel region.
    std::vector<EdgeId> recolored(static_cast<std::size_t>(P), 0);
    std::vector<std::int64_t> reentries(static_cast<std::size_t>(P), 0);
    engine.run_ranks([&](BspEngine::RankCtx& ctx) {
      const Rank r = ctx.rank();
      D2RankState& st = states[static_cast<std::size_t>(r)];
      const Dist2RankView& view = *st.view;
      auto& lost_r = lost[static_cast<std::size_t>(r)];
      st.to_color.clear();
      for (const VertexId v : st.colored_d2_boundary) {
        const Color cv = st.color[static_cast<std::size_t>(v)];
        const VertexId gv = view.global_ids[static_cast<std::size_t>(v)];
        if (faults_on && lost_r.count(gv) != 0) {
          // Some two-hop recipient never learned cv; re-enter
          // unconditionally.
          st.color[static_cast<std::size_t>(v)] = kNoColor;
          st.to_color.push_back(v);
          ++reentries[static_cast<std::size_t>(r)];
          continue;
        }
        const std::uint64_t rv = vertex_priority(gv, options.seed);
        bool lose = false;
        double work = 1.0;
        auto check = [&](VertexId local) {
          if (lose) return;
          work += 1.0;
          if (st.color[static_cast<std::size_t>(local)] != cv) return;
          const VertexId gu = view.global_ids[static_cast<std::size_t>(local)];
          if (gu == gv) return;
          const std::uint64_t ru = vertex_priority(gu, options.seed);
          if (rv < ru || (rv == ru && gv < gu)) lose = true;
        };
        for (VertexId u : view.neighbors(v)) {
          check(u);
          if (lose) break;
          for (VertexId w : view.neighbors(u)) {
            if (w != v) check(w);
            if (lose) break;
          }
          if (lose) break;
        }
        ctx.charge(work, WorkPhase::kBoundary);
        if (lose) {
          st.color[static_cast<std::size_t>(v)] = kNoColor;
          st.to_color.push_back(v);
          ++recolored[static_cast<std::size_t>(r)];
        }
      }
      st.colored_d2_boundary.clear();
      lost_r.clear();
    });
    EdgeId recolored_total = 0;
    for (Rank r = 0; r < P; ++r) {
      recolored_total += recolored[static_cast<std::size_t>(r)];
      result.fault_reentries += reentries[static_cast<std::size_t>(r)];
    }
    result.conflicts_per_round.push_back(recolored_total);
    ++result.rounds;
    engine.barrier();
  }

  result.coloring.color.assign(
      static_cast<std::size_t>(g.num_vertices()), kNoColor);
  for (Rank r = 0; r < P; ++r) {
    const D2RankState& st = states[static_cast<std::size_t>(r)];
    for (VertexId v = 0; v < st.view->num_owned; ++v) {
      result.coloring.color[static_cast<std::size_t>(
          st.view->global_ids[static_cast<std::size_t>(v)])] =
          st.color[static_cast<std::size_t>(v)];
    }
  }
  engine.fabric().export_into(result.run);
  result.run.wall_seconds = wall.seconds();
  result.run.rounds = result.rounds;
  result.snapshot_parallel_supersteps = engine.snapshot_parallel_phases();
  result.snapshot_fallback_supersteps = engine.snapshot_fallback_phases();
  return result;
}

}  // namespace pmc
