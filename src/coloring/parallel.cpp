#include "coloring/parallel.hpp"

#include <algorithm>
#include <numeric>

#include "coloring/color_exchange.hpp"
#include "runtime/bsp_engine.hpp"
#include "runtime/fabric.hpp"
#include "runtime/serialize.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"

namespace pmc {

DistColoringOptions DistColoringOptions::fiab() {
  DistColoringOptions o;
  o.superstep_size = 100;
  o.comm_mode = CommMode::kBroadcastUnion;
  return o;
}

DistColoringOptions DistColoringOptions::fiac() {
  DistColoringOptions o;
  o.superstep_size = 1000;
  o.comm_mode = CommMode::kCustomizedAll;
  return o;
}

DistColoringOptions DistColoringOptions::improved() {
  DistColoringOptions o;
  o.superstep_size = 1000;
  o.comm_mode = CommMode::kCustomizedNeighbors;
  return o;
}

namespace {

/// Per-rank working state of the speculative coloring.
struct RankState {
  const LocalGraph* lg = nullptr;
  /// Colors of owned and ghost vertices (local ids).
  std::vector<Color> color;
  /// Owned vertices still to be colored this round, in coloring order.
  std::vector<VertexId> to_color;
  /// Boundary vertices colored in the current round (for conflict detection).
  std::vector<VertexId> colored_boundary;
  ColorChooser chooser{ColorStrategy::kFirstFit};
  std::vector<std::int64_t> usage;  // for kLeastUsed
  /// Staging for this rank's current superstep, under the configured send
  /// policy. Per rank (not shared) so concurrent rank callbacks stay
  /// isolated.
  FanoutStage stage;
};

/// Colors owned vertex v per the strategy against the known colors of every
/// vertex within D hops of it, and returns the work charged: one per vertex
/// looked at, plus one.
template <int D>
double color_vertex(RankState& state, VertexId v, Color* chosen) {
  const LocalGraph& lg = *state.lg;
  const auto forbid = [&](VertexId u) {
    const Color cu = state.color[static_cast<std::size_t>(u)];
    if (cu != kNoColor) state.chooser.forbid(cu);
  };
  double work = 1.0;
  for (VertexId u : lg.neighbors(v)) {
    forbid(u);
    if constexpr (D == 2) {
      work += 1.0;
      for (VertexId w : lg.neighbors(u)) {
        if (w == v) continue;
        forbid(w);
        work += 1.0;
      }
    }
  }
  if constexpr (D == 1) work += static_cast<double>(lg.degree(v));
  auto* usage = state.usage.empty() ? nullptr : &state.usage;
  *chosen = state.chooser.choose(usage);
  return work;
}

/// True iff boundary vertex v must recolor: a vertex within D hops that it
/// could not see while coloring holds its color and wins the priority
/// comparison. At distance 1 that is a ghost neighbor (owned neighbors were
/// visible); at distance 2 every vertex is compared, and *checks counts the
/// comparisons made until the first loss.
template <int D>
bool loses_conflict(const RankState& state, VertexId v, std::uint64_t seed,
                    double* checks) {
  const LocalGraph& lg = *state.lg;
  const Color cv = state.color[static_cast<std::size_t>(v)];
  const VertexId gv = lg.global_id(v);
  // Exactly one endpoint of a conflict recolors; both ranks evaluate the
  // same deterministic comparison.
  const auto loses_to = [&](VertexId u) {
    if constexpr (D == 2) *checks += 1.0;
    return state.color[static_cast<std::size_t>(u)] == cv &&
           wins_priority(lg.global_id(u), gv, seed);
  };
  for (VertexId u : lg.neighbors(v)) {
    if constexpr (D == 1) {
      if (lg.is_ghost(u) && loses_to(u)) return true;
    } else {
      if (loses_to(u)) return true;
      for (VertexId w : lg.neighbors(u)) {
        if (w != v && loses_to(w)) return true;
      }
    }
  }
  return false;
}

}  // namespace

DistColoringResult color_distributed(const DistGraph& dist,
                                     const DistColoringOptions& options) {
  PMC_REQUIRE(options.superstep_size >= 1, "superstep size must be >= 1");
  WallTimer wall;
  const Rank P = dist.num_ranks();
  BspEngine engine(P, options.model,
                   FabricConfig{0.0, 0, options.faults, options.trace},
                   options.exec);
  const bool faults_on = engine.faults_enabled();
  // Synchronous supersteps parallelize unconditionally; asynchronous ones go
  // through run_ranks_snapshot(), which pre-harvests each rank's poll()
  // result and parallelizes whenever the clock-only safety check proves the
  // schedule byte-identical to sequential execution.
  const bool sync_mode = options.superstep_mode == SuperstepMode::kSync;
  // The coloring distance is the distribution's halo. The walks are picked
  // once per call: testing the halo per neighbour slows distance 1.
  const bool two_hop = dist.local(0).halo() == 2;
  const auto color_one = two_hop ? &color_vertex<2> : &color_vertex<1>;
  const auto loses = two_hop ? &loses_conflict<2> : &loses_conflict<1>;

  std::vector<RankState> states(static_cast<std::size_t>(P));
  for (Rank r = 0; r < P; ++r) {
    RankState& st = states[static_cast<std::size_t>(r)];
    const LocalGraph& lg = dist.local(r);
    st.lg = &lg;
    st.color.assign(static_cast<std::size_t>(lg.num_local()), kNoColor);
    st.chooser = ColorChooser(options.strategy,
                              /*stagger_base=*/static_cast<Color>(r));
    st.stage =
        FanoutStage(options.comm_mode, P, lg.neighbor_ranks(), options.codec);
    if (options.strategy == ColorStrategy::kLeastUsed) {
      st.usage.assign(1, 0);
    }
    // Initial coloring order within the rank: local-id order, with the
    // interior or the boundary vertices moved to the front. The partition is
    // stable, so each class keeps local-id order.
    st.to_color.resize(static_cast<std::size_t>(lg.num_owned()));
    std::iota(st.to_color.begin(), st.to_color.end(), VertexId{0});
    if (options.local_order != LocalOrder::kNatural) {
      const bool boundary_first =
          options.local_order == LocalOrder::kBoundaryFirst;
      std::stable_partition(
          st.to_color.begin(), st.to_color.end(),
          [&](VertexId v) { return lg.is_boundary(v) == boundary_first; });
    }
  }

  DistColoringResult result;
  const std::uint64_t seed = options.seed;

  // Global ids whose color announcement was dropped this round, per sending
  // rank; the conflict phase resets and re-enters them (PR 2's repair
  // re-entry, shared with the incremental driver via color_exchange).
  LostColorSets lost(static_cast<std::size_t>(P));

  const auto apply_exchange = [&](BspEngine::RankCtx& ctx,
                                  std::vector<BspMessage> msgs) {
    RankState& st = states[static_cast<std::size_t>(ctx.rank())];
    for (const BspMessage& msg : msgs) {
      apply_color_records(*st.lg, st.color, msg, options.comm_mode);
    }
  };

  while (true) {
    // ---- Tentative coloring phase -------------------------------------
    VertexId max_todo = 0;
    for (const auto& st : states) {
      max_todo = std::max(max_todo, static_cast<VertexId>(st.to_color.size()));
    }
    if (max_todo == 0) break;
    PMC_REQUIRE(result.rounds < options.max_rounds,
                "coloring failed to converge in " << options.max_rounds
                                                  << " rounds");
    engine.fabric().set_round_all(result.rounds);
    const VertexId steps =
        (max_todo + options.superstep_size - 1) / options.superstep_size;
    for (VertexId k = 0; k < steps; ++k) {
      const auto superstep = [&](BspEngine::RankCtx& ctx) {
        const Rank r = ctx.rank();
        RankState& st = states[static_cast<std::size_t>(r)];
        const LocalGraph& lg = *st.lg;
        // Asynchronous receive: use whatever color information has arrived
        // by this rank's local time. The charge scales with the records
        // applied, not the encoded payload size, so modelled receive cost
        // is invariant under the wire codec.
        if (!sync_mode) {
          for (const BspMessage& msg : ctx.poll()) {
            apply_color_records(lg, st.color, msg, options.comm_mode);
            ctx.charge(static_cast<double>(msg.records), WorkPhase::kBoundary);
          }
        }
        const auto begin = static_cast<std::size_t>(k * options.superstep_size);
        if (begin >= st.to_color.size()) return;
        const auto end = std::min(st.to_color.size(),
                                  begin + static_cast<std::size_t>(
                                              options.superstep_size));
        for (std::size_t i = begin; i < end; ++i) {
          const VertexId v = st.to_color[i];
          const bool boundary = lg.is_boundary(v);
          Color chosen;
          ctx.charge(color_one(st, v, &chosen),
                     boundary ? WorkPhase::kBoundary : WorkPhase::kInterior);
          st.color[static_cast<std::size_t>(v)] = chosen;
          if (!boundary) continue;
          st.colored_boundary.push_back(v);
          st.stage.stage({lg.global_id(v), chosen}, lg.boundary_ranks(v));
        }
        // Send this superstep's boundary colors under the configured policy.
        st.stage.flush(r, lost_tracking_color_sender(lost, faults_on, ctx));
      };
      if (sync_mode) {
        engine.run_ranks(superstep);
      } else {
        engine.run_ranks_snapshot(superstep);
      }
      ++result.total_supersteps;
      if (sync_mode) engine.exchange(apply_exchange);
    }

    // ---- "Wait until all incoming messages are received" ---------------
    engine.exchange(apply_exchange);

    // ---- Conflict detection (no communication needed) ------------------
    std::vector<EdgeId> recolored(static_cast<std::size_t>(P), 0);
    std::vector<std::int64_t> reentries(static_cast<std::size_t>(P), 0);
    engine.run_ranks([&](BspEngine::RankCtx& ctx) {
      const Rank r = ctx.rank();
      RankState& st = states[static_cast<std::size_t>(r)];
      const LocalGraph& lg = *st.lg;
      auto& lost_r = lost[static_cast<std::size_t>(r)];
      std::sort(lost_r.begin(), lost_r.end());
      st.to_color.clear();
      for (const VertexId v : st.colored_boundary) {
        // Both distances' charges are pinned, and they differ: distance 1
        // charges v's whole row up front, distance 2 the comparisons made
        // until the first loss and nothing for a re-entered vertex.
        if (!two_hop) {
          ctx.charge(static_cast<double>(lg.degree(v)), WorkPhase::kBoundary);
        }
        if (faults_on && std::binary_search(lost_r.begin(), lost_r.end(),
                                            lg.global_id(v))) {
          // Some receiver never learned v's color; re-enter unconditionally
          // (it will recolor — and re-announce — next round).
          st.color[static_cast<std::size_t>(v)] = kNoColor;
          st.to_color.push_back(v);
          ++reentries[static_cast<std::size_t>(r)];
          continue;
        }
        double checks = 0.0;
        const bool lose = loses(st, v, seed, &checks);
        if (two_hop) ctx.charge(1.0 + checks, WorkPhase::kBoundary);
        if (lose) {
          st.color[static_cast<std::size_t>(v)] = kNoColor;
          st.to_color.push_back(v);
          ++recolored[static_cast<std::size_t>(r)];
        }
      }
      st.colored_boundary.clear();
      lost_r.clear();
    });
    EdgeId recolored_total = 0;
    for (Rank r = 0; r < P; ++r) {
      recolored_total += recolored[static_cast<std::size_t>(r)];
      result.fault_reentries += reentries[static_cast<std::size_t>(r)];
    }
    result.conflicts_per_round.push_back(recolored_total);
    ++result.rounds;

    // ---- Termination check ("while exists j with U_j nonempty") --------
    engine.barrier();
  }

  // Assemble the global coloring.
  result.coloring.color.assign(
      static_cast<std::size_t>(dist.num_global_vertices()), kNoColor);
  for (Rank r = 0; r < P; ++r) {
    const RankState& st = states[static_cast<std::size_t>(r)];
    const LocalGraph& lg = *st.lg;
    for (VertexId v = 0; v < lg.num_owned(); ++v) {
      result.coloring.color[static_cast<std::size_t>(lg.global_id(v))] =
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

DistColoringResult color_distributed(const Graph& g, const Partition& p,
                                     const DistColoringOptions& options) {
  const DistGraph dist = DistGraph::build(g, p);
  return color_distributed(dist, options);
}

}  // namespace pmc
