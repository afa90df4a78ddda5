#include "coloring/jones_plassmann.hpp"

#include <utility>
#include <vector>

#include "coloring/color_exchange.hpp"
#include "coloring/sequential.hpp"
#include "runtime/bsp_engine.hpp"
#include "runtime/fabric.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"

namespace pmc {

namespace {

struct JpRankState {
  const LocalGraph* lg = nullptr;
  std::vector<Color> color;          // owned + ghost, local ids
  std::vector<VertexId> uncolored;   // owned, shrinking frontier
  ColorChooser chooser{ColorStrategy::kFirstFit};
};

}  // namespace

JonesPlassmannResult color_jones_plassmann(
    const DistGraph& dist, const JonesPlassmannOptions& options) {
  WallTimer wall;
  const Rank P = dist.num_ranks();
  BspEngine engine(P, options.model, FabricConfig{}, options.exec);

  std::vector<JpRankState> states(static_cast<std::size_t>(P));
  for (Rank r = 0; r < P; ++r) {
    JpRankState& st = states[static_cast<std::size_t>(r)];
    const LocalGraph& lg = dist.local(r);
    st.lg = &lg;
    st.color.assign(static_cast<std::size_t>(lg.num_local()), kNoColor);
    st.uncolored.resize(static_cast<std::size_t>(lg.num_owned()));
    for (VertexId v = 0; v < lg.num_owned(); ++v) {
      st.uncolored[static_cast<std::size_t>(v)] = v;
    }
  }

  JonesPlassmannResult result;

  while (true) {
    VertexId remaining = 0;
    for (const auto& st : states) {
      remaining += static_cast<VertexId>(st.uncolored.size());
    }
    if (remaining == 0) break;
    PMC_REQUIRE(result.rounds < options.max_rounds,
                "Jones-Plassmann failed to converge in " << options.max_rounds
                                                         << " rounds");
    // Each JP round is bulk-synchronous (no mid-round polling), so the
    // per-rank callbacks always parallelize.
    engine.run_ranks([&](BspEngine::RankCtx& ctx) {
      const Rank r = ctx.rank();
      JpRankState& st = states[static_cast<std::size_t>(r)];
      const LocalGraph& lg = *st.lg;
      const auto send = [&ctx](Rank dst, std::vector<std::byte> payload,
                               std::int64_t records) {
        ctx.send(dst, std::move(payload), records);
      };
      Outbox out(lg.neighbor_ranks(), options.codec);
      std::vector<VertexId> still_uncolored;
      still_uncolored.reserve(st.uncolored.size());
      for (const VertexId v : st.uncolored) {
        ctx.charge(static_cast<double>(lg.degree(v)) + 1.0);
        const VertexId gv = lg.global_id(v);
        bool is_max = true;
        for (VertexId u : lg.neighbors(v)) {
          if (st.color[static_cast<std::size_t>(u)] != kNoColor) continue;
          if (wins_priority(lg.global_id(u), gv, options.seed)) {
            is_max = false;
            break;
          }
        }
        if (!is_max) {
          still_uncolored.push_back(v);
          continue;
        }
        for (VertexId u : lg.neighbors(v)) {
          const Color cu = st.color[static_cast<std::size_t>(u)];
          if (cu != kNoColor) st.chooser.forbid(cu);
        }
        const Color c = st.chooser.choose(nullptr);
        st.color[static_cast<std::size_t>(v)] = c;
        for (const Rank dst : lg.boundary_ranks(v)) {
          out.slot(dst).put(ColorRecord{gv, c});
        }
      }
      st.uncolored = std::move(still_uncolored);
      out.flush_ascending(send);
    });
    // Round barrier + ghost color application.
    engine.exchange([&](BspEngine::RankCtx& ctx,
                        std::vector<BspMessage> msgs) {
      JpRankState& st = states[static_cast<std::size_t>(ctx.rank())];
      for (const BspMessage& msg : msgs) {
        apply_color_records(*st.lg, st.color, msg,
                            SendPolicy::kCustomizedNeighbors);
      }
    });
    ++result.rounds;
  }

  result.coloring.color.assign(
      static_cast<std::size_t>(dist.num_global_vertices()), kNoColor);
  for (Rank r = 0; r < P; ++r) {
    const JpRankState& st = states[static_cast<std::size_t>(r)];
    for (VertexId v = 0; v < st.lg->num_owned(); ++v) {
      result.coloring.color[static_cast<std::size_t>(st.lg->global_id(v))] =
          st.color[static_cast<std::size_t>(v)];
    }
  }
  engine.fabric().export_into(result.run);
  result.run.wall_seconds = wall.seconds();
  result.run.rounds = result.rounds;
  return result;
}

}  // namespace pmc
