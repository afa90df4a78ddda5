#include "coloring/jones_plassmann.hpp"

#include <algorithm>
#include <vector>

#include "coloring/sequential.hpp"
#include "runtime/bsp_engine.hpp"
#include "runtime/serialize.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"

namespace pmc {

namespace {

struct JpRankState {
  const LocalGraph* lg = nullptr;
  std::vector<Color> color;          // owned + ghost, local ids
  std::vector<VertexId> uncolored;   // owned, shrinking frontier
  std::vector<std::vector<Rank>> adj_ranks;  // per boundary vertex
  ColorChooser chooser{ColorStrategy::kFirstFit};
  // Per-rank send scratch (isolated so rank callbacks can run concurrently).
  std::vector<FrameWriter> dest_payload;
};

}  // namespace

// pmc-lint: schema(ColorRecord)
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
    st.dest_payload.assign(static_cast<std::size_t>(P),
                           FrameWriter(options.codec));
    st.color.assign(static_cast<std::size_t>(lg.num_local()), kNoColor);
    st.uncolored.resize(static_cast<std::size_t>(lg.num_owned()));
    for (VertexId v = 0; v < lg.num_owned(); ++v) {
      st.uncolored[static_cast<std::size_t>(v)] = v;
    }
    st.adj_ranks.assign(static_cast<std::size_t>(lg.num_owned()), {});
    for (VertexId v : lg.boundary_vertices()) {
      auto& ranks = st.adj_ranks[static_cast<std::size_t>(v)];
      for (VertexId u : lg.neighbors(v)) {
        if (lg.is_ghost(u)) ranks.push_back(lg.ghost_owner(u));
      }
      std::sort(ranks.begin(), ranks.end());
      ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
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
      auto& dest_payload = st.dest_payload;
      std::vector<Rank> touched;
      std::vector<VertexId> still_uncolored;
      still_uncolored.reserve(st.uncolored.size());
      for (const VertexId v : st.uncolored) {
        ctx.charge(static_cast<double>(lg.degree(v)) + 1.0);
        const VertexId gv = lg.global_id(v);
        const std::uint64_t pv = vertex_priority(gv, options.seed);
        bool is_max = true;
        for (VertexId u : lg.neighbors(v)) {
          if (st.color[static_cast<std::size_t>(u)] != kNoColor) continue;
          const VertexId gu = lg.global_id(u);
          const std::uint64_t pu = vertex_priority(gu, options.seed);
          if (pu > pv || (pu == pv && gu > gv)) {
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
        if (lg.is_boundary(v)) {
          for (Rank dst : st.adj_ranks[static_cast<std::size_t>(v)]) {
            auto& w = dest_payload[static_cast<std::size_t>(dst)];
            if (w.empty()) touched.push_back(dst);
            w.begin_record();
            w.put_id(gv);
            w.put_color(c);
          }
        }
      }
      st.uncolored = std::move(still_uncolored);
      std::sort(touched.begin(), touched.end());
      touched.erase(std::unique(touched.begin(), touched.end()),
                    touched.end());
      for (Rank dst : touched) {
        auto& w = dest_payload[static_cast<std::size_t>(dst)];
        const std::int64_t records = w.records();
        ctx.send(dst, w.take(), records);
      }
    });
    // Round barrier + ghost color application.
    engine.barrier();
    engine.run_ranks([&](BspEngine::RankCtx& ctx) {
      JpRankState& st = states[static_cast<std::size_t>(ctx.rank())];
      for (const BspMessage& msg : ctx.drain()) {
        FrameReader reader(msg.payload);
        PMC_CHECK(reader.valid(), "undetected bad frame reached JP: "
                                      << reader.error());
        for (std::int64_t i = 0; i < reader.records(); ++i) {
          const VertexId global = reader.read_id();
          const Color c = reader.read_color();
          const VertexId local = st.lg->local_id(global);
          PMC_CHECK(local != kNoVertex, "JP record for unknown vertex");
          st.color[static_cast<std::size_t>(local)] = c;
        }
        PMC_CHECK(reader.done(), "trailing garbage after the last JP record");
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
  result.run.sim_seconds = engine.time();
  result.run.wall_seconds = wall.seconds();
  result.run.comm = engine.comm();
  result.run.load = engine.load_stats();
  result.run.rounds = result.rounds;
  return result;
}

JonesPlassmannResult color_jones_plassmann(
    const Graph& g, const Partition& p, const JonesPlassmannOptions& options) {
  const DistGraph dist = DistGraph::build(g, p);
  return color_jones_plassmann(dist, options);
}

}  // namespace pmc
