#include "coloring/parallel_verify.hpp"

#include <utility>
#include <vector>

#include "runtime/bsp_engine.hpp"
#include "runtime/fabric.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"

namespace pmc {

DistVerifyResult verify_coloring_distributed(const DistGraph& dist,
                                             const Coloring& c,
                                             const MachineModel& model,
                                             const ExecConfig& exec,
                                             WireCodec codec) {
  PMC_REQUIRE(c.num_vertices() == dist.num_global_vertices(),
              "coloring size does not match the distributed graph");
  WallTimer wall;
  const Rank P = dist.num_ranks();
  BspEngine engine(P, model, FabricConfig{}, exec);

  // Boundary color exchange.
  engine.run_ranks([&](BspEngine::RankCtx& ctx) {
    const LocalGraph& lg = dist.local(ctx.rank());
    const auto send = [&ctx](Rank dst, std::vector<std::byte> payload,
                             std::int64_t records) {
      ctx.send(dst, std::move(payload), records);
    };
    Bundler out(BundleMode::kBundled, lg.neighbor_ranks(), 0, codec);
    for (const VertexId v : lg.boundary_vertices()) {
      const VertexId gv = lg.global_id(v);
      const Color cv = c.color[static_cast<std::size_t>(gv)];
      ctx.charge(static_cast<double>(lg.degree(v)));
      for (const Rank dst : lg.boundary_ranks(v)) {
        out.add(dst, ColorRecord{gv, cv}, send);
      }
    }
    out.flush(send);
  });

  std::vector<std::int64_t> violations(static_cast<std::size_t>(P), 0);
  engine.exchange([&](BspEngine::RankCtx& ctx, std::vector<BspMessage> msgs) {
    const Rank r = ctx.rank();
    const LocalGraph& lg = dist.local(r);
    std::int64_t& mine = violations[static_cast<std::size_t>(r)];
    // Ghost colors indexed by ghost local id; `heard` is kept apart because
    // a record may carry any color, kNoColor included.
    const auto num_owned = static_cast<std::size_t>(lg.num_owned());
    std::vector<Color> ghost_color(static_cast<std::size_t>(lg.num_ghosts()));
    std::vector<char> heard(ghost_color.size(), 0);
    for (const BspMessage& msg : msgs) {
      for_each_record<ColorRecord>(msg.payload, [&](const ColorRecord& rec) {
        const VertexId local = lg.local_id(rec.id);
        PMC_CHECK(local != kNoVertex && lg.is_ghost(local),
                  "boundary record for " << rec.id
                                         << ", not a ghost of rank " << r);
        const std::size_t slot = static_cast<std::size_t>(local) - num_owned;
        ghost_color[slot] = rec.color;
        heard[slot] = 1;
      });
    }
    for (VertexId v = 0; v < lg.num_owned(); ++v) {
      ctx.charge(static_cast<double>(lg.degree(v)) + 1.0);
      const VertexId gv = lg.global_id(v);
      const Color cv = c.color[static_cast<std::size_t>(gv)];
      if (cv < 0) {
        ++mine;  // uncolored (counted at the owner)
        continue;
      }
      for (VertexId u : lg.neighbors(v)) {
        const VertexId gu = lg.global_id(u);
        if (gv >= gu) continue;  // count each edge once
        Color cu;
        if (lg.is_ghost(u)) {
          const std::size_t slot = static_cast<std::size_t>(u) - num_owned;
          PMC_CHECK(heard[slot] != 0, "boundary exchange missed ghost " << gu);
          cu = ghost_color[slot];
        } else {
          cu = c.color[static_cast<std::size_t>(gu)];
        }
        if (cu == cv) ++mine;
      }
    }
  });
  engine.barrier();

  DistVerifyResult result;
  for (Rank r = 0; r < P; ++r) {
    result.violations += violations[static_cast<std::size_t>(r)];
  }
  result.run.sim_seconds = engine.time();
  result.run.wall_seconds = wall.seconds();
  result.run.comm = engine.comm();
  result.run.load = engine.load_stats();
  return result;
}

}  // namespace pmc
