#include "coloring/parallel_verify.hpp"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "runtime/bsp_engine.hpp"
#include "runtime/serialize.hpp"
#include "support/error.hpp"
#include "support/sorted.hpp"
#include "support/timer.hpp"

namespace pmc {

// pmc-lint: schema(ColorRecord)
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
    std::unordered_map<Rank, FrameWriter> out;
    std::vector<Rank> scratch;
    for (const VertexId v : lg.boundary_vertices()) {
      const VertexId gv = lg.global_id(v);
      ctx.charge(static_cast<double>(lg.degree(v)));
      scratch.clear();
      for (VertexId u : lg.neighbors(v)) {
        if (lg.is_ghost(u)) scratch.push_back(lg.ghost_owner(u));
      }
      std::sort(scratch.begin(), scratch.end());
      scratch.erase(std::unique(scratch.begin(), scratch.end()),
                    scratch.end());
      for (Rank dst : scratch) {
        auto& w = out.try_emplace(dst, FrameWriter(codec)).first->second;
        w.begin_record();
        w.put_id(gv);
        w.put_color(c.color[static_cast<std::size_t>(gv)]);
      }
    }
    // Ship in ascending destination order (D1): hash-order sends would tie
    // the message sequence to the unordered map's bucket layout.
    for (const Rank dst : sorted_keys(out)) {
      FrameWriter& writer = out.at(dst);
      const std::int64_t records = writer.records();
      ctx.send(dst, writer.take(), records);
    }
  });
  engine.barrier();

  std::vector<std::int64_t> violations(static_cast<std::size_t>(P), 0);
  engine.run_ranks([&](BspEngine::RankCtx& ctx) {
    const Rank r = ctx.rank();
    const LocalGraph& lg = dist.local(r);
    std::int64_t& mine = violations[static_cast<std::size_t>(r)];
    std::unordered_map<VertexId, Color> ghost_color;
    for (const BspMessage& msg : ctx.drain()) {
      if (msg.payload.empty()) continue;
      FrameReader reader(msg.payload);
      PMC_CHECK(reader.valid(),
                "undetected bad frame reached the coloring verifier: "
                    << reader.error());
      for (std::int64_t i = 0; i < reader.records(); ++i) {
        const VertexId gv = reader.read_id();
        const Color color = reader.read_color();
        ghost_color[gv] = color;
      }
      PMC_CHECK(reader.done(),
                "trailing garbage after the last boundary-color record");
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
          const auto it = ghost_color.find(gu);
          PMC_CHECK(it != ghost_color.end(),
                    "boundary exchange missed ghost " << gu);
          cu = it->second;
        } else {
          cu = c.color[static_cast<std::size_t>(gu)];
        }
        if (cu == cv) ++mine;
      }
    }
  });
  engine.allreduce();

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
