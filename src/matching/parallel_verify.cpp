#include "matching/parallel_verify.hpp"

#include <utility>
#include <vector>

#include "runtime/bsp_engine.hpp"
#include "runtime/fabric.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"

namespace pmc {

DistVerifyResult verify_matching_distributed(const DistGraph& dist,
                                             const Matching& m,
                                             const MachineModel& model,
                                             const ExecConfig& exec,
                                             WireCodec codec) {
  PMC_REQUIRE(m.num_vertices() == dist.num_global_vertices(),
              "matching size does not match the distributed graph");
  WallTimer wall;
  const Rank P = dist.num_ranks();
  BspEngine engine(P, model, FabricConfig{}, exec);

  // Phase 1: every rank ships (vertex, mate) for its boundary vertices to
  // each neighboring rank — the information receivers need about ghosts.
  engine.run_ranks([&](BspEngine::RankCtx& ctx) {
    const LocalGraph& lg = dist.local(ctx.rank());
    const auto send = [&ctx](Rank dst, std::vector<std::byte> payload,
                             std::int64_t records) {
      ctx.send(dst, std::move(payload), records);
    };
    Bundler out(BundleMode::kBundled, lg.neighbor_ranks(), 0, codec);
    for (const VertexId v : lg.boundary_vertices()) {
      const VertexId gv = lg.global_id(v);
      const VertexId mate = m.mate[static_cast<std::size_t>(gv)];
      ctx.charge(static_cast<double>(lg.degree(v)));
      for (const Rank dst : lg.boundary_ranks(v)) {
        out.add(dst, MateRecord{gv, mate}, send);
      }
    }
    out.flush(send);
  });

  // Phase 2: verify with local + ghost information only.
  std::vector<std::int64_t> violations(static_cast<std::size_t>(P), 0);
  engine.exchange([&](BspEngine::RankCtx& ctx, std::vector<BspMessage> msgs) {
    const Rank r = ctx.rank();
    std::int64_t& mine = violations[static_cast<std::size_t>(r)];
    const LocalGraph& lg = dist.local(r);
    // Ghost mate table from the received records, indexed by ghost local
    // id. `heard` is kept apart from the mates because a record may carry
    // any mate, kNoVertex and out-of-range values included.
    const auto num_owned = static_cast<std::size_t>(lg.num_owned());
    std::vector<VertexId> ghost_mate(static_cast<std::size_t>(lg.num_ghosts()));
    std::vector<char> heard(ghost_mate.size(), 0);
    for (const BspMessage& msg : msgs) {
      for_each_record<MateRecord>(msg.payload, [&](const MateRecord& rec) {
        const VertexId local = lg.local_id(rec.id);
        PMC_CHECK(local != kNoVertex && lg.is_ghost(local),
                  "boundary record for " << rec.id
                                         << ", not a ghost of rank " << r);
        const std::size_t slot = static_cast<std::size_t>(local) - num_owned;
        ghost_mate[slot] = rec.mate;
        heard[slot] = 1;
      });
    }
    auto mate_of_local = [&](VertexId local) {
      if (!lg.is_ghost(local)) {
        return m.mate[static_cast<std::size_t>(lg.global_id(local))];
      }
      const std::size_t slot = static_cast<std::size_t>(local) - num_owned;
      PMC_CHECK(heard[slot] != 0,
                "boundary exchange missed ghost " << lg.global_id(local));
      return ghost_mate[slot];
    };

    for (VertexId v = 0; v < lg.num_owned(); ++v) {
      ctx.charge(static_cast<double>(lg.degree(v)) + 1.0);
      const VertexId gv = lg.global_id(v);
      const VertexId mate = m.mate[static_cast<std::size_t>(gv)];
      if (mate != kNoVertex) {
        // The mate must be a neighbor (locally checkable: all of v's edges
        // are stored on v's owner) and must point back.
        VertexId mate_local = kNoVertex;
        for (VertexId u : lg.neighbors(v)) {
          if (lg.global_id(u) == mate) {
            mate_local = u;
            break;
          }
        }
        if (mate_local == kNoVertex) {
          ++mine;  // matched to a non-edge (count at the owner)
        } else if (mate_of_local(mate_local) != gv) {
          ++mine;  // asymmetric: only v sees that its mate points elsewhere
        }
      } else {
        // Maximality: an unmatched owned vertex may not have an unmatched
        // neighbor. Every free-free edge is counted once, at the endpoint
        // with the smaller global id (both sides can evaluate the test).
        for (VertexId u : lg.neighbors(v)) {
          const VertexId gu = lg.global_id(u);
          if (gv < gu && mate_of_local(u) == kNoVertex) {
            ++mine;
            break;
          }
        }
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
