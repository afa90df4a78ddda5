// The boundary exchange both distributed verifiers share.
//
// A real MPI code cannot gather a global result array to rank 0; it
// verifies with one boundary exchange: every rank ships a record about each
// of its boundary vertices to the ranks holding it as a ghost, then checks
// its owned vertices using only local + ghost information, and an allreduce
// combines the violation counts. The matching and coloring verifiers differ
// only in the record they ship and the check they make per vertex.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "runtime/bsp_engine.hpp"
#include "runtime/comm_stats.hpp"
#include "runtime/dist_graph.hpp"
#include "runtime/exec/backend.hpp"
#include "runtime/fabric.hpp"
#include "runtime/machine_model.hpp"
#include "runtime/serialize.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"

namespace pmc {

/// Outcome of a distributed verification.
struct DistVerifyResult {
  std::int64_t violations = 0;  ///< 0 = valid (and maximal, for matching).
  RunResult run;                ///< Cost of the verification itself.
};

/// Runs a verification on a fresh engine over `dist`. Phase 1: each rank
/// charges deg(v) per boundary vertex v and stages record_of(global id of v)
/// for v's boundary ranks, sent one frame per destination in ascending rank
/// order. Phase 2: each rank files the records it received in a dense ghost
/// table with heard flags (a record may carry any value, so the flags stay
/// apart), then charges deg(v) + 1 per owned vertex v and adds
/// check(lg, v, record_at), where record_at(u) is record_of(global id of u)
/// for an owned u and the heard record for a ghost u (a ghost nobody
/// reported is a pmc::Error). Both phases are bulk-synchronous, so
/// `exec.threads > 1` runs the per-rank callbacks on a thread pool
/// (bit-identical result and cost model).
template <typename R, typename RecordOf, typename Check>
[[nodiscard]] DistVerifyResult verify_by_boundary_exchange(
    const DistGraph& dist, const MachineModel& model, const ExecConfig& exec,
    WireCodec codec, const RecordOf& record_of, const Check& check) {
  WallTimer wall;
  const Rank P = dist.num_ranks();
  BspEngine engine(P, model, FabricConfig{}, exec);

  engine.run_ranks([&](BspEngine::RankCtx& ctx) {
    const LocalGraph& lg = dist.local(ctx.rank());
    Outbox out(lg.neighbor_ranks(), codec);
    for (VertexId v = 0; v < lg.num_owned(); ++v) {
      if (!lg.is_boundary(v)) continue;
      const R record = record_of(lg.global_id(v));
      ctx.charge(static_cast<double>(lg.degree(v)));
      for (const Rank dst : lg.boundary_ranks(v)) out.slot(dst).put(record);
    }
    out.flush_ascending([&ctx](Rank dst, std::vector<std::byte> payload,
                               std::int64_t records) {
      ctx.send(dst, std::move(payload), records);
    });
  });

  std::vector<std::int64_t> violations(static_cast<std::size_t>(P), 0);
  engine.exchange([&](BspEngine::RankCtx& ctx, std::vector<BspMessage> msgs) {
    const Rank r = ctx.rank();
    const LocalGraph& lg = dist.local(r);
    const auto num_owned = static_cast<std::size_t>(lg.num_owned());
    std::vector<R> ghost(static_cast<std::size_t>(lg.num_ghosts()));
    std::vector<char> heard(ghost.size(), 0);
    for (const BspMessage& msg : msgs) {
      for_each_record<R>(msg.payload, [&](const R& rec) {
        const VertexId local = lg.ghost_id(rec.id);
        PMC_CHECK(local != kNoVertex, "boundary record for "
                                          << rec.id << ", not a ghost of rank "
                                          << r);
        const std::size_t slot = static_cast<std::size_t>(local) - num_owned;
        ghost[slot] = rec;
        heard[slot] = 1;
      });
    }
    const auto record_at = [&](VertexId u) -> R {
      if (!lg.is_ghost(u)) return record_of(lg.global_id(u));
      const std::size_t slot = static_cast<std::size_t>(u) - num_owned;
      PMC_CHECK(heard[slot] != 0,
                "boundary exchange missed ghost " << lg.global_id(u));
      return ghost[slot];
    };
    std::int64_t& mine = violations[static_cast<std::size_t>(r)];
    for (VertexId v = 0; v < lg.num_owned(); ++v) {
      ctx.charge(static_cast<double>(lg.degree(v)) + 1.0);
      mine += check(lg, v, record_at);
    }
  });
  engine.barrier();

  DistVerifyResult result;
  for (const std::int64_t n : violations) result.violations += n;
  engine.fabric().export_into(result.run);
  result.run.wall_seconds = wall.seconds();
  return result;
}

}  // namespace pmc
