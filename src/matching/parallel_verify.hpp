// Distributed verification of a matching.
//
// A real MPI code cannot gather the global mate array to rank 0; it
// verifies with one boundary exchange: every rank ships the matching status
// of its boundary vertices to its neighbor ranks, then checks symmetry,
// edge-validity and maximality using only local + ghost information, and an
// allreduce combines the violation counts. This module reproduces that
// pattern on the simulated runtime (and is itself exercised against the
// sequential verifiers in the test suite).
#pragma once

#include <cstdint>
#include <tuple>

#include "matching/matching.hpp"
#include "runtime/comm_stats.hpp"
#include "runtime/dist_graph.hpp"
#include "runtime/exec/backend.hpp"
#include "runtime/machine_model.hpp"
#include "runtime/serialize.hpp"

namespace pmc {

/// A boundary vertex's mate (kNoVertex when unmatched) — the record of the
/// verifier's boundary exchange.
struct MateRecord {
  VertexId id = kNoVertex;
  VertexId mate = kNoVertex;
  static constexpr std::tuple kFields{IdField{&MateRecord::id},
                                      RelIdField{&MateRecord::mate}};
};

/// Outcome of a distributed matching verification.
struct DistVerifyResult {
  std::int64_t violations = 0;  ///< 0 = valid (and maximal, for matching).
  RunResult run;                ///< Cost of the verification itself.
};

/// Verifies symmetry, edge-validity and maximality of `m` across the
/// distribution. A mate that is not a neighbour or does not point back is
/// counted at its vertex; a free-free edge is counted once, by the endpoint
/// with the smaller global id. Both phases are bulk-synchronous,
/// so `exec.threads > 1` runs the per-rank callbacks on a thread pool
/// (bit-identical result and cost model).
[[nodiscard]] DistVerifyResult verify_matching_distributed(
    const DistGraph& dist, const Matching& m,
    const MachineModel& model = MachineModel::zero_cost(),
    const ExecConfig& exec = {}, WireCodec codec = WireCodec::kCompact);

}  // namespace pmc
