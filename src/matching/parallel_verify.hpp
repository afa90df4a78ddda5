// Distributed verification of a matching: every rank ships the mate of
// each boundary vertex to the ranks holding it as a ghost, then checks
// symmetry, edge-validity and maximality of its owned vertices with local +
// ghost information only (runtime/dist_verify.hpp holds the exchange).
#pragma once

#include <tuple>

#include "matching/matching.hpp"
#include "runtime/dist_graph.hpp"
#include "runtime/dist_verify.hpp"
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
