// Distributed verification of a coloring.
//
// Mirrors how an MPI code validates its result without gathering the global
// color array: one boundary-color exchange (runtime/dist_verify.hpp), local
// checks on owned and cross edges (each cross conflict counted once, by the
// smaller global id), and an allreduce of the violation counts.
#pragma once

#include "coloring/coloring.hpp"
#include "runtime/dist_graph.hpp"
#include "runtime/dist_verify.hpp"
#include "runtime/exec/backend.hpp"
#include "runtime/machine_model.hpp"
#include "runtime/serialize.hpp"

namespace pmc {

/// Counts uncolored vertices and monochromatic edges of `c` across the
/// distribution using only local + exchanged boundary information. Both
/// phases are bulk-synchronous, so `exec.threads > 1` runs the per-rank
/// callbacks on a thread pool (bit-identical result and cost model).
[[nodiscard]] DistVerifyResult verify_coloring_distributed(
    const DistGraph& dist, const Coloring& c,
    const MachineModel& model = MachineModel::zero_cost(),
    const ExecConfig& exec = {}, WireCodec codec = WireCodec::kCompact);

}  // namespace pmc
