// Distance-2 graph coloring — the derivative-computation variant the paper's
// introduction motivates ("efficient computation of sparse Jacobian and
// Hessian matrices"): vertices at distance <= 2 must receive distinct
// colors. Greedy first-fit uses at most Δ² + 1 colors.
//
// Provided as the library's extension beyond the paper's distance-1
// experiments: a sequential greedy algorithm, verification, and two
// distributed colorings. The native one is the paper's speculative
// framework itself run at distance 2, the design Zoltan's distributed
// distance-2 colorer builds on: color_distributed on a halo-2 distribution,
// where each rank also holds its distance-1 ghosts' rows and tells every
// rank within two hops. The squared-graph one materializes G² and runs the
// distance-1 framework on it; it stays as the reference.
#pragma once

#include "coloring/coloring.hpp"
#include "coloring/parallel.hpp"
#include "coloring/sequential.hpp"
#include "graph/csr_graph.hpp"
#include "partition/partition.hpp"

namespace pmc {

/// Greedy distance-2 coloring in the given static ordering.
[[nodiscard]] Coloring greedy_distance2_coloring(
    const Graph& g, OrderingKind ordering = OrderingKind::kNatural,
    std::uint64_t seed = 0);

/// True iff no two vertices at distance 1 or 2 share a color.
[[nodiscard]] bool is_proper_distance2_coloring(const Graph& g,
                                                const Coloring& c,
                                                std::string* why = nullptr);

/// Distributed distance-2 coloring: runs the paper's speculative framework
/// on the square graph G² (a distance-1 coloring of G² is a distance-2
/// coloring of g) under the *original* partition, so communication
/// patterns reflect the 2-hop ghost exchange a native implementation would
/// perform. Production systems avoid materializing G²; for the simulated
/// reproduction the semantics are identical.
[[nodiscard]] DistColoringResult color_distance2_distributed(
    const Graph& g, const Partition& p,
    const DistColoringOptions& options = DistColoringOptions::improved());

/// Native distributed distance-2 coloring: color_distributed on
/// DistGraph::build(g, p, 2). It colors each rank's vertices in local-id
/// order and sends neighbor-customized messages (the paper's NEW mode),
/// whatever options.local_order and options.comm_mode say.
[[nodiscard]] DistColoringResult color_distance2_distributed_native(
    const Graph& g, const Partition& p,
    const DistColoringOptions& options = DistColoringOptions::improved());

}  // namespace pmc
