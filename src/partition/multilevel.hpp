// Multilevel k-way graph partitioner — the stand-in for METIS / ParMETIS.
//
// Classic three-phase scheme (Karypis & Kumar):
//   1. coarsening by heavy-edge matching (HEM) until the graph is small,
//      each level contracted by per-coarse-vertex aggregation;
//   2. initial partition of the coarsest graph by BFS bands: one
//      breadth-first order sliced into weight-balanced chunks;
//   3. uncoarsening with greedy boundary refinement at every level. A
//      pass evaluates only the vertices that can move: it skips a vertex
//      whose neighbours all share its part, or to which no neighbouring
//      part offers a positive gain, until it or a neighbour moves.
//
// Levels hold 32-bit ids and integer weights (vertex weights count fine
// vertices, arc weights count fine arcs), so the input's vertex and arc
// counts must each fit in 31 bits.
//
// The paper's circuit-graph experiments depend only on partition *quality*:
// METIS produced a ~6 % edge cut and ParMETIS a ~40 % cut at 4,096 parts,
// and the scaling curves degrade accordingly. The two MultilevelConfig
// presets below reproduce those operating points: metis_like runs the full
// pipeline; parmetis_like coarsens less, skips refinement (refine_passes is
// 0) and moves a random fraction of boundary vertices to uniformly random
// parts, emulating the weaker parallel partitioner.
#pragma once

#include <cstdint>

#include "graph/csr_graph.hpp"
#include "partition/partition.hpp"
#include "support/types.hpp"

namespace pmc {

/// Tuning knobs for the multilevel partitioner.
struct MultilevelConfig {
  /// Stop coarsening once n <= max(parts * coarsen_to_per_part, parts).
  VertexId coarsen_to_per_part = 24;
  /// Greedy boundary refinement passes per uncoarsening level.
  int refine_passes = 4;
  /// Allowed max-part/average-part ratio during refinement moves.
  double max_imbalance = 1.10;
  /// Fraction of boundary vertices reassigned to a uniformly random part
  /// after partitioning (0 = none). Used to emulate lower-quality parallel
  /// partitioners (ParMETIS-like operating point).
  double perturb_fraction = 0.0;
  /// RNG seed (matching visit order, BFS start vertex, perturbation).
  std::uint64_t seed = 0;

  /// METIS-like: full multilevel pipeline, low cut.
  [[nodiscard]] static MultilevelConfig metis_like(std::uint64_t seed = 0);

  /// ParMETIS-like: shallow coarsening, no refinement, perturbation —
  /// produces substantially higher cuts at large part counts.
  [[nodiscard]] static MultilevelConfig parmetis_like(std::uint64_t seed = 0);
};

/// Partitions g into `parts` pieces. Requires parts <= num_vertices and
/// fewer than 2^31 vertices and arcs.
[[nodiscard]] Partition multilevel_partition(const Graph& g, Rank parts,
                                             const MultilevelConfig& config = {});

}  // namespace pmc
