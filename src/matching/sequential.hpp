// Sequential half-approximation matching algorithms.
//
// Two equivalent constructions of the locally-dominant matching:
//   * greedy_matching — global greedy: sort all edges by weight and take
//     them greedily. O(E log E). The textbook baseline.
//   * locally_dominant_matching — the candidate-mate (pointer) algorithm of
//     Preis / Hoepman / Manne-Bisseling that the paper parallelizes
//     (Section 3.1), and the reference every distributed matching is checked
//     against. O(E log Δ) for the per-row sorts, then O(E) for the pointer
//     walk. Scratch: 4 bytes per arc (each row's sorted positions) and 12
//     bytes per vertex (pointer and candidate), plus a worklist of the
//     matched vertices still to visit.
//
// Ties are broken by the smallest vertex label, exactly as the paper
// prescribes, which makes the edge order total (weight, then endpoint
// labels). Under a total order both constructions produce the same
// matching: an edge that is both endpoints' heaviest live edge is matched
// whatever order such edges are found in, so the worklist's order is free.
#pragma once

#include "graph/csr_graph.hpp"
#include "matching/matching.hpp"

namespace pmc {

/// Global greedy matching over edges sorted by (weight desc, endpoint ids).
[[nodiscard]] Matching greedy_matching(const Graph& g);

/// Candidate-mate locally-dominant matching (the algorithm of paper §3.1).
[[nodiscard]] Matching locally_dominant_matching(const Graph& g);

}  // namespace pmc
