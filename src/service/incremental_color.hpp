// Incremental re-coloring after a batch of edge updates (service mode).
//
// The speculative framework's repair loop (coloring/parallel.cpp) converges
// to *a* proper coloring, but which one depends on the superstep schedule —
// useless for incremental repair, where the warm-started run must reproduce
// the cold run's answer bit for bit. Service mode therefore pins the
// *canonical* coloring: the unique fixed point
//
//     c(v) = first-fit over { c(u) : u a neighbor with higher priority },
//
// where "higher priority" is the framework's deterministic conflict order
// (vertex_priority, then global id — see wins_priority in
// coloring/color_exchange.hpp). This is exactly the coloring distributed
// Jones–Plassmann computes, and greedy first-fit in descending priority
// order computes it sequentially (canonical_coloring below).
//
// The incremental driver is a chaotic-iteration solver for that fixed
// point on the synchronous BSP runtime: warm-start every rank with the
// previous batch's colors (owned and ghost), re-enter only the updated
// edges' endpoints, recolor them canonically in supersteps, exchange the
// boundary colors that actually changed, and re-enter any neighbor whose
// stored color no longer equals its canonical fit. Because the dependency
// order (priority) is acyclic, the iteration terminates in the unique fixed
// point from *any* starting state — so the warm run, the cold run and the
// sequential reference all agree exactly, at every thread count, with or
// without fault injection (dropped announcements reuse PR 2's
// lost-tracking re-entry from coloring/color_exchange.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "coloring/coloring.hpp"
#include "coloring/parallel.hpp"
#include "service/update_stream.hpp"

namespace pmc {

/// Sequential reference for the canonical coloring: greedy first-fit in
/// descending (vertex_priority, id) order.
[[nodiscard]] Coloring canonical_coloring(const Graph& g,
                                          std::uint64_t seed = 0);

/// Result of an incremental (or cold canonical) distributed coloring run.
///
/// Reused DistColoringOptions fields: superstep_size, comm_mode, codec,
/// model, seed, max_rounds, faults, trace, exec. Ignored fields (the
/// canonical fixed point leaves no freedom): superstep_mode (always
/// synchronous), local_order (local-id order), strategy (first-fit over
/// higher-priority neighbors).
struct IncrementalColorResult {
  Coloring coloring;  ///< Coloring of the *new* graph (== cold recompute).
  RunResult run;
  int rounds = 0;
  std::int64_t total_supersteps = 0;
  /// Color assignments that changed a vertex's stored color.
  std::int64_t recolored = 0;
  /// Vertices re-entered because their announcement was dropped (PR 2's
  /// repair machinery; 0 without fault injection).
  std::int64_t fault_reentries = 0;
};

/// Repairs `previous` (the canonical coloring of the pre-update graph) into
/// the canonical coloring of `dist` (the post-update distribution).
/// `touched` lists the global endpoints of the batch's updates, strictly
/// ascending (touched_vertices); any other list throws pmc::Error. The
/// result is byte-identical to color_canonical(dist, options).coloring.
[[nodiscard]] IncrementalColorResult color_incremental(
    const DistGraph& dist, const Coloring& previous,
    const std::vector<VertexId>& touched,
    const DistColoringOptions& options = {});

/// Cold canonical coloring with the same driver (every vertex re-entered,
/// no warm state) — the service's full-recompute baseline, and the
/// distributed equal of canonical_coloring / Jones–Plassmann.
[[nodiscard]] IncrementalColorResult color_canonical(
    const DistGraph& dist, const DistColoringOptions& options = {});

}  // namespace pmc
