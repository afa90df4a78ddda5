// Jones–Plassmann maximal-independent-set-based parallel coloring — the
// baseline the speculative framework is compared against (paper §4.1:
// "algorithms based on speculation and iteration outperform previously known
// algorithms that rely on iterative computation of maximal independent
// sets").
//
// Each round, a vertex whose random priority exceeds that of all its
// still-uncolored neighbors colors itself first-fit; boundary colors are
// exchanged, and rounds repeat until every vertex is colored. The number of
// rounds grows with the priority-chain length (O(log n / log log n) expected
// on bounded-degree graphs) and is provably at least the round count of the
// speculative framework.
#pragma once

#include <cstdint>

#include "coloring/coloring.hpp"
#include "runtime/comm_stats.hpp"
#include "runtime/dist_graph.hpp"
#include "runtime/exec/backend.hpp"
#include "runtime/machine_model.hpp"
#include "runtime/serialize.hpp"

namespace pmc {

/// Options for a Jones–Plassmann run.
struct JonesPlassmannOptions {
  MachineModel model = MachineModel::blue_gene_p();
  std::uint64_t seed = 0;
  int max_rounds = 100000;
  /// Wire codec for the boundary-color frames.
  WireCodec codec = WireCodec::kCompact;
  /// Execution backend (exec.threads > 1 runs the per-rank round callbacks
  /// on a thread pool, bit-identically to sequential execution).
  ExecConfig exec;
};

/// Result of a Jones–Plassmann run.
struct JonesPlassmannResult {
  Coloring coloring;
  RunResult run;
  int rounds = 0;
};

/// Runs Jones–Plassmann coloring on a pre-built distribution.
[[nodiscard]] JonesPlassmannResult color_jones_plassmann(
    const DistGraph& dist, const JonesPlassmannOptions& options = {});

}  // namespace pmc
