// Service mode: a long-lived graph that absorbs edge-update streams and
// keeps its matching and coloring repaired incrementally.
//
// GraphService owns the dynamic graph, a fixed partition (ownership does
// not migrate — the paper's data distribution with a static p(v)), the
// distribution of the graph over that partition, and the current matching
// + canonical coloring. push() validates each update and applies it to the
// dynamic graph at once, so an invalid update throws at its own push and
// changes nothing. Updates are coalesced by a batching front-end: once
// `batch_window` updates are buffered (or refresh() is called), the service
// folds the batch into the CSR, refreshes the distribution of the ranks
// owning a touched vertex, and repairs both solutions via the incremental
// drivers (service/incremental_match.hpp, service/incremental_color.hpp).
// Each batch yields a BatchReport with the modelled repair times and the
// matching's weight, summed from pair weights the service keeps current for
// the vertices the repair invalidated or that the batch touched. With
// `verify_batches` the service also runs full recomputes and asserts
// byte-identical agreement — the service's self-check. It is off by
// default; the service tests and bench_service turn it on, and
// bench_pipeline's service-stream leaves it off.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "coloring/parallel.hpp"
#include "graph/csr_graph.hpp"
#include "matching/parallel.hpp"
#include "partition/partition.hpp"
#include "runtime/dist_graph.hpp"
#include "service/incremental_color.hpp"
#include "service/incremental_match.hpp"
#include "service/update_stream.hpp"

namespace pmc {

/// Options of a GraphService.
struct ServiceOptions {
  /// Updates buffered before push() automatically refreshes; 0 disables
  /// auto-refresh (batches form only on explicit refresh()).
  std::int64_t batch_window = 32;
  /// Options forwarded to the matching runs (incremental and baseline).
  DistMatchingOptions matching;
  /// Options forwarded to the coloring runs (see incremental_color.hpp for
  /// which fields the canonical driver honors).
  DistColoringOptions coloring;
  /// Run a full recompute alongside every incremental repair and require
  /// byte-identical results (also fills the full_* report fields).
  bool verify_batches = false;
};

/// Per-batch outcome statistics.
struct BatchReport {
  std::int64_t batch = 0;    ///< 0-based batch index.
  std::int64_t updates = 0;  ///< Updates applied in this batch.
  std::int64_t touched = 0;  ///< Distinct endpoints seeded.
  /// Vertices the matching closure re-negotiated / color assignments that
  /// changed — the incremental work actually done.
  VertexId match_invalidated = 0;
  std::int64_t color_recolored = 0;
  /// Modelled (simulated) seconds of the incremental repairs.
  double match_sim_seconds = 0.0;
  double color_sim_seconds = 0.0;
  /// Modelled seconds of the full recomputes (0 unless verify_batches).
  double full_match_sim_seconds = 0.0;
  double full_color_sim_seconds = 0.0;
  /// Solution quality after the batch.
  Weight matching_weight = 0.0;
  Color num_colors = 0;
};

/// A dynamic graph with incrementally maintained matching and coloring.
class GraphService {
 public:
  /// Builds the service on `initial` with the fixed `partition`, running
  /// the cold matching + canonical coloring once.
  GraphService(const Graph& initial, Partition partition,
               ServiceOptions options = {});

  /// Applies one update to the dynamic graph and buffers it; refreshes
  /// automatically when the buffer reaches batch_window. Returns the batch
  /// report when a refresh happened. Throws pmc::Error on an update that is
  /// invalid against the current edge set, leaving the service unchanged.
  std::optional<BatchReport> push(const EdgeUpdate& update);

  /// Repairs the solutions for all buffered updates as one batch. Requires
  /// a non-empty buffer. The solutions are moved into the repairs, so a
  /// repair that throws (a failed internal check) leaves none behind, and
  /// every later batch throws.
  BatchReport refresh();

  [[nodiscard]] std::int64_t pending_updates() const noexcept {
    return static_cast<std::int64_t>(buffer_.size());
  }

  /// The graph as of the last refresh (buffered updates not included).
  [[nodiscard]] const Graph& graph() const noexcept {
    return dynamic_.folded();
  }
  [[nodiscard]] const Matching& matching() const noexcept { return matching_; }
  [[nodiscard]] const Coloring& coloring() const noexcept { return coloring_; }
  /// Reports of all completed batches, in order.
  [[nodiscard]] const std::vector<BatchReport>& history() const noexcept {
    return history_;
  }

 private:
  /// Sets `pair_weight_[v]` from v's pair under `mate`.
  void keep_pair_weight(const Graph& g, const std::vector<VertexId>& mate,
                        VertexId v);

  ServiceOptions options_;
  Partition partition_;
  DynamicGraph dynamic_;
  DistGraph dist_;
  Matching matching_;
  Coloring coloring_;
  /// Weight of v's matched edge when v is the smaller end of its pair
  /// (matching_.mate[v] > v), else 0: the terms matching_weight() sums,
  /// kept across batches so a report pays no search per vertex.
  std::vector<Weight> pair_weight_;
  std::vector<EdgeUpdate> buffer_;
  std::vector<BatchReport> history_;
};

}  // namespace pmc
