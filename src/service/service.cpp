#include "service/service.hpp"

#include <utility>

#include "support/error.hpp"

namespace pmc {

GraphService::GraphService(const Graph& initial, Partition partition,
                           ServiceOptions options)
    : options_(options),
      partition_(std::move(partition)),
      dynamic_(initial) {
  PMC_REQUIRE(partition_.num_vertices() == initial.num_vertices(),
              "partition covers " << partition_.num_vertices()
                                  << " vertices, graph has "
                                  << initial.num_vertices());
  PMC_REQUIRE(options_.batch_window >= 0,
              "negative batch_window " << options_.batch_window);
  dist_ = DistGraph::build(dynamic_.folded(), partition_);
  matching_ = match_distributed(dist_, options_.matching).matching;
  coloring_ = color_canonical(dist_, options_.coloring).coloring;
  pair_weight_.resize(matching_.mate.size());
  for (VertexId v = 0; v < matching_.num_vertices(); ++v) {
    keep_pair_weight(dynamic_.folded(), matching_.mate, v);
  }
}

void GraphService::keep_pair_weight(const Graph& g,
                                    const std::vector<VertexId>& mate,
                                    VertexId v) {
  const auto i = static_cast<std::size_t>(v);
  pair_weight_[i] = mate[i] > v ? g.edge_weight(v, mate[i]) : Weight{0};
}

std::optional<BatchReport> GraphService::push(const EdgeUpdate& update) {
  dynamic_.apply(update);
  buffer_.push_back(update);
  if (options_.batch_window > 0 &&
      static_cast<std::int64_t>(buffer_.size()) >= options_.batch_window) {
    return refresh();
  }
  return std::nullopt;
}

BatchReport GraphService::refresh() {
  PMC_REQUIRE(!buffer_.empty(), "refresh() with no buffered updates");
  const std::vector<VertexId> touched = touched_vertices(buffer_);
  const Graph& graph = dynamic_.snapshot();
  dist_.refresh(graph, partition_, touched);

  // Both solutions are repaired in place and moved back below.
  IncrementalMatchResult im = match_incremental(dist_, std::move(matching_),
                                                touched, options_.matching);
  IncrementalColorResult ic = color_incremental(dist_, std::move(coloring_),
                                                touched, options_.coloring);

  BatchReport report;
  report.batch = static_cast<std::int64_t>(history_.size());
  report.updates = static_cast<std::int64_t>(buffer_.size());
  report.touched = static_cast<std::int64_t>(touched.size());
  report.match_invalidated = im.invalidated;
  report.color_recolored = ic.recolored;
  report.match_sim_seconds = im.run.sim_seconds;
  report.color_sim_seconds = ic.run.sim_seconds;

  if (options_.verify_batches) {
    const DistMatchingResult fm = match_distributed(dist_, options_.matching);
    PMC_CHECK(fm.matching.mate == im.matching.mate,
              "incremental matching diverged from the full recompute on "
              "batch "
                  << report.batch);
    const IncrementalColorResult fc = color_canonical(dist_, options_.coloring);
    PMC_CHECK(fc.coloring.color == ic.coloring.color,
              "incremental coloring diverged from the full recompute on "
              "batch "
                  << report.batch);
    report.full_match_sim_seconds = fm.run.sim_seconds;
    report.full_color_sim_seconds = fc.run.sim_seconds;
  }

  // Only an invalidated vertex can have a new mate, and only such a vertex
  // or a touched one (a reweight can keep its pair) a new pair weight.
  const std::vector<VertexId>& mate = im.matching.mate;
  for (const VertexId v : im.invalidated_ids) keep_pair_weight(graph, mate, v);
  for (const VertexId v : touched) keep_pair_weight(graph, mate, v);
  matching_ = std::move(im.matching);
  coloring_ = std::move(ic.coloring);
  // The additions matching_weight() makes, in its order, plus a +0 for
  // every other vertex: a sum that starts at +0 never becomes -0, and
  // adding +0 to anything else keeps its bits.
  for (const Weight w : pair_weight_) report.matching_weight += w;
  report.num_colors = coloring_.num_colors();
  history_.push_back(report);
  buffer_.clear();
  return report;
}

}  // namespace pmc
