// Microbenchmarks of the sequential kernels (google-benchmark): the
// building blocks whose costs calibrate the simulated machine model.
#include <benchmark/benchmark.h>

#include <iomanip>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/pmc.hpp"

namespace pmc {
namespace {

const Graph& shared_grid() {
  static const Graph g = grid_2d(256, 256, WeightKind::kUniformRandom, 71);
  return g;
}

const Graph& shared_er() {
  static const Graph g =
      erdos_renyi(50000, 300000, WeightKind::kUniformRandom, 72);
  return g;
}

void BM_LocallyDominantMatching(benchmark::State& state) {
  const Graph& g = shared_er();
  for (auto _ : state) {
    benchmark::DoNotOptimize(locally_dominant_matching(g));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_LocallyDominantMatching)->Unit(benchmark::kMillisecond);

// The checks a verified run pays after solving, on the shared grid.
void BM_IsValidMatching(benchmark::State& state) {
  const Graph& g = shared_grid();
  const Matching m = locally_dominant_matching(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(is_valid_matching(g, m));
  }
  state.SetItemsProcessed(state.iterations() * g.num_vertices());
}
BENCHMARK(BM_IsValidMatching)->Unit(benchmark::kMillisecond);

void BM_VerifyMatchingDistributed(benchmark::State& state) {
  const Graph& g = shared_grid();
  const DistGraph dist =
      DistGraph::build(g, grid_2d_partition(256, 256, 16, 16));
  const Matching m = locally_dominant_matching(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        verify_matching_distributed(dist, m, MachineModel::blue_gene_p()));
  }
}
BENCHMARK(BM_VerifyMatchingDistributed)->Unit(benchmark::kMillisecond);

void BM_VerifyColoringDistributed(benchmark::State& state) {
  const Graph& g = shared_grid();
  const DistGraph dist =
      DistGraph::build(g, grid_2d_partition(256, 256, 16, 16));
  const Coloring c = greedy_coloring(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        verify_coloring_distributed(dist, c, MachineModel::blue_gene_p()));
  }
}
BENCHMARK(BM_VerifyColoringDistributed)->Unit(benchmark::kMillisecond);

void BM_GreedyMatching(benchmark::State& state) {
  const Graph& g = shared_er();
  for (auto _ : state) {
    benchmark::DoNotOptimize(greedy_matching(g));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_GreedyMatching)->Unit(benchmark::kMillisecond);

void BM_GreedyColoringFirstFit(benchmark::State& state) {
  const Graph& g = shared_er();
  for (auto _ : state) {
    benchmark::DoNotOptimize(greedy_coloring(g));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_GreedyColoringFirstFit)->Unit(benchmark::kMillisecond);

void BM_GreedyColoringSmallestLast(benchmark::State& state) {
  const Graph& g = shared_er();
  SeqColoringOptions opts;
  opts.ordering = OrderingKind::kSmallestLast;
  for (auto _ : state) {
    benchmark::DoNotOptimize(greedy_coloring(g, opts));
  }
}
BENCHMARK(BM_GreedyColoringSmallestLast)->Unit(benchmark::kMillisecond);

void BM_MultilevelPartition(benchmark::State& state) {
  const Graph& g = shared_grid();
  const auto parts = static_cast<Rank>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        multilevel_partition(g, parts, MultilevelConfig::metis_like(1)));
  }
}
BENCHMARK(BM_MultilevelPartition)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

// The shape circuit-1k partitions with metis_like(7), at a quarter of its
// size and parts: the bipartite double cover of a circuit graph, about 300
// vertices per part, coarsened through several levels.
void BM_MultilevelPartitionCircuit(benchmark::State& state) {
  static const Graph g = [] {
    BipartiteInfo info;
    return bipartite_double_cover(
        circuit_like(40000, 80000, 6, WeightKind::kUniformRandom, 74), info,
        /*with_diagonal=*/true, 74);
  }();
  const auto parts = static_cast<Rank>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        multilevel_partition(g, parts, MultilevelConfig::metis_like(7)));
  }
}
BENCHMARK(BM_MultilevelPartitionCircuit)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_DistGraphBuild(benchmark::State& state) {
  const Graph& g = shared_grid();
  const Partition p = grid_2d_partition(256, 256, 8, 8);
  // Each distribution is destroyed untimed and only after its successor is
  // built: freed first, its pages went back to the system when glibc
  // trimmed the heap, and the next build paid to fault them back in.
  DistGraph previous = DistGraph::build(g, p);
  for (auto _ : state) {
    DistGraph dist = DistGraph::build(g, p);
    benchmark::DoNotOptimize(dist);
    state.PauseTiming();
    previous = std::move(dist);
    state.ResumeTiming();
  }
}
BENCHMARK(BM_DistGraphBuild)->Unit(benchmark::kMillisecond);

// Service mode's fold alone: one 16-update batch applied untimed, then one
// snapshot() that splices the touched rows into the CSR.
void BM_DynamicGraphFold(benchmark::State& state) {
  const Graph& g = shared_grid();
  DynamicGraph dyn(g);
  UpdateStreamConfig cfg;
  cfg.seed = 73;
  UpdateStreamGenerator gen(g, cfg);
  for (auto _ : state) {
    state.PauseTiming();
    for (const EdgeUpdate& u : gen.next_batch(16)) dyn.apply(u);
    state.ResumeTiming();
    benchmark::DoNotOptimize(dyn.snapshot());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_DynamicGraphFold)->Unit(benchmark::kMillisecond);

// Service mode's per-batch distribution upkeep alone: one 16-update batch
// applied and folded into the CSR untimed, then one refresh of the ranks
// owning a touched vertex. Every run times the same 100 batches, as many as
// service-stream pushes: the stream keeps adding cross edges, so a run that
// chose its own iteration count would give a faster refresh more ghosts.
void BM_DistGraphRefresh(benchmark::State& state) {
  const Graph& g = shared_grid();
  const Partition p = grid_2d_partition(256, 256, 8, 8);
  DynamicGraph dyn(g);
  DistGraph dist = DistGraph::build(dyn.folded(), p);
  UpdateStreamConfig cfg;
  cfg.seed = 73;
  UpdateStreamGenerator gen(g, cfg);
  for (auto _ : state) {
    state.PauseTiming();
    const std::vector<EdgeUpdate> batch = gen.next_batch(16);
    for (const EdgeUpdate& u : batch) dyn.apply(u);
    const Graph& folded = dyn.snapshot();
    const std::vector<VertexId> touched = touched_vertices(batch);
    state.ResumeTiming();
    dist.refresh(folded, p, touched);
    benchmark::DoNotOptimize(dist);
  }
}
BENCHMARK(BM_DistGraphRefresh)->Iterations(100)->Unit(benchmark::kMillisecond);

/// One service-stream batch, prepared: the grid's matching and canonical
/// coloring on 64 ranks, then one 16-update batch folded and refreshed.
struct RepairCase {
  DistGraph dist;
  Matching matching;
  Coloring coloring;
  std::vector<VertexId> touched;
};

const RepairCase& shared_repair() {
  static const RepairCase rc = [] {
    const Graph& g = shared_grid();
    const Partition p = grid_2d_partition(256, 256, 8, 8);
    DynamicGraph dyn(g);
    RepairCase c;
    c.dist = DistGraph::build(dyn.folded(), p);
    c.matching = match_distributed(c.dist).matching;
    c.coloring = color_canonical(c.dist).coloring;
    UpdateStreamConfig cfg;
    cfg.seed = 74;
    UpdateStreamGenerator gen(g, cfg);
    const std::vector<EdgeUpdate> batch = gen.next_batch(16);
    for (const EdgeUpdate& u : batch) dyn.apply(u);
    c.touched = touched_vertices(batch);
    c.dist.refresh(dyn.snapshot(), p, c.touched);
    return c;
  }();
  return rc;
}

// One incremental re-matching of the prepared batch.
void BM_MatchIncremental(benchmark::State& state) {
  const RepairCase& rc = shared_repair();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        match_incremental(rc.dist, rc.matching, rc.touched));
  }
}
BENCHMARK(BM_MatchIncremental)->Unit(benchmark::kMillisecond);

// One incremental re-coloring of the prepared batch.
void BM_ColorIncremental(benchmark::State& state) {
  const RepairCase& rc = shared_repair();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        color_incremental(rc.dist, rc.coloring, rc.touched));
  }
}
BENCHMARK(BM_ColorIncremental)->Unit(benchmark::kMillisecond);

// One service-stream batch: 16 updates, drawn untimed, pushed through
// GraphService::push on the grid with 64 ranks; the last push folds the
// batch, refreshes the distribution, repairs both solutions and reports.
// The count is fixed, as in BM_DistGraphRefresh, because the stream keeps
// changing the graph.
void BM_ServiceBatch(benchmark::State& state) {
  const Graph& g = shared_grid();
  ServiceOptions options;
  options.batch_window = 16;
  GraphService service(g, grid_2d_partition(256, 256, 8, 8), options);
  UpdateStreamConfig cfg;
  cfg.seed = 75;
  UpdateStreamGenerator gen(g, cfg);
  for (auto _ : state) {
    state.PauseTiming();
    const std::vector<EdgeUpdate> batch = gen.next_batch(16);
    state.ResumeTiming();
    for (const EdgeUpdate& u : batch) {
      benchmark::DoNotOptimize(service.push(u));
    }
  }
}
BENCHMARK(BM_ServiceBatch)->Iterations(100)->Unit(benchmark::kMillisecond);

// The global-to-local resolution every decoded record pays: each rank looks
// up every global id it holds, owned and ghost, plus as many it does not,
// in a seeded random order so a branchy search cannot learn the pattern.
void BM_LocalIdLookup(benchmark::State& state) {
  const Graph& g = shared_grid();
  const VertexId n = g.num_vertices();
  const DistGraph dist =
      DistGraph::build(g, grid_2d_partition(256, 256, 16, 16));
  std::vector<std::vector<VertexId>> queries(
      static_cast<std::size_t>(dist.num_ranks()));
  std::vector<char> held(static_cast<std::size_t>(n));
  std::size_t total = 0;
  for (Rank r = 0; r < dist.num_ranks(); ++r) {
    const LocalGraph& lg = dist.local(r);
    std::vector<VertexId> ids;
    std::fill(held.begin(), held.end(), 0);
    for (VertexId l = 0; l < lg.num_local(); ++l) {
      ids.push_back(lg.global_id(l));
      held[static_cast<std::size_t>(lg.global_id(l))] = 1;
    }
    // Absent ids spread over the whole range (the stride is odd, so the
    // walk visits every vertex before repeating).
    for (VertexId k = 0, absent = 0; absent < lg.num_local(); ++k) {
      const VertexId v = (lg.global_id(0) + k * 40503) % n;
      if (held[static_cast<std::size_t>(v)] == 0) {
        ids.push_back(v);
        ++absent;
      }
    }
    auto& q = queries[static_cast<std::size_t>(r)];
    for (const VertexId i : random_permutation(
             static_cast<VertexId>(ids.size()), static_cast<std::uint64_t>(r))) {
      q.push_back(ids[static_cast<std::size_t>(i)]);
    }
    total += q.size();
  }
  for (auto _ : state) {
    VertexId sum = 0;
    for (Rank r = 0; r < dist.num_ranks(); ++r) {
      const LocalGraph& lg = dist.local(r);
      for (const VertexId v : queries[static_cast<std::size_t>(r)]) {
        sum += lg.local_id(v);
      }
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(total));
}
BENCHMARK(BM_LocalIdLookup)->Unit(benchmark::kMillisecond);

/// Argument: ranks per side of the processor grid. 64 puts grid-4k's 4,096
/// ranks on the grid, with 4x4 vertices each.
void BM_DistributedMatchingSim(benchmark::State& state) {
  const Graph& g = shared_grid();
  const auto side = static_cast<Rank>(state.range(0));
  const Partition p = grid_2d_partition(256, 256, side, side);
  const DistGraph dist = DistGraph::build(g, p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(match_distributed(dist, DistMatchingOptions{}));
  }
}
BENCHMARK(BM_DistributedMatchingSim)
    ->Arg(8)
    ->Arg(64)
    ->ArgName("ranks_per_side")
    ->Unit(benchmark::kMillisecond);

/// Eager (one message per record) matching under the eager-faults workload's
/// fault mix — drops, duplicates, corruption and jitter — on 256 ranks: the
/// event queue and the reliable transport's per-channel state dominate.
void BM_EventEngineEagerFaults(benchmark::State& state) {
  const Graph& g = shared_grid();
  const Partition p = grid_2d_partition(256, 256, 16, 16);
  const DistGraph dist = DistGraph::build(g, p);
  DistMatchingOptions opts;
  opts.bundled = false;
  opts.jitter_seconds = 2e-6;
  opts.jitter_seed = 5;
  opts.faults.drop_rate = 0.05;
  opts.faults.duplicate_rate = 0.02;
  opts.faults.corrupt_rate = 0.01;
  opts.faults.seed = 5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(match_distributed(dist, opts));
  }
}
BENCHMARK(BM_EventEngineEagerFaults)->Unit(benchmark::kMillisecond);

/// Argument: ranks per side of the processor grid. 64 puts 4,096 ranks of
/// 4x4 vertices on the grid, where per-rank staging state dominates.
void BM_DistributedColoringSim(benchmark::State& state) {
  const Graph& g = shared_grid();
  const auto side = static_cast<Rank>(state.range(0));
  const Partition p = grid_2d_partition(256, 256, side, side);
  const DistGraph dist = DistGraph::build(g, p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        color_distributed(dist, DistColoringOptions::improved()));
  }
}
BENCHMARK(BM_DistributedColoringSim)
    ->Arg(8)
    ->Arg(64)
    ->ArgName("ranks_per_side")
    ->Unit(benchmark::kMillisecond);

void BM_ExactBipartiteMatching(benchmark::State& state) {
  BipartiteInfo info;
  const Graph g = random_bipartite(1000, 1000, 6000, info,
                                   WeightKind::kUniformRandom, 73);
  for (auto _ : state) {
    benchmark::DoNotOptimize(exact_max_weight_bipartite_matching(g, info));
  }
}
BENCHMARK(BM_ExactBipartiteMatching)->Unit(benchmark::kMillisecond);

// grid-4k's input: one 1024x1024 grid with its weights.
void BM_Grid2d(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        grid_2d(1024, 1024, WeightKind::kUniformRandom, 51));
  }
}
BENCHMARK(BM_Grid2d)->Unit(benchmark::kMillisecond);

// ≈100k weighted entries, written with 17 significant digits as the
// circuit workload's matrix is.
const std::string& shared_matrix_text() {
  static const std::string text = [] {
    BipartiteInfo info;
    const Graph g = random_bipartite(20000, 20000, 100000,
                                     info, WeightKind::kUniformRandom, 75);
    std::ostringstream out;
    out << std::setprecision(17);
    write_matrix_market(out, bipartite_to_matrix(g, info));
    return out.str();
  }();
  return text;
}

void BM_ReadMatrixMarket(benchmark::State& state) {
  const std::string& text = shared_matrix_text();
  for (auto _ : state) {
    std::istringstream in(text);
    benchmark::DoNotOptimize(read_matrix_market(in));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_ReadMatrixMarket)->Unit(benchmark::kMillisecond);

// A 512x512 grid's edges in shuffled order: add_edge plus build, the way a
// reader or generator feeds the builder.
void BM_GraphBuilderBuild(benchmark::State& state) {
  static const auto edges = [] {
    const Graph g = grid_2d(512, 512, WeightKind::kUniformRandom, 76);
    std::vector<std::tuple<VertexId, VertexId, Weight>> out;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const auto nbrs = g.neighbors(v);
      const auto ws = g.weights(v);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        if (nbrs[i] > v) out.emplace_back(v, nbrs[i], ws[i]);
      }
    }
    Rng rng(77);
    for (std::size_t i = out.size(); i > 1; --i) {
      std::swap(out[i - 1], out[static_cast<std::size_t>(rng.uniform_int(
                                0, static_cast<std::int64_t>(i) - 1))]);
    }
    return out;
  }();
  for (auto _ : state) {
    GraphBuilder builder(512 * 512, /*weighted=*/true);
    for (const auto& [u, v, w] : edges) builder.add_edge(u, v, w);
    benchmark::DoNotOptimize(std::move(builder).build());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(edges.size()));
}
BENCHMARK(BM_GraphBuilderBuild)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pmc

BENCHMARK_MAIN();
