// Stress and torture sweeps: adversarial weights (all ties), adversarial
// partitions, large simulated rank counts, and cross-cutting combinations
// that the per-module suites do not reach.
#include <gtest/gtest.h>

#include <tuple>

#include "coloring/parallel.hpp"
#include "coloring/parallel_verify.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "matching/parallel.hpp"
#include "matching/parallel_verify.hpp"
#include "matching/sequential.hpp"
#include "partition/multilevel.hpp"
#include "partition/simple.hpp"
#include "runtime/event_engine.hpp"
#include "runtime/serialize.hpp"
#include "test_util.hpp"

namespace pmc {
namespace {

DistMatchingOptions zero_cost_match() {
  DistMatchingOptions o;
  o.model = MachineModel::zero_cost();
  return o;
}

// ---- all-ties matching: tie-breaking is the whole algorithm -------------

class AllTiesSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(AllTiesSweep, UnitWeightsStillDeterministicAndEqualToSequential) {
  const auto [graph_kind, ranks] = GetParam();
  Graph g;
  switch (graph_kind) {
    case 0: g = grid_2d(12, 12, WeightKind::kUnit); break;
    case 1: g = complete(24, WeightKind::kUnit); break;
    case 2: g = erdos_renyi(150, 600, WeightKind::kUnit, 31); break;
    case 3: g = star(60, WeightKind::kUnit); break;
    default: FAIL();
  }
  const Partition p =
      random_partition(g.num_vertices(), static_cast<Rank>(ranks), 3);
  const auto dist_result = match_distributed(g, p, zero_cost_match());
  const Matching seq = locally_dominant_matching(g);
  EXPECT_EQ(dist_result.matching.mate, seq.mate);
  EXPECT_TRUE(is_maximal_matching(g, dist_result.matching));
}

INSTANTIATE_TEST_SUITE_P(GraphsTimesRanks, AllTiesSweep,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3),
                                            ::testing::Values(3, 8, 24)));

// ---- jitter sweep: delivery-order independence at scale ------------------

class JitterSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JitterSweep, MatchingInvariantUnderArbitraryDelays) {
  const Graph g = circuit_like(400, 850, 6, WeightKind::kUniformRandom, 33);
  const Partition p = multilevel_partition(g, 11, MultilevelConfig::metis_like(4));
  const Matching seq = locally_dominant_matching(g);
  DistMatchingOptions o;
  o.model = MachineModel::blue_gene_p();
  o.jitter_seconds = 5e-3;  // three orders of magnitude above the latency
  o.jitter_seed = GetParam();
  const auto result = match_distributed(g, p, o);
  EXPECT_EQ(result.matching.mate, seq.mate);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JitterSweep,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u,
                                           11u, 99u));

// ---- coloring under maximum conflict pressure ----------------------------

TEST(ColoringStress, CompleteGraphOneVertexPerRank) {
  // Every vertex on its own rank, all edges cross: the framework must
  // serialize through conflicts yet terminate with n colors.
  const VertexId n = 24;
  const Graph g = complete(n, WeightKind::kUnit);
  std::vector<Rank> owner(static_cast<std::size_t>(n));
  for (std::size_t v = 0; v < owner.size(); ++v) {
    owner[v] = static_cast<Rank>(v);
  }
  const Partition p(static_cast<Rank>(n), std::move(owner));
  // Blue Gene/P latencies: color information does NOT arrive instantly, so
  // the first round speculates blindly and conflicts pile up.
  const auto result =
      color_distributed(g, p, DistColoringOptions::improved());
  EXPECT_TRUE(is_proper_coloring(g, result.coloring));
  EXPECT_EQ(result.coloring.num_colors(), static_cast<Color>(n));
  EXPECT_GT(result.rounds, 1);  // speculation must have clashed
  EXPECT_LE(result.rounds, static_cast<int>(n));
}

TEST(ColoringStress, FiabOnPoorPartition) {
  // The paper's stated use case for broadcast mode: poorly partitioned
  // inputs where most vertices are boundary.
  const Graph g = erdos_renyi(300, 1800, WeightKind::kUnit, 35);
  const Partition p = random_partition(g.num_vertices(), 12, 7);
  const auto metrics = compute_metrics(g, p);
  EXPECT_GT(metrics.boundary_fraction, 0.9);
  auto o = DistColoringOptions::fiab();
  o.model = MachineModel::zero_cost();
  const auto result = color_distributed(g, p, o);
  EXPECT_TRUE(is_proper_coloring(g, result.coloring));
}

TEST(ColoringStress, BipartiteDoubleCoverStaysBipartite) {
  BipartiteInfo info;
  const Graph base = circuit_like(300, 640, 6, WeightKind::kUniformRandom, 36);
  const Graph g = bipartite_double_cover(base, info, /*with_diagonal=*/true, 1);
  g.validate();
  EXPECT_TRUE(respects_bipartition(g, info));
  const Partition p = block_partition(g.num_vertices(), 6);
  const auto result =
      color_distributed(g, p, DistColoringOptions::improved());
  EXPECT_TRUE(is_proper_coloring(g, result.coloring));
  // Greedy can exceed the optimal 2 colors on bipartite inputs, but stays
  // well under the Delta+1 bound on this sparse cover.
  EXPECT_GE(result.coloring.num_colors(), 2);
  EXPECT_LE(result.coloring.num_colors(),
            static_cast<Color>(g.max_degree()) + 1);
}

// ---- engine scale smoke ----------------------------------------------------

/// Ring relay: rank i forwards a token to rank i+1 once.
class RingRelay final : public Process {
 public:
  RingRelay(Rank self, Rank n) : self_(self), n_(n) {}
  void start(EventContext& ctx) override {
    if (self_ == 0) {
      ctx.send(1 % n_, test::id_frame(0), 1);
      if (n_ == 1) done_ = true;
    }
  }
  void handle(EventContext& ctx, Rank, std::span<const std::byte> payload) override {
    const auto hops = static_cast<std::int32_t>(test::read_id_frame(payload));
    done_ = true;
    if (self_ + 1 < n_) ctx.send(self_ + 1, test::id_frame(hops + 1), 1);
    last_hops_ = hops;
  }
  [[nodiscard]] bool done() const override { return self_ == 0 || done_; }
  std::int32_t last_hops_ = -1;

 private:
  Rank self_;
  Rank n_;
  bool done_ = false;
};

TEST(EngineScale, RingOf4096Ranks) {
  constexpr Rank kRanks = 4096;
  EventEngine engine(MachineModel::blue_gene_p());
  for (Rank r = 0; r < kRanks; ++r) {
    engine.add_process(std::make_unique<RingRelay>(r, kRanks));
  }
  const RunResult result = engine.run();
  EXPECT_EQ(result.comm.messages, kRanks - 1);
  // The ring serializes: time >= (P-1) * latency.
  EXPECT_GE(result.sim_seconds,
            (kRanks - 1) * MachineModel::blue_gene_p().latency);
  const auto& last = static_cast<RingRelay&>(engine.process(kRanks - 1));
  EXPECT_EQ(last.last_hops_, kRanks - 2);
}

TEST(EngineScale, ManyRankMatchingSmoke) {
  // 1,024 simulated ranks end-to-end on a small grid (1 vertex per rank
  // region on average); exercises the engine's bookkeeping at scale.
  const Graph g = grid_2d(32, 32, WeightKind::kUniformRandom, 37);
  const Partition p = grid_2d_partition(32, 32, 32, 32);
  const auto result = match_distributed(g, p, zero_cost_match());
  EXPECT_EQ(result.matching.mate, locally_dominant_matching(g).mate);
  const auto verified =
      verify_matching_distributed(DistGraph::build(g, p), result.matching);
  EXPECT_EQ(verified.violations, 0);
}

// ---- distributed verifier under load --------------------------------------

TEST(VerifierStress, EndToEndPipelineWithVerifiers) {
  const Graph g = circuit_like(2000, 4200, 6, WeightKind::kUniformRandom, 38);
  for (const bool parmetis : {false, true}) {
    const Partition p = multilevel_partition(
        g, 24,
        parmetis ? MultilevelConfig::parmetis_like(2)
                 : MultilevelConfig::metis_like(2));
    const DistGraph dist = DistGraph::build(g, p);
    const auto mres = match_distributed(dist, zero_cost_match());
    EXPECT_EQ(verify_matching_distributed(dist, mres.matching).violations, 0);
    const auto cres = color_distributed(dist, DistColoringOptions::improved());
    EXPECT_EQ(verify_coloring_distributed(dist, cres.coloring).violations, 0);
  }
}

}  // namespace
}  // namespace pmc
