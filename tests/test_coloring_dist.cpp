// Tests for the distributed speculative coloring framework: properness for
// every variant, convergence, communication-mode comparisons, and the
// framework's conflict-resolution semantics.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "coloring/color_exchange.hpp"
#include "coloring/parallel.hpp"
#include "coloring/sequential.hpp"
#include "graph/generators.hpp"
#include "partition/multilevel.hpp"
#include "partition/simple.hpp"
#include "support/error.hpp"

namespace pmc {
namespace {

DistColoringOptions zero_cost(DistColoringOptions o = {}) {
  o.model = MachineModel::zero_cost();
  return o;
}

TEST(DistColoring, SingleRankEqualsSequentialGreedy) {
  const Graph g = erdos_renyi(300, 1200, WeightKind::kUnit, 1);
  const Partition p = block_partition(g.num_vertices(), 1);
  const auto result = color_distributed(g, p, zero_cost());
  EXPECT_TRUE(is_proper_coloring(g, result.coloring));
  EXPECT_EQ(result.rounds, 1);  // no boundary, no conflicts
  EXPECT_EQ(result.run.comm.messages, 0);
  const Coloring seq = greedy_coloring(g);
  EXPECT_EQ(result.coloring.num_colors(), seq.num_colors());
}

TEST(DistColoring, ProperOnGridAcrossRankCounts) {
  const Graph g = grid_2d(20, 20);
  for (Rank ranks : {2, 4, 16}) {
    Rank pr = 0, pc = 0;
    factor_processor_grid(ranks, pr, pc);
    const Partition p = grid_2d_partition(20, 20, pr, pc);
    const auto result = color_distributed(g, p, zero_cost());
    std::string why;
    EXPECT_TRUE(is_proper_coloring(g, result.coloring, &why)) << why;
    EXPECT_LE(result.coloring.num_colors(),
              static_cast<Color>(g.max_degree()) + 1);
  }
}

TEST(DistColoring, ConvergesWithinFewRoundsOnWellPartitionedInput) {
  // Paper: "algorithms FIAC and FIAB converged rapidly — within at most six
  // rounds".
  const Graph g = grid_2d(32, 32);
  const Partition p = grid_2d_partition(32, 32, 4, 4);
  const auto result = color_distributed(g, p, zero_cost());
  EXPECT_LE(result.rounds, 6);
  EXPECT_TRUE(is_proper_coloring(g, result.coloring));
}

TEST(DistColoring, ConflictCountsDecreaseToZero) {
  const Graph g = erdos_renyi(500, 3000, WeightKind::kUnit, 2);
  const Partition p = random_partition(g.num_vertices(), 8, 1);
  auto opts = zero_cost();
  opts.superstep_size = 50;
  const auto result = color_distributed(g, p, opts);
  ASSERT_GE(result.conflicts_per_round.size(), 1u);
  EXPECT_EQ(result.conflicts_per_round.back(), 0);
  EXPECT_TRUE(is_proper_coloring(g, result.coloring));
}

TEST(DistColoring, ColorCountStaysNearSequential) {
  // Paper: "the number of colors ... in general remained nearly the same as
  // the number used by the underlying serial algorithm".
  const Graph g = circuit_like(2000, 4200, 6, WeightKind::kUnit, 3);
  const Coloring seq = greedy_coloring(g);
  const Partition p = multilevel_partition(g, 16, MultilevelConfig::metis_like());
  const auto result = color_distributed(g, p, zero_cost());
  EXPECT_TRUE(is_proper_coloring(g, result.coloring));
  EXPECT_LE(result.coloring.num_colors(), seq.num_colors() + 2);
}

TEST(DistColoring, SuperstepSizeOneStillConverges) {
  const Graph g = grid_2d(8, 8);
  const Partition p = grid_2d_partition(8, 8, 2, 2);
  auto opts = zero_cost();
  opts.superstep_size = 1;
  const auto result = color_distributed(g, p, opts);
  EXPECT_TRUE(is_proper_coloring(g, result.coloring));
}

TEST(DistColoring, HugeSuperstepBehavesLikeOnePerRound) {
  const Graph g = grid_2d(8, 8);
  const Partition p = grid_2d_partition(8, 8, 2, 2);
  auto opts = zero_cost();
  opts.superstep_size = 1 << 20;
  const auto result = color_distributed(g, p, opts);
  EXPECT_TRUE(is_proper_coloring(g, result.coloring));
}

TEST(DistColoring, CommModesAllProperAndOrderedByTraffic) {
  const Graph g = erdos_renyi(400, 2400, WeightKind::kUnit, 4);
  const Partition p = multilevel_partition(g, 8, MultilevelConfig::metis_like());
  auto base = zero_cost();
  base.superstep_size = 100;
  auto fiab = base;
  fiab.comm_mode = CommMode::kBroadcastUnion;
  auto fiac = base;
  fiac.comm_mode = CommMode::kCustomizedAll;
  auto improved = base;
  improved.comm_mode = CommMode::kCustomizedNeighbors;
  const auto rb = color_distributed(g, p, fiab);
  const auto rc = color_distributed(g, p, fiac);
  const auto rn = color_distributed(g, p, improved);
  EXPECT_TRUE(is_proper_coloring(g, rb.coloring));
  EXPECT_TRUE(is_proper_coloring(g, rc.coloring));
  EXPECT_TRUE(is_proper_coloring(g, rn.coloring));
  // FIAC cuts volume but not message count; NEW cuts both (paper §4.2).
  EXPECT_LT(rc.run.comm.bytes, rb.run.comm.bytes);
  EXPECT_LE(rn.run.comm.messages, rc.run.comm.messages);
  EXPECT_LE(rn.run.comm.bytes, rc.run.comm.bytes);
}

TEST(DistColoring, SyncModeAlsoProper) {
  const Graph g = grid_2d(16, 16);
  const Partition p = grid_2d_partition(16, 16, 4, 4);
  auto opts = zero_cost();
  opts.superstep_mode = SuperstepMode::kSync;
  opts.superstep_size = 20;
  const auto result = color_distributed(g, p, opts);
  EXPECT_TRUE(is_proper_coloring(g, result.coloring));
  // Synchronous supersteps add one barrier per superstep.
  EXPECT_GT(result.run.comm.collectives, result.rounds);
}

TEST(DistColoring, PresetsMatchPaperParameters) {
  EXPECT_EQ(DistColoringOptions::fiab().comm_mode, CommMode::kBroadcastUnion);
  EXPECT_EQ(DistColoringOptions::fiab().superstep_size, 100);
  EXPECT_EQ(DistColoringOptions::fiac().comm_mode, CommMode::kCustomizedAll);
  EXPECT_EQ(DistColoringOptions::fiac().superstep_size, 1000);
  EXPECT_EQ(DistColoringOptions::improved().comm_mode,
            CommMode::kCustomizedNeighbors);
}

TEST(DistColoring, DeterministicGivenSeed) {
  const Graph g = erdos_renyi(300, 1500, WeightKind::kUnit, 5);
  const Partition p = random_partition(g.num_vertices(), 6, 2);
  const auto a = color_distributed(g, p, zero_cost());
  const auto b = color_distributed(g, p, zero_cost());
  EXPECT_EQ(a.coloring.color, b.coloring.color);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.run.comm.messages, b.run.comm.messages);
}

TEST(DistColoring, SeedChangesConflictResolution) {
  const Graph g = erdos_renyi(300, 1500, WeightKind::kUnit, 5);
  const Partition p = random_partition(g.num_vertices(), 6, 2);
  auto o1 = zero_cost();
  o1.seed = 1;
  auto o2 = zero_cost();
  o2.seed = 2;
  const auto a = color_distributed(g, p, o1);
  const auto b = color_distributed(g, p, o2);
  EXPECT_TRUE(is_proper_coloring(g, a.coloring));
  EXPECT_TRUE(is_proper_coloring(g, b.coloring));
}

TEST(DistColoring, RejectsBadOptions) {
  const Graph g = path(4);
  const Partition p = block_partition(4, 2);
  auto opts = zero_cost();
  opts.superstep_size = 0;
  EXPECT_THROW((void)color_distributed(g, p, opts), Error);
}

TEST(DistColoring, RecordForUnheldVertexIsOnlyBroadcastWaste) {
  // Path 0-1-2-3 on ranks {0,0,1,1}: rank 0 holds 0, 1 and ghost 2 only.
  const Graph g = path(4);
  const Partition p(2, {0, 0, 1, 1});
  const DistGraph dist = DistGraph::build(g, p);
  FrameWriter w(WireCodec::kCompact);
  w.put(ColorRecord{2, 5});
  w.put(ColorRecord{3, 7});
  const BspMessage msg{1, 0.0, 2, w.take()};
  std::vector<Color> color(
      static_cast<std::size_t>(dist.local(0).num_local()), kNoColor);
  apply_color_records(dist.local(0), color, msg, SendPolicy::kBroadcastUnion);
  EXPECT_EQ(color[static_cast<std::size_t>(dist.local(0).local_id(2))], 5);
  for (const SendPolicy customized :
       {SendPolicy::kCustomizedAll, SendPolicy::kCustomizedNeighbors}) {
    EXPECT_THROW(apply_color_records(dist.local(0), color, msg, customized),
                 Error);
  }
}

/// The central property sweep: every variant combination colors properly.
class DistColoringSweep
    : public ::testing::TestWithParam<
          std::tuple<CommMode, SuperstepMode, LocalOrder, int>> {};

TEST_P(DistColoringSweep, AlwaysProper) {
  const auto [comm, sync, order, superstep] = GetParam();
  const Graph g = circuit_like(500, 1100, 6, WeightKind::kUnit, 6);
  const Partition p = multilevel_partition(g, 6, MultilevelConfig::metis_like(2));
  auto opts = zero_cost();
  opts.comm_mode = comm;
  opts.superstep_mode = sync;
  opts.local_order = order;
  opts.superstep_size = superstep;
  const auto result = color_distributed(g, p, opts);
  std::string why;
  EXPECT_TRUE(is_proper_coloring(g, result.coloring, &why)) << why;
  EXPECT_LE(result.coloring.num_colors(),
            static_cast<Color>(g.max_degree()) + 1);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, DistColoringSweep,
    ::testing::Combine(
        ::testing::Values(CommMode::kBroadcastUnion, CommMode::kCustomizedAll,
                          CommMode::kCustomizedNeighbors),
        ::testing::Values(SuperstepMode::kAsync, SuperstepMode::kSync),
        ::testing::Values(LocalOrder::kInteriorFirst,
                          LocalOrder::kBoundaryFirst, LocalOrder::kNatural),
        ::testing::Values(1, 64, 1000)));

/// Strategy sweep on the distributed path.
class DistStrategySweep : public ::testing::TestWithParam<ColorStrategy> {};

TEST_P(DistStrategySweep, ProperWithEveryColorStrategy) {
  const Graph g = erdos_renyi(300, 1200, WeightKind::kUnit, 7);
  const Partition p = random_partition(g.num_vertices(), 5, 3);
  auto opts = zero_cost();
  opts.strategy = GetParam();
  const auto result = color_distributed(g, p, opts);
  std::string why;
  EXPECT_TRUE(is_proper_coloring(g, result.coloring, &why)) << why;
}

INSTANTIATE_TEST_SUITE_P(Strategies, DistStrategySweep,
                         ::testing::Values(ColorStrategy::kFirstFit,
                                           ColorStrategy::kStaggeredFirstFit,
                                           ColorStrategy::kLeastUsed));

}  // namespace
}  // namespace pmc
