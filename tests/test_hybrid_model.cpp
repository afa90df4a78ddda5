// Tests for the hybrid MPI+OpenMP machine-model extension (paper §6
// outlook): multithreaded ranks speed up local computation without
// changing results.
#include <gtest/gtest.h>

#include <limits>

#include "coloring/parallel.hpp"
#include "graph/generators.hpp"
#include "matching/parallel.hpp"
#include "partition/simple.hpp"
#include "runtime/machine_model.hpp"
#include "support/error.hpp"

namespace pmc {
namespace {

TEST(HybridModel, ComputeSpeedupFormula) {
  MachineModel m;
  m.seconds_per_work = 10.0;
  m.threads_per_rank = 1;
  EXPECT_DOUBLE_EQ(m.compute_seconds(3.0), 30.0);
  m.threads_per_rank = 4;
  m.thread_efficiency = 1.0;  // perfect: 4x
  EXPECT_DOUBLE_EQ(m.compute_seconds(4.0), 10.0);
  m.thread_efficiency = 0.5;  // speedup 1 + 3*0.5 = 2.5
  EXPECT_DOUBLE_EQ(m.compute_seconds(2.5), 10.0);
}

TEST(HybridModel, WithThreadsCopiesAndRenames) {
  const MachineModel base = MachineModel::blue_gene_p();
  const MachineModel hybrid = base.with_threads(4, 0.9);
  EXPECT_EQ(hybrid.threads_per_rank, 4);
  EXPECT_DOUBLE_EQ(hybrid.thread_efficiency, 0.9);
  EXPECT_EQ(base.threads_per_rank, 1);  // original untouched
  EXPECT_NE(hybrid.name, base.name);
  EXPECT_DOUBLE_EQ(hybrid.latency, base.latency);
}

// A thread count below 1 or a negative efficiency can make the speedup
// 1 + (threads - 1) * efficiency zero or negative, and the modelled times
// infinite or negative; an efficiency above 1 would be superlinear.
TEST(HybridModel, WithThreadsRejectsInvalidArguments) {
  const MachineModel base = MachineModel::blue_gene_p();
  EXPECT_THROW((void)base.with_threads(0), Error);
  EXPECT_THROW((void)base.with_threads(-4), Error);
  EXPECT_THROW((void)base.with_threads(2, -1.0), Error);
  EXPECT_THROW((void)base.with_threads(2, 1.5), Error);
  EXPECT_THROW(
      (void)base.with_threads(2, std::numeric_limits<double>::quiet_NaN()),
      Error);
  EXPECT_NO_THROW((void)base.with_threads(1, 0.0));
  EXPECT_NO_THROW((void)base.with_threads(16, 1.0));
}

TEST(HybridModel, MatchingResultUnchangedTimeReduced) {
  const Graph g = grid_2d(48, 48, WeightKind::kUniformRandom, 9);
  const Partition p = grid_2d_partition(48, 48, 4, 4);
  DistMatchingOptions mono;
  mono.model = MachineModel::blue_gene_p();
  DistMatchingOptions hybrid;
  hybrid.model = MachineModel::blue_gene_p().with_threads(4, 0.8);
  const auto a = match_distributed(g, p, mono);
  const auto b = match_distributed(g, p, hybrid);
  EXPECT_EQ(a.matching.mate, b.matching.mate);
  // Message *count* may differ: faster local compute changes how records
  // coalesce into bundles. The matching itself must not.
  EXPECT_LT(b.run.sim_seconds, a.run.sim_seconds);
  // Every hybrid charge divides by the speedup; the modelled time is pinned.
  EXPECT_EQ(b.run.sim_seconds, 0x1.d0815eb6c118dp-16);
}

TEST(HybridModel, ColoringResultUnchangedTimeReduced) {
  const Graph g = grid_2d(48, 48);
  const Partition p = grid_2d_partition(48, 48, 4, 4);
  DistColoringOptions mono = DistColoringOptions::improved();
  DistColoringOptions hybrid = mono;
  hybrid.model = MachineModel::blue_gene_p().with_threads(8, 0.8);
  const auto a = color_distributed(g, p, mono);
  const auto b = color_distributed(g, p, hybrid);
  EXPECT_EQ(a.coloring.color, b.coloring.color);
  EXPECT_LT(b.run.sim_seconds, a.run.sim_seconds);
  EXPECT_EQ(b.run.sim_seconds, 0x1.d7ffc91fa8136p-14);
}

TEST(HybridModel, FewerFatterRanksCutCommunication) {
  // Fixed 64-core budget: 64x1 vs 16x4. The hybrid setup must send fewer
  // messages (fewer rank boundaries).
  const Graph g = grid_2d(64, 64, WeightKind::kUniformRandom, 10);
  DistMatchingOptions mono;
  mono.model = MachineModel::blue_gene_p();
  DistMatchingOptions hybrid;
  hybrid.model = MachineModel::blue_gene_p().with_threads(4, 0.8);

  const Partition p64 = grid_2d_partition(64, 64, 8, 8);
  const Partition p16 = grid_2d_partition(64, 64, 4, 4);
  const auto flat = match_distributed(g, p64, mono);
  const auto fat = match_distributed(g, p16, hybrid);
  EXPECT_LT(fat.run.comm.messages, flat.run.comm.messages);
  EXPECT_DOUBLE_EQ(matching_weight(g, fat.matching),
                   matching_weight(g, flat.matching));
}

}  // namespace
}  // namespace pmc
