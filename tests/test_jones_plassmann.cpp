// Tests for the Jones–Plassmann MIS-based baseline and its comparison with
// the speculative framework (the paper's §4.1 claim).
#include <gtest/gtest.h>

#include "coloring/jones_plassmann.hpp"
#include "coloring/parallel.hpp"
#include "graph/generators.hpp"
#include "partition/multilevel.hpp"
#include "partition/simple.hpp"

namespace pmc {
namespace {

JonesPlassmannOptions jp_zero() {
  JonesPlassmannOptions o;
  o.model = MachineModel::zero_cost();
  return o;
}

TEST(JonesPlassmann, ProperOnSingleRank) {
  const Graph g = erdos_renyi(200, 800, WeightKind::kUnit, 1);
  const Partition p = block_partition(g.num_vertices(), 1);
  const auto result = color_jones_plassmann(DistGraph::build(g, p), jp_zero());
  EXPECT_TRUE(is_proper_coloring(g, result.coloring));
  EXPECT_LE(result.coloring.num_colors(),
            static_cast<Color>(g.max_degree()) + 1);
}

TEST(JonesPlassmann, ProperAcrossRankCounts) {
  const Graph g = grid_2d(16, 16);
  for (Rank ranks : {2, 4, 8, 16}) {
    const Partition p = block_partition(g.num_vertices(), ranks);
    const auto result =
        color_jones_plassmann(DistGraph::build(g, p), jp_zero());
    std::string why;
    EXPECT_TRUE(is_proper_coloring(g, result.coloring, &why))
        << "ranks=" << ranks << ": " << why;
  }
}

TEST(JonesPlassmann, CompleteGraphNeedsOneRoundPerVertex) {
  // In K_n every vertex waits for all higher-priority vertices: n rounds.
  const Graph g = complete(8);
  std::vector<Rank> owner(8);
  for (std::size_t v = 0; v < 8; ++v) owner[v] = static_cast<Rank>(v % 4);
  const Partition p(4, std::move(owner));
  const auto result = color_jones_plassmann(DistGraph::build(g, p), jp_zero());
  EXPECT_TRUE(is_proper_coloring(g, result.coloring));
  EXPECT_EQ(result.coloring.num_colors(), 8);
  EXPECT_GE(result.rounds, 3);  // long priority chains force many rounds
}

TEST(JonesPlassmann, RoundsGrowWithPriorityChains) {
  const Graph g = path(256);
  const Partition p = block_partition(256, 4);
  const auto result = color_jones_plassmann(DistGraph::build(g, p), jp_zero());
  EXPECT_TRUE(is_proper_coloring(g, result.coloring));
  EXPECT_GT(result.rounds, 1);
}

TEST(JonesPlassmann, DeterministicGivenSeed) {
  const Graph g = erdos_renyi(200, 900, WeightKind::kUnit, 2);
  const Partition p = random_partition(200, 4, 1);
  const auto a = color_jones_plassmann(DistGraph::build(g, p), jp_zero());
  const auto b = color_jones_plassmann(DistGraph::build(g, p), jp_zero());
  EXPECT_EQ(a.coloring.color, b.coloring.color);
  EXPECT_EQ(a.rounds, b.rounds);
}

TEST(JonesPlassmann, SpeculativeFrameworkUsesFewerRounds) {
  // Paper §4.1: the speculative framework "uses provably fewer or at most as
  // many rounds" as the MIS-based approach.
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const Graph g = erdos_renyi(400, 2000, WeightKind::kUnit, seed);
    const Partition p =
        multilevel_partition(g, 8, MultilevelConfig::metis_like(seed));
    JonesPlassmannOptions jp = jp_zero();
    jp.seed = seed;
    DistColoringOptions spec;
    spec.model = MachineModel::zero_cost();
    spec.seed = seed;
    const auto jp_result = color_jones_plassmann(DistGraph::build(g, p), jp);
    const auto spec_result = color_distributed(g, p, spec);
    EXPECT_TRUE(is_proper_coloring(g, jp_result.coloring));
    EXPECT_TRUE(is_proper_coloring(g, spec_result.coloring));
    EXPECT_LE(spec_result.rounds, jp_result.rounds) << "seed " << seed;
  }
}

TEST(JonesPlassmann, ModeledTimeAboveSpeculativeOnBlueGene) {
  const Graph g = grid_2d(48, 48);
  const Partition p = grid_2d_partition(48, 48, 4, 4);
  JonesPlassmannOptions jp;
  const auto jp_result = color_jones_plassmann(DistGraph::build(g, p), jp);
  DistColoringOptions spec;  // BG/P model by default
  const auto spec_result = color_distributed(g, p, spec);
  EXPECT_TRUE(is_proper_coloring(g, jp_result.coloring));
  EXPECT_GT(jp_result.run.sim_seconds, spec_result.run.sim_seconds);
}

}  // namespace
}  // namespace pmc
