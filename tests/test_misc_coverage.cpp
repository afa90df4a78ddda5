// Edge-case coverage for small API surfaces not exercised elsewhere.
#include <gtest/gtest.h>

#include "core/pmc.hpp"

namespace pmc {
namespace {

TEST(GraphMisc, MinDegreeOnEmptyGraph) {
  EXPECT_EQ(Graph{}.min_degree(), 0);
}

TEST(GridPartitionMisc, NonDivisibleDimensionsStayValid) {
  // 7x5 grid on 3x2 processors: ceil-division blocks, all parts non-empty.
  const Partition p = grid_2d_partition(7, 5, 3, 2);
  const auto sizes = p.part_sizes();
  for (VertexId s : sizes) EXPECT_GT(s, 0);
  const Graph g = grid_2d(7, 5);
  EXPECT_NO_THROW(DistGraph::build(g, p).validate(g, p));
}

TEST(LoadStatsMisc, ImbalanceOfEmptyRunIsOne) {
  LoadStats load;
  EXPECT_DOUBLE_EQ(load.imbalance(), 1.0);
}

TEST(EventEngineMisc, NoProcessesRejected) {
  EventEngine engine(MachineModel::zero_cost());
  EXPECT_THROW((void)engine.run(), Error);
}

TEST(MatchingMisc, CardinalityCountsPairsOnce) {
  Matching m;
  m.mate = {1, 0, 3, 2, kNoVertex};
  EXPECT_EQ(m.cardinality(), 2);
  EXPECT_TRUE(m.is_matched(0));
  EXPECT_FALSE(m.is_matched(4));
}

TEST(ColoringMisc, NumColorsOfUncoloredIsZero) {
  Coloring c;
  c.color = {kNoColor, kNoColor};
  EXPECT_EQ(c.num_colors(), 0);
}

TEST(CircuitLike, ImpossibleTargetDegreesRejected) {
  EXPECT_THROW((void)circuit_like(10, 5), Error);      // fewer edges than n
  EXPECT_THROW((void)circuit_like(10, 20, 2), Error);  // max_degree < 3
}

TEST(MachineModelMisc, PresetNamesDiffer) {
  EXPECT_NE(MachineModel::blue_gene_p().name,
            MachineModel::commodity_cluster().name);
  EXPECT_NE(MachineModel::zero_cost().name, "custom");
}

TEST(DistMatchingMisc, MaxActivationsReported) {
  const Graph g = grid_2d(8, 8, WeightKind::kUniformRandom, 2);
  const Partition p = grid_2d_partition(8, 8, 2, 2);
  DistMatchingOptions o;
  o.model = MachineModel::zero_cost();
  const auto result = match_distributed(g, p, o);
  EXPECT_GT(result.max_activations, 0);
}

TEST(BipartiteInfoMisc, SideClassification) {
  const BipartiteInfo info{3, 2};
  EXPECT_TRUE(info.is_left(0));
  EXPECT_TRUE(info.is_left(2));
  EXPECT_FALSE(info.is_left(3));
}

}  // namespace
}  // namespace pmc
