// Tests for the scaling studies' ideal line and the high-level core API.
#include <gtest/gtest.h>

#include "core/api.hpp"
#include "core/experiment.hpp"
#include "graph/generators.hpp"
#include "support/error.hpp"

namespace pmc {
namespace {

TEST(ScalingLaw, WeakIdealIsConstant) {
  ScalingLaw weak(/*strong=*/false);
  EXPECT_DOUBLE_EQ(weak.at(1024, 0.05).ideal, 0.05);
  EXPECT_DOUBLE_EQ(weak.at(4096, 0.055).ideal, 0.05);
  const auto last = weak.at(16384, 0.06);
  EXPECT_DOUBLE_EQ(last.ideal, 0.05);
  EXPECT_NEAR(last.efficiency, 0.05 / 0.06, 1e-12);
}

TEST(ScalingLaw, StrongIdealHalvesPerDoubling) {
  ScalingLaw strong(/*strong=*/true);
  const auto first = strong.at(512, 2.0);
  EXPECT_DOUBLE_EQ(first.ideal, 2.0);
  EXPECT_DOUBLE_EQ(first.efficiency, 1.0);
  EXPECT_DOUBLE_EQ(strong.at(1024, 1.1).ideal, 1.0);
  const auto third = strong.at(2048, 0.7);
  EXPECT_DOUBLE_EQ(third.ideal, 0.5);
  EXPECT_DOUBLE_EQ(third.efficiency, 0.5 / 0.7);
}

TEST(ScalingLaw, ZeroTimeCountsAsFullEfficiency) {
  ScalingLaw strong(/*strong=*/true);
  (void)strong.at(2, 1.0);
  EXPECT_DOUBLE_EQ(strong.at(4, 0.0).efficiency, 1.0);
}

TEST(ScalingLaw, RejectsNonPositiveRankCounts) {
  ScalingLaw law(/*strong=*/true);
  EXPECT_THROW((void)law.at(0, 1.0), Error);
  EXPECT_THROW((void)law.at(-4, 1.0), Error);
}

TEST(CoreApi, MatchAndColorOneCall) {
  const Graph g = grid_2d(12, 12, WeightKind::kUniformRandom, 1);
  const Matching m = match(g);
  EXPECT_TRUE(is_valid_matching(g, m));
  EXPECT_TRUE(is_maximal_matching(g, m));
  const Coloring c = color(g);
  EXPECT_TRUE(is_proper_coloring(g, c));
}

TEST(CoreApi, DistributedOneCallWrappers) {
  const Graph g = grid_2d(12, 12, WeightKind::kUniformRandom, 2);
  const auto mr = match_on_ranks(g, 4);
  EXPECT_TRUE(is_valid_matching(g, mr.matching));
  EXPECT_DOUBLE_EQ(matching_weight(g, mr.matching),
                   matching_weight(g, match(g)));
  const auto cr = color_on_ranks(g, 4);
  EXPECT_TRUE(is_proper_coloring(g, cr.coloring));
  EXPECT_THROW((void)match_on_ranks(g, 0), Error);
}

}  // namespace
}  // namespace pmc
