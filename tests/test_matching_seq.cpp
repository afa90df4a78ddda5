// Tests for the sequential matching algorithms: greedy, locally-dominant
// (candidate-mate), verification predicates and the half-approximation
// guarantee against brute force.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "matching/matching.hpp"
#include "matching/sequential.hpp"
#include "test_util.hpp"

namespace pmc {
namespace {

Graph fig31_triangle() {
  // Paper Fig 3.1: u=0, v=1, w=2 with w(u,v)=3, w(u,w)=2, w(v,w)=1.
  return graph_from_edges(3, {{0, 1, 3.0}, {0, 2, 2.0}, {1, 2, 1.0}});
}

TEST(MatchingVerify, DetectsInvalidMatchings) {
  const Graph g = fig31_triangle();
  std::string why;

  Matching asym;
  asym.mate = {1, kNoVertex, kNoVertex};
  EXPECT_FALSE(is_valid_matching(g, asym, &why));
  EXPECT_NE(why.find("asymmetric"), std::string::npos);

  Matching self_loop;
  self_loop.mate = {0, kNoVertex, kNoVertex};
  EXPECT_FALSE(is_valid_matching(g, self_loop, &why));

  Matching non_edge;
  non_edge.mate = {kNoVertex, kNoVertex, kNoVertex};
  non_edge.mate.resize(3, kNoVertex);
  EXPECT_TRUE(is_valid_matching(g, non_edge));

  Matching wrong_size;
  wrong_size.mate = {kNoVertex};
  EXPECT_FALSE(is_valid_matching(g, wrong_size, &why));
}

TEST(MatchingVerify, NonEdgePairRejected) {
  const Graph g = path(4);  // 0-1-2-3: (0,3) is not an edge
  Matching m;
  m.mate = {3, kNoVertex, kNoVertex, 0};
  std::string why;
  EXPECT_FALSE(is_valid_matching(g, m, &why));
  EXPECT_NE(why.find("not an edge"), std::string::npos);
}

/// The reason `is_valid_matching` gives for rejecting `mate` on g.
std::string invalid_reason(const Graph& g, std::vector<VertexId> mate) {
  Matching m;
  m.mate = std::move(mate);
  std::string why;
  EXPECT_FALSE(is_valid_matching(g, m, &why));
  return why;
}

TEST(MatchingVerify, PinsEveryMessage) {
  const Graph g = fig31_triangle();
  EXPECT_EQ(invalid_reason(g, {kNoVertex}),
            "matching size does not equal vertex count");
  EXPECT_EQ(invalid_reason(g, {5, kNoVertex, kNoVertex}),
            "mate(0) = 5 out of range");
  EXPECT_EQ(invalid_reason(g, {kNoVertex, -2, kNoVertex}),
            "mate(1) = -2 out of range");
  EXPECT_EQ(invalid_reason(g, {0, kNoVertex, kNoVertex}),
            "vertex 0 matched to itself");
  EXPECT_EQ(invalid_reason(g, {1, kNoVertex, kNoVertex}),
            "asymmetric mates: mate(0)=1 but mate(1)=-1");
  EXPECT_EQ(invalid_reason(g, {1, 2, 1}),
            "asymmetric mates: mate(0)=1 but mate(1)=2");
  EXPECT_EQ(invalid_reason(path(4), {3, kNoVertex, kNoVertex, 0}),
            "matched pair (0, 3) is not an edge");
}

TEST(LocallyDominant, MatchesHeaviestEdgeOfTriangle) {
  const Graph g = fig31_triangle();
  const Matching m = locally_dominant_matching(g);
  EXPECT_TRUE(is_valid_matching(g, m));
  EXPECT_EQ(m.mate[0], 1);
  EXPECT_EQ(m.mate[1], 0);
  EXPECT_EQ(m.mate[2], kNoVertex);  // w fails, exactly as in the paper
  EXPECT_DOUBLE_EQ(matching_weight(g, m), 3.0);
  EXPECT_EQ(m.cardinality(), 1);
}

TEST(LocallyDominant, PathPicksAlternateEdges) {
  // Path 0-1-2-3 with weights 1, 5, 1: the middle edge dominates.
  const Graph g = graph_from_edges(4, {{0, 1, 1.0}, {1, 2, 5.0}, {2, 3, 1.0}});
  const Matching m = locally_dominant_matching(g);
  EXPECT_EQ(m.mate[1], 2);
  EXPECT_EQ(m.mate[0], kNoVertex);
  EXPECT_EQ(m.mate[3], kNoVertex);
}

TEST(LocallyDominant, EmptyAndSingletonGraphs) {
  const Graph empty;
  const Matching m0 = locally_dominant_matching(empty);
  EXPECT_EQ(m0.num_vertices(), 0);
  const Graph one = path(1);
  const Matching m1 = locally_dominant_matching(one);
  EXPECT_EQ(m1.mate[0], kNoVertex);
}

TEST(LocallyDominant, TiesBrokenBySmallestLabel) {
  // Star with equal weights: center 0 must match leaf 1 (smallest label).
  const Graph g =
      graph_from_edges(4, {{0, 1, 2.0}, {0, 2, 2.0}, {0, 3, 2.0}});
  const Matching m = locally_dominant_matching(g);
  EXPECT_EQ(m.mate[0], 1);
}

TEST(LocallyDominant, IsMaximalAndCertified) {
  const Graph g = erdos_renyi(200, 800, WeightKind::kUniformRandom, 5);
  const Matching m = locally_dominant_matching(g);
  EXPECT_TRUE(is_valid_matching(g, m));
  EXPECT_TRUE(is_maximal_matching(g, m));
  std::string why;
  EXPECT_TRUE(has_dominance_certificate(g, m, &why)) << why;
}

TEST(Greedy, AgreesWithLocallyDominantOnDistinctWeights) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const Graph g = erdos_renyi(150, 600, WeightKind::kUniformRandom, seed);
    const Matching a = greedy_matching(g);
    const Matching b = locally_dominant_matching(g);
    // With distinct weights the locally-dominant matching is unique and
    // equals the greedy matching.
    EXPECT_EQ(a.mate, b.mate) << "seed " << seed;
  }
}

// The candidate-mate algorithm may find the locally dominant edges in any
// order: with the tie-break making the edge order total, its matching is the
// greedy one. Unit and integral weights put many ties into every row.
TEST(Greedy, AgreesWithLocallyDominantOnTiedWeights) {
  for (const WeightKind kind : {WeightKind::kUnit, WeightKind::kIntegral}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      const Graph graphs[] = {
          grid_2d(24, 31, kind, seed),
          erdos_renyi(400, 1600, kind, seed),
          circuit_like(600, 1300, 6, kind, seed),
      };
      for (const Graph& g : graphs) {
        EXPECT_EQ(locally_dominant_matching(g).mate, greedy_matching(g).mate)
            << "weights " << static_cast<int>(kind) << " seed " << seed
            << " n " << g.num_vertices();
      }
    }
  }
}

TEST(Greedy, ProducesValidMaximalMatchingWithTies) {
  const Graph g = erdos_renyi(200, 700, WeightKind::kIntegral, 7);
  const Matching m = greedy_matching(g);
  EXPECT_TRUE(is_valid_matching(g, m));
  EXPECT_TRUE(is_maximal_matching(g, m));
}

TEST(MaximalCheck, DetectsNonMaximal) {
  const Graph g = path(2);
  Matching empty;
  empty.mate = {kNoVertex, kNoVertex};
  EXPECT_FALSE(is_maximal_matching(g, empty));
  std::string why;
  EXPECT_FALSE(is_maximal_matching(g, empty, &why));
  EXPECT_EQ(why, "edge (0, 1) could be added: both endpoints are unmatched");
}

TEST(MaximalCheck, RejectsShortMatching) {
  const Graph g = path(4);
  Matching m;
  m.mate = {1, 0};
  std::string why;
  EXPECT_FALSE(is_maximal_matching(g, m, &why));
  EXPECT_EQ(why, "matching size does not equal vertex count");
}

TEST(DominanceCertificate, FailsForPoorMatching) {
  // Path 0-1-2-3 weights 1, 5, 1: matching the two side edges (weight 2
  // total) is maximal but not locally dominant.
  const Graph g = graph_from_edges(4, {{0, 1, 1.0}, {1, 2, 5.0}, {2, 3, 1.0}});
  Matching m;
  m.mate = {1, 0, 3, 2};
  EXPECT_TRUE(is_valid_matching(g, m));
  std::string why;
  EXPECT_FALSE(has_dominance_certificate(g, m, &why));
  EXPECT_EQ(why,
            "edge (1, 2) with weight 5 is not dominated by any adjacent "
            "matched edge");
  const Graph h =
      graph_from_edges(4, {{0, 1, 0.25}, {1, 2, 2.5}, {2, 3, 0.75}});
  EXPECT_FALSE(has_dominance_certificate(h, m, &why));
  EXPECT_EQ(why,
            "edge (1, 2) with weight 2.5 is not dominated by any adjacent "
            "matched edge");
}

TEST(DominanceCertificate, RejectsShortMatching) {
  const Graph g = path(4);
  Matching m;
  m.mate = {1, 0};
  std::string why;
  EXPECT_FALSE(has_dominance_certificate(g, m, &why));
  EXPECT_EQ(why, "matching size does not equal vertex count");
}

TEST(DominanceCertificate, RejectsMateThatIsNotANeighbour) {
  const Graph g = graph_from_edges(4, {{0, 1, 1.0}, {1, 2, 5.0}, {2, 3, 1.0}});
  Matching m;
  std::string why;
  m.mate = {3, kNoVertex, kNoVertex, 0};
  EXPECT_FALSE(has_dominance_certificate(g, m, &why));
  EXPECT_EQ(why, "matched pair (0, 3) is not an edge");
  m.mate = {kNoVertex, 1, kNoVertex, kNoVertex};
  EXPECT_FALSE(has_dominance_certificate(g, m, &why));
  EXPECT_EQ(why, "matched pair (1, 1) is not an edge");
  m.mate = {kNoVertex, kNoVertex, 9, kNoVertex};
  EXPECT_FALSE(has_dominance_certificate(g, m, &why));
  EXPECT_EQ(why, "mate(2) = 9 out of range");
}

/// Property sweep: half-approximation bound against brute force on tiny
/// graphs (the guarantee the paper's algorithm inherits from Preis).
class HalfApproxSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(HalfApproxSweep, AtLeastHalfOfOptimal) {
  const auto [kind, seed] = GetParam();
  Graph g;
  switch (kind) {
    case 0: g = erdos_renyi(8, 12, WeightKind::kUniformRandom, seed); break;
    case 1: g = erdos_renyi(9, 14, WeightKind::kIntegral, seed); break;
    case 2: g = complete(6, WeightKind::kUniformRandom, seed); break;
    case 3: g = cycle(9, WeightKind::kIntegral, seed); break;
    default: FAIL();
  }
  const Weight optimal = test::brute_force_max_weight_matching(g);
  for (const Matching& m :
       {locally_dominant_matching(g), greedy_matching(g)}) {
    EXPECT_TRUE(is_valid_matching(g, m));
    EXPECT_TRUE(is_maximal_matching(g, m));
    EXPECT_GE(matching_weight(g, m), 0.5 * optimal - 1e-12);
    EXPECT_LE(matching_weight(g, m), optimal + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    GraphKindsTimesSeeds, HalfApproxSweep,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u)));

}  // namespace
}  // namespace pmc
