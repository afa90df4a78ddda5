// Tests for the distributed verifiers: they must agree with the sequential
// verifiers on both valid and deliberately corrupted results.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "coloring/parallel.hpp"
#include "coloring/parallel_verify.hpp"
#include "coloring/sequential.hpp"
#include "graph/generators.hpp"
#include "matching/parallel.hpp"
#include "matching/parallel_verify.hpp"
#include "matching/sequential.hpp"
#include "partition/multilevel.hpp"
#include "partition/simple.hpp"
#include "support/rng.hpp"

namespace pmc {
namespace {

struct Fixture {
  Graph g;
  Partition p;
  DistGraph dist;
};

Fixture make_setup(Rank ranks) {
  Fixture s;
  s.g = erdos_renyi(300, 1200, WeightKind::kUniformRandom, 5);
  s.p = multilevel_partition(s.g, ranks, MultilevelConfig::metis_like(2));
  s.dist = DistGraph::build(s.g, s.p);
  return s;
}

TEST(DistVerifyMatching, AcceptsCorrectMatching) {
  const Fixture s = make_setup(6);
  const Matching m = locally_dominant_matching(s.g);
  const auto result = verify_matching_distributed(s.dist, m);
  EXPECT_EQ(result.violations, 0);
  EXPECT_GT(result.run.comm.messages, 0);  // the boundary exchange happened
}

TEST(DistVerifyMatching, DetectsAsymmetry) {
  const Fixture s = make_setup(6);
  Matching m = locally_dominant_matching(s.g);
  // Corrupt: break one side of a matched pair.
  for (VertexId v = 0; v < s.g.num_vertices(); ++v) {
    if (m.mate[static_cast<std::size_t>(v)] != kNoVertex) {
      m.mate[static_cast<std::size_t>(v)] = kNoVertex;
      break;
    }
  }
  const auto result = verify_matching_distributed(s.dist, m);
  EXPECT_GT(result.violations, 0);
}

TEST(DistVerifyMatching, DetectsNonEdgeMate) {
  const Fixture s = make_setup(4);
  Matching m;
  m.mate.assign(static_cast<std::size_t>(s.g.num_vertices()), kNoVertex);
  // Find two non-adjacent vertices and "match" them.
  for (VertexId v = 0; v < s.g.num_vertices(); ++v) {
    for (VertexId u = v + 1; u < s.g.num_vertices(); ++u) {
      if (!s.g.has_edge(v, u)) {
        m.mate[static_cast<std::size_t>(v)] = u;
        m.mate[static_cast<std::size_t>(u)] = v;
        const auto result = verify_matching_distributed(s.dist, m);
        EXPECT_GT(result.violations, 0);
        return;
      }
    }
  }
  FAIL() << "graph unexpectedly complete";
}

TEST(DistVerifyMatching, DetectsNonMaximality) {
  const Fixture s = make_setup(5);
  Matching empty;
  empty.mate.assign(static_cast<std::size_t>(s.g.num_vertices()), kNoVertex);
  const auto result = verify_matching_distributed(s.dist, empty);
  EXPECT_GT(result.violations, 0);  // plenty of free-free edges
}

// Asymmetry is visible only at the vertex whose mate does not point back, so
// it must count there whichever endpoint has the smaller id.
TEST(DistVerifyMatching, CountsAsymmetryAtEitherEndpoint) {
  const Graph g = path(2);
  for (const Partition& p : {Partition(1, {0, 0}), Partition(2, {0, 1})}) {
    const DistGraph dist = DistGraph::build(g, p);
    for (const std::vector<VertexId>& mate :
         {std::vector<VertexId>{1, kNoVertex},
          std::vector<VertexId>{kNoVertex, 0}}) {
      Matching m;
      m.mate = mate;
      EXPECT_EQ(verify_matching_distributed(dist, m).violations, 1)
          << "ranks " << p.num_parts() << " mate " << mate[0] << ","
          << mate[1];
    }
  }
}

TEST(DistVerifyMatching, AgreesWithDistributedSolver) {
  for (Rank ranks : {2, 9}) {
    const Fixture s = make_setup(ranks);
    DistMatchingOptions opts;
    opts.model = MachineModel::zero_cost();
    const auto solved = match_distributed(s.dist, opts);
    const auto verified = verify_matching_distributed(s.dist, solved.matching);
    EXPECT_EQ(verified.violations, 0) << "ranks " << ranks;
  }
}

TEST(DistVerifyColoring, AcceptsProperColoring) {
  const Fixture s = make_setup(6);
  const auto solved =
      color_distributed(s.dist, DistColoringOptions::improved());
  const auto result = verify_coloring_distributed(s.dist, solved.coloring);
  EXPECT_EQ(result.violations, 0);
}

TEST(DistVerifyColoring, CountsMatchSequentialConflictCount) {
  const Fixture s = make_setup(7);
  // A deliberately bad coloring: everything color 0.
  Coloring bad;
  bad.color.assign(static_cast<std::size_t>(s.g.num_vertices()), 0);
  const auto result = verify_coloring_distributed(s.dist, bad);
  EXPECT_EQ(result.violations, count_conflicts(s.g, bad));
  EXPECT_EQ(result.violations, s.g.num_edges());
}

TEST(DistVerifyColoring, CountsUncoloredVertices) {
  const Fixture s = make_setup(3);
  Coloring c;
  c.color.assign(static_cast<std::size_t>(s.g.num_vertices()), kNoColor);
  const auto result = verify_coloring_distributed(s.dist, c);
  EXPECT_EQ(result.violations, s.g.num_vertices());
}

TEST(DistVerifyColoring, SingleConflictFoundOnce) {
  // Path 0-1-2-3 across 2 ranks with exactly one cross conflict.
  const Graph g = path(4);
  const Partition p(2, {0, 0, 1, 1});
  const DistGraph dist = DistGraph::build(g, p);
  Coloring c;
  c.color = {0, 1, 1, 0};  // conflict on cross edge (1, 2) only
  const auto result = verify_coloring_distributed(dist, c);
  EXPECT_EQ(result.violations, 1);
}

// ---- seeded corruptions against the sequential checks ----------------------

/// What the distributed coloring verifier counts: count_conflicts plus the
/// uncolored vertices, except that an edge joining two uncolored vertices is
/// no conflict (CountsUncoloredVertices pins that), while count_conflicts
/// counts it when both hold the same negative value.
EdgeId expected_coloring_violations(const Graph& g, const Coloring& c) {
  const auto color = [&c](VertexId v) {
    return c.color[static_cast<std::size_t>(v)];
  };
  EdgeId expected = count_conflicts(g, c);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (color(v) >= 0) continue;
    ++expected;
    for (const VertexId u : g.neighbors(v)) {
      if (u > v && color(u) == color(v)) --expected;
    }
  }
  return expected;
}

/// A corrupted copy of the valid matching `ref`: `kind` picks the damage,
/// `rng` the vertex it hits.
Matching corrupt_matching(const Graph& g, const Matching& ref, int kind,
                          Xoshiro256StarStar& rng) {
  Matching m = ref;
  const VertexId n = g.num_vertices();
  const auto at = [&m](VertexId v) -> VertexId& {
    return m.mate[static_cast<std::size_t>(v)];
  };
  VertexId v = rng.uniform_int(0, n - 1);
  while (kind <= 2 && at(v) == kNoVertex) v = rng.uniform_int(0, n - 1);
  switch (kind) {
    case 0:  // one side of a pair broken
      at(v) = kNoVertex;
      break;
    case 1:  // a pair dropped
      at(at(v)) = kNoVertex;
      at(v) = kNoVertex;
      break;
    case 2: {  // re-pointed at a neighbour, usually matched elsewhere
      const auto nbrs = g.neighbors(v);
      at(v) = nbrs[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(nbrs.size()) - 1))];
      break;
    }
    case 3:  // re-pointed anywhere, itself included
      at(v) = rng.uniform_int(0, n - 1);
      break;
    case 4:
      at(v) = -2;
      break;
    case 5:  // out of range
      at(v) = n + rng.uniform_int(0, 5);
      break;
    case 6:
      at(v) = v;
      break;
    default:  // left valid
      break;
  }
  return m;
}

/// A corrupted copy of the proper coloring `ref`.
Coloring corrupt_coloring(const Graph& g, const Coloring& ref, int kind,
                          Xoshiro256StarStar& rng) {
  Coloring c = ref;
  const VertexId v = rng.uniform_int(0, g.num_vertices() - 1);
  const auto at = [&c](VertexId x) -> Color& {
    return c.color[static_cast<std::size_t>(x)];
  };
  const auto nbrs = g.neighbors(v);
  const VertexId u =
      nbrs.empty() ? v
                   : nbrs[static_cast<std::size_t>(rng.uniform_int(
                         0, static_cast<std::int64_t>(nbrs.size()) - 1))];
  switch (kind) {
    case 0:  // copies a neighbour's color
      at(v) = at(u);
      break;
    case 1:
      at(v) = kNoColor;
      break;
    case 2:
      at(v) = -2;
      break;
    case 3:  // two adjacent uncolored vertices
      at(v) = kNoColor;
      at(u) = kNoColor;
      break;
    case 4:
      at(v) = -2;
      at(u) = kNoColor;
      break;
    default:  // left proper
      break;
  }
  return c;
}

TEST(DistVerify, AgreesWithSequentialChecksOnSeededCorruptions) {
  const Graph graphs[] = {
      grid_2d(12, 15, WeightKind::kIntegral, 3),
      erdos_renyi(160, 420, WeightKind::kUniformRandom, 4),
      circuit_like(200, 420, 6, WeightKind::kUnit, 5),
  };
  for (const Graph& g : graphs) {
    const Matching ref_m = locally_dominant_matching(g);
    const Coloring ref_c = greedy_coloring(g);
    for (const Rank ranks : {1, 3, 7}) {
      const Partition p = random_partition(g.num_vertices(), ranks, 6);
      for (const int halo : {1, 2}) {
        const DistGraph dist = DistGraph::build(g, p, halo);
        Xoshiro256StarStar rng(static_cast<std::uint64_t>(ranks * 10 + halo));
        for (int trial = 0; trial < 48; ++trial) {
          const Matching m = corrupt_matching(g, ref_m, trial % 8, rng);
          const bool valid =
              is_valid_matching(g, m) && is_maximal_matching(g, m);
          EXPECT_EQ(verify_matching_distributed(dist, m).violations > 0,
                    !valid)
              << "n " << g.num_vertices() << " ranks " << ranks << " halo "
              << halo << " trial " << trial;
          const Coloring c = corrupt_coloring(g, ref_c, trial % 6, rng);
          EXPECT_EQ(verify_coloring_distributed(dist, c).violations,
                    expected_coloring_violations(g, c))
              << "n " << g.num_vertices() << " ranks " << ranks << " halo "
              << halo << " trial " << trial;
        }
      }
    }
  }
}

// A mate or color of -2 on a boundary vertex reaches the neighbour ranks as
// an ordinary record value: it is a violation, never a missing ghost.
TEST(DistVerify, NegativeTwoAtABoundaryVertexIsAViolation) {
  const Graph g = grid_2d(16, 16);
  const Partition p = grid_2d_partition(16, 16, 2, 2);
  const Matching ref_m = locally_dominant_matching(g);
  const Coloring ref_c = greedy_coloring(g);
  for (const int halo : {1, 2}) {
    const DistGraph dist = DistGraph::build(g, p, halo);
    const LocalGraph& lg = dist.local(0);
    VertexId first = 0;
    while (!lg.is_boundary(first)) ++first;
    const VertexId v = lg.global_id(first);
    ASSERT_NE(ref_m.mate[static_cast<std::size_t>(v)], kNoVertex);
    Matching m = ref_m;
    m.mate[static_cast<std::size_t>(v)] = -2;
    // v's mate is out of range, and v's old mate no longer gets v back.
    EXPECT_EQ(verify_matching_distributed(dist, m).violations, 2)
        << "halo " << halo;
    Coloring c = ref_c;
    c.color[static_cast<std::size_t>(v)] = -2;
    EXPECT_EQ(verify_coloring_distributed(dist, c).violations, 1)
        << "halo " << halo;
  }
}

// At halo 2 a rank's boundary records also name the ghosts two hops out,
// which sit in its second ghost run; both verifiers read as at halo 1.
TEST(DistVerify, Halo2ReadsAsHalo1) {
  const Graph g = grid_2d(14, 14);
  const Partition p = grid_2d_partition(14, 14, 2, 2);
  const Matching m = locally_dominant_matching(g);
  const Coloring c = greedy_coloring(g);
  // Vertex (6, 0) takes the color of (7, 0), below it on another rank, and
  // so clashes with all three of its neighbours.
  const VertexId v = 6 * 14;
  const VertexId below = 7 * 14;
  ASSERT_NE(p.owner(v), p.owner(below));
  Coloring clash = c;
  clash.color[static_cast<std::size_t>(v)] =
      c.color[static_cast<std::size_t>(below)];
  ASSERT_EQ(count_conflicts(g, clash), 3);
  for (const int halo : {1, 2}) {
    const DistGraph dist = DistGraph::build(g, p, halo);
    if (halo == 2) {
      ASSERT_LT(dist.local(0).num_rows(), dist.local(0).num_local());
    }
    EXPECT_EQ(verify_matching_distributed(dist, m).violations, 0)
        << "halo " << halo;
    EXPECT_EQ(verify_coloring_distributed(dist, c).violations, 0)
        << "halo " << halo;
    EXPECT_EQ(verify_coloring_distributed(dist, clash).violations, 3)
        << "halo " << halo;
  }
}

TEST(DistVerify, CostScalesWithBoundarySize) {
  // Verification traffic should reflect the cut, not the graph size.
  const Graph g = grid_2d(32, 32);
  const Partition good = grid_2d_partition(32, 32, 2, 2);
  const Partition bad = random_partition(g.num_vertices(), 4, 1);
  const auto solved_good = DistGraph::build(g, good);
  const auto solved_bad = DistGraph::build(g, bad);
  Coloring c;
  c.color.assign(static_cast<std::size_t>(g.num_vertices()), 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    c.color[static_cast<std::size_t>(v)] =
        static_cast<Color>((v / 32 + v % 32) % 2);
  }
  const auto r_good = verify_coloring_distributed(solved_good, c);
  const auto r_bad = verify_coloring_distributed(solved_bad, c);
  EXPECT_EQ(r_good.violations, 0);
  EXPECT_EQ(r_bad.violations, 0);
  EXPECT_LT(r_good.run.comm.records, r_bad.run.comm.records);
}

}  // namespace
}  // namespace pmc
