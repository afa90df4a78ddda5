// Tests for the distributed graph view (ghost construction, interior/
// boundary classification, per-vertex boundary ranks at halo 1 and 2,
// invariants, and refresh() after edge-update batches against a fresh
// build).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "partition/multilevel.hpp"
#include "partition/simple.hpp"
#include "runtime/dist_graph.hpp"
#include "service/incremental_match.hpp"
#include "service/update_stream.hpp"
#include "support/error.hpp"

namespace pmc {
namespace {

TEST(DistGraph, PathAcrossTwoRanks) {
  const Graph g = path(4);  // 0-1-2-3
  const Partition p(2, {0, 0, 1, 1});
  const DistGraph dist = DistGraph::build(g, p);
  dist.validate(g, p);

  const LocalGraph& l0 = dist.local(0);
  EXPECT_EQ(l0.num_owned(), 2);
  EXPECT_EQ(l0.num_ghosts(), 1);  // vertex 2 as ghost
  EXPECT_EQ(l0.num_cross_edges(), 1);
  EXPECT_EQ(l0.neighbor_ranks(), (std::vector<Rank>{1}));
  EXPECT_FALSE(l0.is_boundary(l0.local_id(0)));
  EXPECT_EQ(l0.boundary_vertices().size(), 1u);

  // Vertex 1 (local id 1 on rank 0) is boundary; its ghost neighbor is
  // global vertex 2.
  const VertexId local1 = l0.local_id(1);
  EXPECT_TRUE(l0.is_boundary(local1));
  bool saw_ghost = false;
  for (VertexId u : l0.neighbors(local1)) {
    if (l0.is_ghost(u)) {
      saw_ghost = true;
      EXPECT_EQ(l0.global_id(u), 2);
      EXPECT_EQ(l0.ghost_owner(u), 1);
    }
  }
  EXPECT_TRUE(saw_ghost);
}

TEST(DistGraph, SingleRankHasNoGhosts) {
  const Graph g = grid_2d(6, 6);
  const Partition p = block_partition(g.num_vertices(), 1);
  const DistGraph dist = DistGraph::build(g, p);
  dist.validate(g, p);
  EXPECT_EQ(dist.local(0).num_ghosts(), 0);
  EXPECT_EQ(dist.local(0).num_cross_edges(), 0);
  EXPECT_EQ(dist.local(0).boundary_vertices().size(), 0u);
}

TEST(DistGraph, WeightsSurviveDistribution) {
  const Graph g = grid_2d(4, 4, WeightKind::kUniformRandom, 3);
  const Partition p = grid_2d_partition(4, 4, 2, 2);
  const DistGraph dist = DistGraph::build(g, p);
  for (Rank r = 0; r < dist.num_ranks(); ++r) {
    const LocalGraph& lg = dist.local(r);
    for (VertexId v = 0; v < lg.num_owned(); ++v) {
      const auto nbrs = lg.neighbors(v);
      const auto ws = lg.weights(v);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        EXPECT_DOUBLE_EQ(
            ws[i], g.edge_weight(lg.global_id(v), lg.global_id(nbrs[i])));
      }
    }
  }
}

TEST(DistGraph, CrossEdgeTotalsMatchCutMetric) {
  const Graph g = erdos_renyi(300, 1200, WeightKind::kUniformRandom, 4);
  const Partition p = random_partition(300, 5, 8);
  const DistGraph dist = DistGraph::build(g, p);
  dist.validate(g, p);
  EdgeId cross_arcs = 0;
  for (Rank r = 0; r < dist.num_ranks(); ++r) {
    cross_arcs += dist.local(r).num_cross_edges();
  }
  const auto metrics = compute_metrics(g, p);
  EXPECT_EQ(cross_arcs, 2 * metrics.edge_cut);  // each cut edge seen twice
}

TEST(DistGraph, GhostsDeduplicatedPerRank) {
  // Star: center 0 on rank 0, leaves on rank 1. Rank 1 must hold exactly one
  // ghost copy of the center.
  const Graph g = star(6);
  std::vector<Rank> owner{0, 1, 1, 1, 1, 1};
  const Partition p(2, std::move(owner));
  const DistGraph dist = DistGraph::build(g, p);
  dist.validate(g, p);
  EXPECT_EQ(dist.local(1).num_ghosts(), 1);
  EXPECT_EQ(dist.local(0).num_ghosts(), 5);
}

TEST(DistGraph, GhostIncidenceListsOwnedArcsInOrder) {
  // Star: rank 1's ghost of the center is reached by every leaf's one arc,
  // in owned-id order; each of rank 0's ghosts by the center's arc to it.
  const Graph g = star(6);
  const Partition p(2, {0, 1, 1, 1, 1, 1});
  for (const int halo : {1, 2}) {
    SCOPED_TRACE("halo " + std::to_string(halo));
    const DistGraph dist = DistGraph::build(g, p, halo);
    const LocalGraph& leaves = dist.local(1);
    const VertexId center = leaves.local_id(0);
    std::vector<LocalGraph::IncidentArc> want;
    for (VertexId lv = 0; lv < leaves.num_owned(); ++lv) {
      want.push_back({lv, leaves.offset_begin(lv)});
    }
    EXPECT_TRUE(std::ranges::equal(leaves.ghost_incidence(center), want));

    const LocalGraph& hub = dist.local(0);
    for (EdgeId a = hub.offset_begin(0); a < hub.offset_end(0); ++a) {
      const auto got = hub.ghost_incidence(hub.arc_target(a));
      ASSERT_EQ(got.size(), 1u);
      EXPECT_EQ(got[0], (LocalGraph::IncidentArc{0, a}));
    }
  }
  // On path 0-1-2-3 over three ranks, rank 0's halo-2 view holds vertex 2
  // two hops out: a ghost that none of its owned arcs reaches.
  const Graph line = path(4);
  const Partition thirds(3, {0, 1, 2, 2});
  const DistGraph far = DistGraph::build(line, thirds, 2);
  far.validate(line, thirds);
  const LocalGraph& first = far.local(0);
  ASSERT_NE(first.local_id(2), kNoVertex);
  EXPECT_TRUE(first.ghost_incidence(first.local_id(2)).empty());
}

TEST(DistGraph, MismatchedPartitionThrows) {
  const Graph g = path(4);
  const Partition p(2, {0, 1});
  EXPECT_THROW((void)DistGraph::build(g, p), Error);
}

TEST(DistGraph, LocalIdLookupForUnknownVertex) {
  const Graph g = path(4);
  const Partition p(2, {0, 0, 1, 1});
  const DistGraph dist = DistGraph::build(g, p);
  EXPECT_EQ(dist.local(0).local_id(3), kNoVertex);  // 3 not visible on rank 0
}

/// boundary_ranks(v) against a brute-force sorted-unique scan of g and p:
/// the owners other than v's of the vertices within the distribution's halo
/// of v, for every owned vertex of every rank. Returns the largest
/// per-vertex rank count seen.
std::size_t expect_boundary_ranks_match_scan(const Graph& g,
                                             const Partition& p,
                                             const DistGraph& dist) {
  std::size_t widest = 0;
  for (Rank r = 0; r < dist.num_ranks(); ++r) {
    const LocalGraph& lg = dist.local(r);
    for (VertexId v = 0; v < lg.num_owned(); ++v) {
      const VertexId gv = lg.global_id(v);
      std::vector<Rank> expected;
      const auto see = [&](VertexId u) {
        if (p.owner(u) != r) expected.push_back(p.owner(u));
      };
      for (const VertexId u : g.neighbors(gv)) {
        see(u);
        if (lg.halo() == 1) continue;
        for (const VertexId w : g.neighbors(u)) see(w);
      }
      std::sort(expected.begin(), expected.end());
      expected.erase(std::unique(expected.begin(), expected.end()),
                     expected.end());
      const auto got = lg.boundary_ranks(v);
      EXPECT_EQ(std::vector<Rank>(got.begin(), got.end()), expected)
          << "rank " << r << " local " << v;
      EXPECT_EQ(got.empty(), !lg.is_boundary(v))
          << "rank " << r << " local " << v;
      widest = std::max(widest, got.size());
    }
  }
  return widest;
}

TEST(DistGraph, BoundaryRanksOnGridBlocks) {
  // 4x4 blocks of a 12x12 grid: every interior block corner touches two
  // other blocks (right and below), so its vertex has two boundary ranks.
  const Graph g = grid_2d(12, 12);
  const Partition p = grid_2d_partition(12, 12, 3, 3);
  const DistGraph dist = DistGraph::build(g, p);
  EXPECT_EQ(expect_boundary_ranks_match_scan(g, p, dist), 2u);
  const LocalGraph& center = dist.local(4);  // middle block
  const VertexId corner = center.local_id(7 * 12 + 7);  // its last vertex
  ASSERT_NE(corner, kNoVertex);
  EXPECT_EQ(center.boundary_ranks(corner).size(), 2u);
}

TEST(DistGraph, BoundaryRanksOnMultilevelPartition) {
  const Graph g = erdos_renyi(400, 2000, WeightKind::kUniformRandom, 6);
  const Partition p =
      multilevel_partition(g, 9, MultilevelConfig::metis_like(3));
  const DistGraph dist = DistGraph::build(g, p);
  EXPECT_GE(expect_boundary_ranks_match_scan(g, p, dist), 2u);
}

/// local_id is kNoVertex for every global vertex a rank does not hold,
/// found by a scan of the ids it does hold. (validate() covers the held
/// ones: local_id inverts global_id.)
void expect_absent_ids_unknown(const DistGraph& dist) {
  std::vector<char> held(static_cast<std::size_t>(dist.num_global_vertices()));
  for (Rank r = 0; r < dist.num_ranks(); ++r) {
    const LocalGraph& lg = dist.local(r);
    std::fill(held.begin(), held.end(), 0);
    for (VertexId l = 0; l < lg.num_local(); ++l) {
      held[static_cast<std::size_t>(lg.global_id(l))] = 1;
    }
    for (VertexId gv = 0; gv < dist.num_global_vertices(); ++gv) {
      if (held[static_cast<std::size_t>(gv)] == 0) {
        EXPECT_EQ(lg.local_id(gv), kNoVertex)
            << "rank " << r << " global " << gv;
      }
    }
  }
}

/// Every field of every rank of `got` equals `want`'s, each ghost's
/// incidence included, and local_id agrees on every global id (a stale
/// ghost left in the lookup table shows here).
void expect_same_distribution(const DistGraph& got, const DistGraph& want) {
  ASSERT_EQ(got.num_ranks(), want.num_ranks());
  ASSERT_EQ(got.num_global_vertices(), want.num_global_vertices());
  for (Rank r = 0; r < got.num_ranks(); ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    const LocalGraph& a = got.local(r);
    const LocalGraph& b = want.local(r);
    ASSERT_EQ(a.num_owned(), b.num_owned());
    ASSERT_EQ(a.num_local(), b.num_local());
    ASSERT_EQ(a.has_weights(), b.has_weights());
    for (VertexId l = 0; l < a.num_local(); ++l) {
      EXPECT_EQ(a.global_id(l), b.global_id(l)) << "local " << l;
      if (a.is_ghost(l)) {
        EXPECT_EQ(a.ghost_owner(l), b.ghost_owner(l)) << "local " << l;
      }
    }
    for (VertexId l = 0; l < a.num_owned(); ++l) {
      EXPECT_TRUE(std::ranges::equal(a.neighbors(l), b.neighbors(l)))
          << "local " << l;
      if (a.has_weights()) {
        EXPECT_TRUE(std::ranges::equal(a.weights(l), b.weights(l)))
            << "local " << l;
      }
      EXPECT_TRUE(std::ranges::equal(a.boundary_ranks(l), b.boundary_ranks(l)))
          << "local " << l;
    }
    for (VertexId l = a.num_owned(); l < a.num_local(); ++l) {
      EXPECT_TRUE(
          std::ranges::equal(a.ghost_incidence(l), b.ghost_incidence(l)))
          << "ghost " << l;
    }
    EXPECT_EQ(a.neighbor_ranks(), b.neighbor_ranks());
    EXPECT_EQ(a.boundary_vertices(), b.boundary_vertices());
    EXPECT_EQ(a.num_cross_edges(), b.num_cross_edges());
    for (VertexId gv = 0; gv < got.num_global_vertices(); ++gv) {
      EXPECT_EQ(a.local_id(gv), b.local_id(gv)) << "global " << gv;
    }
  }
}

TEST(DistGraph, RefreshDropsLastCrossEdgeAndLinksNewRanks) {
  // Path 0-1-2-3-4-5 on ranks {0,0,1,1,2,2}: ranks 0 and 2 are not
  // neighbours. One batch deletes (1,2), the last cross edge of 1 and of 2,
  // and inserts (0,5), linking ranks 0 and 2.
  const Graph before = path(6);
  const Partition p(3, {0, 0, 1, 1, 2, 2});
  DistGraph dist = DistGraph::build(before, p);
  ASSERT_EQ(dist.local(0).local_id(2), 2);  // rank 0's ghost of vertex 2

  DynamicGraph dyn(before);
  const std::vector<EdgeUpdate> batch = {
      {UpdateOp::kDelete, 1, 2, Weight{1}},
      {UpdateOp::kInsert, 0, 5, Weight{3}},
  };
  for (const EdgeUpdate& u : batch) dyn.apply(u);
  const Graph& after = dyn.snapshot();
  dist.refresh(after, p, touched_vertices(batch));
  dist.validate(after, p);
  expect_same_distribution(dist, DistGraph::build(after, p));

  EXPECT_EQ(dist.local(0).local_id(2), kNoVertex);
  EXPECT_EQ(dist.local(1).local_id(1), kNoVertex);
  EXPECT_EQ(dist.local(0).global_id(dist.local(0).local_id(5)), 5);
  EXPECT_EQ(dist.local(0).neighbor_ranks(), (std::vector<Rank>{2}));
  EXPECT_EQ(dist.local(1).neighbor_ranks(), (std::vector<Rank>{2}));
  EXPECT_EQ(dist.local(2).neighbor_ranks(), (std::vector<Rank>{0, 1}));
  EXPECT_FALSE(dist.local(0).is_boundary(dist.local(0).local_id(1)));
}

TEST(DistGraph, RefreshOfHalo2Throws) {
  // A halo-2 refresh would need the old graph's rows around the touched
  // vertices; refresh serves halo 1 only.
  const Graph g = path(6);
  const Partition p(3, {0, 0, 1, 1, 2, 2});
  DistGraph dist = DistGraph::build(g, p, 2);
  const std::vector<VertexId> touched{2};
  EXPECT_THROW(dist.refresh(g, p, touched), Error);
}

TEST(DistGraph, RefreshWithAnotherOwnerThrows) {
  // Vertex 1 moves to rank 1 between build and refresh: rank 1's fill meets
  // a target the partition says it owns but it never numbered.
  const Graph g = path(4);
  DistGraph dist = DistGraph::build(g, Partition(2, {0, 0, 1, 1}));
  const std::vector<VertexId> touched{2};
  EXPECT_THROW(dist.refresh(g, Partition(2, {0, 1, 1, 1}), touched), Error);
}

TEST(DistGraph, HaloMustBeOneOrTwo) {
  const Graph g = path(4);
  const Partition p(2, {0, 0, 1, 1});
  EXPECT_THROW((void)DistGraph::build(g, p, 0), Error);
  EXPECT_THROW((void)DistGraph::build(g, p, 3), Error);
}

class DistGraphSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DistGraphSweep, InvariantsAcrossGraphsAndParts) {
  const auto [graph_kind, parts] = GetParam();
  Graph g;
  switch (graph_kind) {
    case 0: g = grid_2d(12, 12, WeightKind::kUniformRandom, 1); break;
    case 1: g = erdos_renyi(256, 1024, WeightKind::kUniformRandom, 2); break;
    case 2: g = circuit_like(300, 600); break;
    case 3: g = rmat(8, 4); break;
    default: FAIL();
  }
  const Partition p =
      multilevel_partition(g, static_cast<Rank>(parts),
                           MultilevelConfig::metis_like(5));
  for (const int halo : {1, 2}) {
    SCOPED_TRACE("halo " + std::to_string(halo));
    const DistGraph dist = DistGraph::build(g, p, halo);
    dist.validate(g, p);
    expect_absent_ids_unknown(dist);
    (void)expect_boundary_ranks_match_scan(g, p, dist);
  }

  // refresh() after each update batch equals a fresh build, field by field.
  DynamicGraph dyn(g);
  DistGraph live = DistGraph::build(dyn.folded(), p);
  UpdateStreamConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(10 * graph_kind + parts);
  UpdateStreamGenerator gen(g, cfg);
  for (int batch = 0; batch < 4; ++batch) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    const std::vector<EdgeUpdate> updates = gen.next_batch(16);
    for (const EdgeUpdate& u : updates) dyn.apply(u);
    const Graph& current = dyn.snapshot();
    live.refresh(current, p, touched_vertices(updates));
    live.validate(current, p);
    expect_absent_ids_unknown(live);
    expect_same_distribution(live, DistGraph::build(current, p));
  }
}

INSTANTIATE_TEST_SUITE_P(GraphsTimesParts, DistGraphSweep,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3),
                                            ::testing::Values(2, 7, 16)));

}  // namespace
}  // namespace pmc
