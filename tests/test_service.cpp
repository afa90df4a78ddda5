// Service-mode tests: dynamic-graph update streams and incremental
// re-matching / re-coloring (DESIGN.md §"Service mode").
//
// The acceptance bar for the subsystem:
//
//  - update streams are seeded and replayable: a generated stream is a pure
//    function of (initial graph, config), and the JSONL log round-trips
//    bit-identically;
//  - every batch's incremental repair is byte-identical to a full recompute
//    on the post-batch graph (GraphService{verify_batches} asserts this
//    internally; the tests also diff the final solutions explicitly);
//  - the whole service run is deterministic across the thread sweep
//    {1, 2, 4} and with fault injection on: same update log => same
//    per-batch fingerprints, and faults never change the computed
//    matching / coloring (only the modelled recovery time).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/pmc.hpp"
#include "partition/simple.hpp"
#include "runtime/exec/backend.hpp"

namespace pmc {
namespace {

/// Thread counts the service determinism scenarios must reproduce
/// byte-identically at (same sweep as test_determinism_regression.cpp).
constexpr int kThreadSweep[] = {1, 2, 4};

/// Pinned final state of the seed-99 500-op service run (see
/// ServiceTest.PinnedFinalState): hexfloat matching weight | color count.
const char* const kPinnedServiceFinal = "0x1.7f6f50f83e3fcp+9|5";

/// Hexfloat round-trips doubles exactly, so two fingerprints compare equal
/// iff every field is bit-identical.
std::string batch_fingerprint(const BatchReport& r) {
  std::ostringstream os;
  os << std::hexfloat;
  os << r.batch << '|' << r.updates << '|' << r.touched << '|'
     << r.match_invalidated << '|' << r.color_recolored << '|'
     << r.match_sim_seconds << '|' << r.color_sim_seconds << '|'
     << r.matching_weight << '|' << r.num_colors;
  return os.str();
}

EdgeUpdate insert(VertexId u, VertexId v, Weight w) {
  return {UpdateOp::kInsert, std::min(u, v), std::max(u, v), w};
}
EdgeUpdate erase(VertexId u, VertexId v) {
  return {UpdateOp::kDelete, std::min(u, v), std::max(u, v), Weight{1}};
}
EdgeUpdate reweight(VertexId u, VertexId v, Weight w) {
  return {UpdateOp::kReweight, std::min(u, v), std::max(u, v), w};
}

// ---- DynamicGraph -----------------------------------------------------------

TEST(DynamicGraphTest, AppliesUpdatesAndSnapshots) {
  GraphBuilder b(4);
  b.add_edge(0, 1, 1.0);
  b.add_edge(1, 2, 2.0);
  const Graph g0 = std::move(b).build();

  DynamicGraph dyn(g0);
  EXPECT_EQ(dyn.num_vertices(), 4);
  EXPECT_EQ(dyn.num_edges(), 2);
  EXPECT_TRUE(dyn.has_edge(0, 1));
  EXPECT_TRUE(dyn.has_edge(2, 1));  // symmetric lookup
  EXPECT_FALSE(dyn.has_edge(0, 3));
  EXPECT_EQ(dyn.edge_weight(1, 2), 2.0);

  dyn.apply(insert(2, 3, 5.0));
  dyn.apply(erase(0, 1));
  dyn.apply(reweight(1, 2, 7.5));
  EXPECT_EQ(dyn.num_edges(), 2);
  EXPECT_FALSE(dyn.has_edge(0, 1));
  EXPECT_EQ(dyn.edge_weight(2, 3), 5.0);
  EXPECT_EQ(dyn.edge_weight(2, 1), 7.5);

  const Graph g1 = dyn.snapshot();
  EXPECT_EQ(g1.num_vertices(), 4);
  EXPECT_EQ(g1.num_edges(), 2);
  EXPECT_NO_THROW(g1.validate());
}

TEST(DynamicGraphTest, RejectsInvalidUpdates) {
  GraphBuilder b(3);
  b.add_edge(0, 1, 1.0);
  DynamicGraph dyn(std::move(b).build());

  EXPECT_THROW(dyn.apply(insert(0, 1, 2.0)), Error);   // already present
  EXPECT_THROW(dyn.apply(erase(1, 2)), Error);         // absent
  EXPECT_THROW(dyn.apply(reweight(0, 2, 1.0)), Error); // absent
  EXPECT_THROW(dyn.apply(insert(1, 1, 1.0)), Error);   // self-loop
  EXPECT_THROW(dyn.apply(insert(0, 3, 1.0)), Error);   // out of range
  EXPECT_THROW(dyn.apply(insert(-1, 0, 1.0)), Error);  // out of range
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(dyn.apply(insert(0, 2, nan)), Error);    // non-finite weight
  EXPECT_THROW(dyn.apply(insert(1, 2, -inf)), Error);
  EXPECT_THROW(dyn.apply(reweight(0, 1, inf)), Error);
  // The failed applies must not have mutated the mirror.
  EXPECT_EQ(dyn.num_edges(), 1);
  EXPECT_EQ(dyn.edge_weight(0, 1), 1.0);
}

/// Reference edge set for the folded snapshot: normalized (u, v) -> weight,
/// frozen through GraphBuilder.
class EdgeSetMirror {
 public:
  explicit EdgeSetMirror(const Graph& g) : n_(g.num_vertices()) {
    for (VertexId u = 0; u < n_; ++u) {
      for (const VertexId v : g.neighbors(u)) {
        if (u < v) edges_[{u, v}] = g.edge_weight(u, v);
      }
    }
  }

  void apply(const EdgeUpdate& e) {
    if (e.op == UpdateOp::kDelete) {
      edges_.erase({e.u, e.v});
    } else {
      edges_[{e.u, e.v}] = e.w;
    }
  }

  [[nodiscard]] Graph build() const {
    GraphBuilder b(n_);
    for (const auto& [e, w] : edges_) b.add_edge(e.first, e.second, w);
    return std::move(b).build();
  }

 private:
  VertexId n_;
  std::map<std::pair<VertexId, VertexId>, Weight> edges_;
};

/// Same offsets, neighbors and (bit-identical) weights.
void expect_same_csr(const Graph& got, const Graph& want) {
  ASSERT_EQ(got.num_vertices(), want.num_vertices());
  ASSERT_EQ(got.num_arcs(), want.num_arcs());
  ASSERT_TRUE(got.has_weights());
  ASSERT_TRUE(want.has_weights());
  for (VertexId v = 0; v <= got.num_vertices(); ++v) {
    ASSERT_EQ(got.offset_begin(v), want.offset_begin(v)) << "row " << v;
  }
  const EdgeId arcs = got.num_arcs();
  EXPECT_TRUE(std::ranges::equal(got.arc_targets(0, arcs),
                                 want.arc_targets(0, arcs)));
  EXPECT_TRUE(std::ranges::equal(got.arc_weights(0, arcs),
                                 want.arc_weights(0, arcs)));
}

TEST(DynamicGraphTest, SnapshotEqualsBuilderGraphAfterEveryBatch) {
  // A weighted grid, and an unweighted one whose snapshots still carry unit
  // weights.
  const Graph weighted = grid_2d(10, 10, WeightKind::kUniformRandom, 4);
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (VertexId u = 0; u < weighted.num_vertices(); ++u) {
    for (const VertexId v : weighted.neighbors(u)) {
      if (u < v) pairs.emplace_back(u, v);
    }
  }
  const Graph unweighted = graph_from_edges(weighted.num_vertices(), pairs);
  ASSERT_FALSE(unweighted.has_weights());

  for (const Graph* initial : {&weighted, &unweighted}) {
    SCOPED_TRACE(initial->has_weights() ? "weighted" : "unweighted");
    DynamicGraph dyn(*initial);
    EdgeSetMirror mirror(*initial);
    expect_same_csr(dyn.snapshot(), mirror.build());

    UpdateStreamConfig cfg;
    cfg.seed = 31;
    UpdateStreamGenerator gen(*initial, cfg);
    for (int batch = 0; batch < 6; ++batch) {
      SCOPED_TRACE("batch " + std::to_string(batch));
      for (const EdgeUpdate& u : gen.next_batch(16)) {
        dyn.apply(u);
        mirror.apply(u);
      }
      const Graph& folded = dyn.snapshot();
      expect_same_csr(folded, mirror.build());
      EXPECT_EQ(dyn.num_edges(), folded.num_edges());
      // Nothing pending: the second snapshot is the same graph, unchanged.
      EXPECT_EQ(&dyn.snapshot(), &folded);
      expect_same_csr(dyn.snapshot(), mirror.build());
    }
  }
}

/// Applies each batch to `dyn` and `mirror`, folds it, and requires the
/// builder's CSR. A fold that does not add arcs keeps the arc arrays.
void expect_folds(const char* graph, DynamicGraph& dyn,
                  EdgeSetMirror& mirror,
                  const std::vector<std::vector<EdgeUpdate>>& batches) {
  for (std::size_t i = 0; i < batches.size(); ++i) {
    SCOPED_TRACE(std::string(graph) + " batch " + std::to_string(i));
    const EdgeId arcs = dyn.folded().num_arcs();
    const VertexId* storage = dyn.folded().arc_targets(0, 0).data();
    for (const EdgeUpdate& u : batches[i]) {
      dyn.apply(u);
      mirror.apply(u);
    }
    const Graph& folded = dyn.snapshot();
    expect_same_csr(folded, mirror.build());
    EXPECT_NO_THROW(folded.validate());
    expect_same_csr(dyn.snapshot(), mirror.build());
    if (folded.num_arcs() <= arcs) {
      EXPECT_EQ(folded.arc_targets(0, 0).data(), storage);
    }
  }
}

TEST(DynamicGraphTest, SnapshotFoldsEdgeCaseBatches) {
  // Path 0-1-2-3-4-5: updates at the first and last rows leave empty
  // untouched blocks at both ends.
  const Graph path = [] {
    GraphBuilder b(6);
    for (VertexId v = 0; v + 1 < 6; ++v) {
      b.add_edge(v, v + 1, static_cast<Weight>(v + 1));
    }
    return std::move(b).build();
  }();
  DynamicGraph dyn(path);
  EdgeSetMirror mirror(path);
  expect_folds("path", dyn, mirror,
               {
                   // Insert and delete the same edge in one batch, at rows 0
                   // and n-1.
                   {insert(0, 5, 9.0), reweight(2, 3, 0.5), erase(0, 5)},
                   // Vertex 0 loses its last edge.
                   {erase(0, 1)},
                   // Row n-1 swaps its only edge for one to row 0.
                   {insert(0, 5, 4.0), erase(4, 5)},
                   // Both end rows lose their last edge; an interior edge
                   // appears.
                   {erase(0, 5), insert(1, 4, 2.5)},
               });
  EXPECT_EQ(dyn.snapshot().degree(0), 0);
  EXPECT_EQ(dyn.snapshot().degree(5), 0);
  EXPECT_EQ(dyn.edge_weight(3, 2), 0.5);

  // A perfect matching on 28 vertices plus the star 12-{14, 16, 18}. Its
  // rows of one arc sit between blocks that move the same way, so a block
  // moved out of order lands on one not yet moved.
  const Graph pairs = [] {
    GraphBuilder b(28);
    for (VertexId v = 0; v < 28; v += 2) {
      b.add_edge(v, v + 1, static_cast<Weight>(v + 1));
    }
    for (const VertexId leaf : {14, 16, 18}) b.add_edge(12, leaf, 0.5);
    return std::move(b).build();
  }();
  DynamicGraph shifting(pairs);
  EdgeSetMirror shifted(pairs);
  expect_folds(
      "pairs", shifting, shifted,
      {
          // Row 1 gains two arcs and row 4 one: rows 2-3 move right by 2
          // and rows 5-11 by 3. Row 12 loses three and its leaves one each:
          // rows 15, 17 and 19-20 move left by 1, 2 and 3. The tail gains:
          // rows 26-27 move right by 2.
          {insert(1, 22, 2.5), insert(1, 24, 3.5), insert(4, 25, 4.5),
           erase(12, 14), erase(12, 16), erase(12, 18), insert(21, 23, 5.5)},
          // Net zero, but rows 2-5 move left by 2 and rows 8-12 by 4, past
          // the two old arcs of rows 6-7; rows 14 and 16 move left by 3 and
          // 1, rows 18, 20-21 and 23 right by 1, 2 and 1.
          {erase(1, 22), erase(1, 24), erase(6, 7), insert(13, 15, 6.5),
           insert(15, 17, 7.5), insert(17, 19, 8.25)},
          // Adjacent touched rows 5-9, with no untouched row between them.
          {insert(5, 6, 8.5), insert(6, 7, 9.5), erase(8, 9)},
          // Reweights only: no block moves.
          {reweight(10, 11, 0.25), reweight(12, 13, 0.75)},
      });
}

// ---- UpdateStreamGenerator --------------------------------------------------

TEST(UpdateStreamTest, GeneratorIsSeededAndProducesValidStreams) {
  const Graph g = grid_2d(8, 8, WeightKind::kUniformRandom, 3);

  UpdateStreamConfig cfg;
  cfg.seed = 42;
  UpdateStreamGenerator gen(g, cfg);
  const std::vector<EdgeUpdate> stream = gen.next_batch(600);
  ASSERT_EQ(stream.size(), 600u);

  // Every op must be valid against the evolving graph — DynamicGraph::apply
  // throws on any invalid one.
  DynamicGraph dyn(g);
  int inserts = 0, deletes = 0, reweights = 0;
  for (const EdgeUpdate& u : stream) {
    ASSERT_NO_THROW(dyn.apply(u)) << to_string(u.op) << " " << u.u << " "
                                  << u.v;
    ASSERT_LT(u.u, u.v);  // normalized endpoints
    if (u.op == UpdateOp::kInsert) ++inserts;
    if (u.op == UpdateOp::kDelete) ++deletes;
    if (u.op == UpdateOp::kReweight) ++reweights;
  }
  // The configured mix is 40/30/30; with 600 draws each class must appear.
  EXPECT_GT(inserts, 0);
  EXPECT_GT(deletes, 0);
  EXPECT_GT(reweights, 0);
  EXPECT_NO_THROW(dyn.snapshot().validate());

  // Same seed => identical stream; different seed => different stream.
  UpdateStreamGenerator replay(g, cfg);
  EXPECT_EQ(replay.next_batch(600), stream);
  cfg.seed = 43;
  UpdateStreamGenerator other(g, cfg);
  EXPECT_NE(other.next_batch(600), stream);
}

TEST(UpdateStreamTest, ImpossibleOpsDegradeDeterministically) {
  // Edgeless graph: deletes/reweights must degrade to inserts.
  const Graph empty = [] {
    GraphBuilder b(6);
    return std::move(b).build();
  }();
  UpdateStreamConfig cfg;
  cfg.insert_fraction = 0.0;
  cfg.delete_fraction = 1.0;
  cfg.seed = 9;
  UpdateStreamGenerator gen(empty, cfg);
  const EdgeUpdate first = gen.next();
  EXPECT_EQ(first.op, UpdateOp::kInsert);

  // Complete graph: inserts must degrade to deletes.
  const Graph k4 = [] {
    GraphBuilder b(4);
    for (VertexId u = 0; u < 4; ++u)
      for (VertexId v = u + 1; v < 4; ++v)
        b.add_edge(u, v, static_cast<Weight>(u + v + 1));
    return std::move(b).build();
  }();
  UpdateStreamConfig all_insert;
  all_insert.insert_fraction = 1.0;
  all_insert.delete_fraction = 0.0;
  all_insert.seed = 9;
  UpdateStreamGenerator gen2(k4, all_insert);
  const EdgeUpdate forced = gen2.next();
  EXPECT_EQ(forced.op, UpdateOp::kDelete);

  // And the degraded stream stays valid throughout.
  DynamicGraph dyn(k4);
  dyn.apply(forced);
  for (const EdgeUpdate& u : gen2.next_batch(50)) ASSERT_NO_THROW(dyn.apply(u));
}

// ---- JSONL log --------------------------------------------------------------

TEST(UpdateLogTest, RoundTripsBitIdentically) {
  const Graph g = grid_2d(6, 6, WeightKind::kUniformRandom, 17);
  UpdateStreamConfig cfg;
  cfg.seed = 1234;
  UpdateStreamGenerator gen(g, cfg);
  const std::vector<EdgeUpdate> stream = gen.next_batch(200);

  std::ostringstream out;
  write_update_log(out, stream);
  std::istringstream in(out.str());
  const std::vector<EdgeUpdate> back = read_update_log(in);
  ASSERT_EQ(back.size(), stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(back[i].op, stream[i].op) << "line " << i;
    EXPECT_EQ(back[i].u, stream[i].u) << "line " << i;
    EXPECT_EQ(back[i].v, stream[i].v) << "line " << i;
    if (stream[i].op != UpdateOp::kDelete) {
      // Bit-identical weights, not just approximately equal.
      EXPECT_EQ(back[i].w, stream[i].w) << "line " << i;
    }
  }
}

TEST(UpdateLogTest, RejectsMalformedLines) {
  const auto parse = [](const std::string& text) {
    std::istringstream in(text);
    return read_update_log(in);
  };
  EXPECT_THROW(parse(R"({"op":"insert","u":1})"), Error);
  EXPECT_THROW(parse(R"({"op":"explode","u":1,"v":2,"w":1.0})"), Error);
  EXPECT_THROW(parse(R"({"op":"insert","u":1,"v":2,"w":1.0} trailing)"), Error);
  EXPECT_THROW(parse(R"({"op":"delete","u":1,"v":2,"w":1.0})"), Error);
  EXPECT_THROW(parse("not json at all"), Error);
  // Blank lines are tolerated.
  EXPECT_EQ(parse("\n\n").size(), 0u);
}

TEST(UpdateLogTest, RejectsNumbersTheOtherReadersReject) {
  // Each spelling in each number field, on the second line: the error must
  // name that line.
  const std::string good = R"({"op":"insert","u":1,"v":2,"w":0.5})";
  const std::string fields[] = {R"("u":)", R"("v":)", R"("w":)"};
  const std::string values[] = {"1", "2", "0.5"};
  for (const char* bad : {"nan", "inf", "-inf", "0x1p3", "+0", "\t1"}) {
    for (std::size_t f = 0; f < 3; ++f) {
      std::string line = good;
      const std::size_t at = line.find(fields[f]) + fields[f].size();
      line.replace(at, values[f].size(), bad);
      std::istringstream in(good + "\n" + line + "\n");
      try {
        (void)read_update_log(in);
        ADD_FAILURE() << "accepted: " << line;
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
            << e.what();
      }
    }
  }
}

// ---- canonical coloring -----------------------------------------------------

TEST(CanonicalColoringTest, SequentialEqualsDistributedColdStart) {
  const Graph g = grid_2d(12, 12, WeightKind::kUniformRandom, 5);
  const Coloring seq = canonical_coloring(g, /*seed=*/0);
  std::string why;
  ASSERT_TRUE(is_proper_coloring(g, seq, &why)) << why;

  const Partition p = grid_2d_partition(12, 12, 2, 2);
  const DistGraph dist = DistGraph::build(g, p);
  DistColoringOptions opt;
  opt.exec = exec_config_from_env();
  const IncrementalColorResult cold = color_canonical(dist, opt);
  EXPECT_EQ(cold.coloring.color, seq.color);
  ASSERT_TRUE(is_proper_coloring(g, cold.coloring, &why)) << why;
}

// ---- incremental drivers against full recomputes ----------------------------

class IncrementalDriversTest : public ::testing::Test {
 protected:
  IncrementalDriversTest()
      : g_(grid_2d(16, 16, WeightKind::kUniformRandom, 7)),
        p_(grid_2d_partition(16, 16, 2, 2)) {}

  Graph g_;
  Partition p_;
};

TEST_F(IncrementalDriversTest, MatchRepairEqualsRecomputeEveryBatch) {
  DistMatchingOptions opt;
  opt.exec = exec_config_from_env();
  DynamicGraph dyn(g_);
  // Carried across batches with refresh(), as GraphService does.
  DistGraph carried = DistGraph::build(dyn.folded(), p_);
  Matching current = match_distributed(carried, opt).matching;

  UpdateStreamConfig cfg;
  cfg.seed = 21;
  UpdateStreamGenerator gen(g_, cfg);
  for (int batch = 0; batch < 8; ++batch) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    const std::vector<EdgeUpdate> updates = gen.next_batch(16);
    for (const EdgeUpdate& u : updates) dyn.apply(u);
    const Graph& g = dyn.snapshot();
    const std::vector<VertexId> touched = touched_vertices(updates);
    carried.refresh(g, p_, touched);
    const DistGraph dist = DistGraph::build(g, p_);

    const IncrementalMatchResult inc =
        match_incremental(dist, current, touched, opt);
    const IncrementalMatchResult on_carried =
        match_incremental(carried, current, touched, opt);
    const DistMatchingResult full = match_distributed(dist, opt);
    ASSERT_EQ(inc.matching.mate, full.matching.mate);
    ASSERT_EQ(on_carried.matching.mate, full.matching.mate);
    EXPECT_EQ(on_carried.run.sim_seconds, inc.run.sim_seconds);

    std::string why;
    EXPECT_TRUE(is_valid_matching(g, inc.matching, &why)) << why;
    EXPECT_TRUE(is_maximal_matching(g, inc.matching));
    EXPECT_GT(inc.invalidated, 0);
    // The repair must not renegotiate the whole graph on a 16-op batch.
    EXPECT_LT(inc.invalidated, g.num_vertices());
    current = inc.matching;
  }
}

TEST_F(IncrementalDriversTest, ColorRepairEqualsRecomputeEveryBatch) {
  DistColoringOptions opt;
  opt.exec = exec_config_from_env();
  DynamicGraph dyn(g_);
  // Carried across batches with refresh(), as GraphService does.
  DistGraph carried = DistGraph::build(dyn.folded(), p_);
  Coloring current = color_canonical(carried, opt).coloring;

  UpdateStreamConfig cfg;
  cfg.seed = 22;
  UpdateStreamGenerator gen(g_, cfg);
  for (int batch = 0; batch < 8; ++batch) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    const std::vector<EdgeUpdate> updates = gen.next_batch(16);
    for (const EdgeUpdate& u : updates) dyn.apply(u);
    const Graph& g = dyn.snapshot();
    const std::vector<VertexId> touched = touched_vertices(updates);
    carried.refresh(g, p_, touched);
    const DistGraph dist = DistGraph::build(g, p_);

    const IncrementalColorResult inc =
        color_incremental(dist, current, touched, opt);
    const IncrementalColorResult on_carried =
        color_incremental(carried, current, touched, opt);
    const IncrementalColorResult full = color_canonical(dist, opt);
    ASSERT_EQ(inc.coloring.color, full.coloring.color);
    ASSERT_EQ(on_carried.coloring.color, full.coloring.color);
    EXPECT_EQ(on_carried.run.sim_seconds, inc.run.sim_seconds);

    std::string why;
    EXPECT_TRUE(is_proper_coloring(g, inc.coloring, &why)) << why;
    // Warm start: far fewer recolors than a cold run colors vertices.
    EXPECT_LT(inc.recolored, g.num_vertices());
    current = inc.coloring;
  }
}

/// Hexfloat of a modelled time, for pins that must hold bit for bit.
std::string hex(double seconds) {
  std::ostringstream os;
  os << std::hexfloat << seconds;
  return os.str();
}

TEST_F(IncrementalDriversTest, RepairsRejectMalformedTouchedLists) {
  const DistGraph dist = DistGraph::build(g_, p_);
  const Matching m = match_distributed(dist).matching;
  const Coloring c = color_canonical(dist).coloring;
  // A duplicate, a descending pair, and ids past either end of [0, 256).
  const std::vector<std::vector<VertexId>> malformed = {
      {3, 3}, {5, 4}, {1, 1000000}, {-5, 2}, {0, 256}};
  for (const std::vector<VertexId>& touched : malformed) {
    SCOPED_TRACE(::testing::PrintToString(touched));
    EXPECT_THROW((void)match_incremental(dist, m, touched), Error);
    EXPECT_THROW((void)color_incremental(dist, c, touched), Error);
  }
  const std::vector<VertexId> ascending{0, 17, 255};
  EXPECT_EQ(match_incremental(dist, m, ascending).matching.mate, m.mate);
  EXPECT_EQ(color_incremental(dist, c, ascending).coloring.color, c.color);
}

TEST_F(IncrementalDriversTest, MatchRepairWhenAMatchedCrossEdgeIsDeleted) {
  // Delete a matched cross edge (u, w): u is w's only neighbour on u's
  // rank, so w stops being a ghost there and u's previous mate resolves to
  // no local id. A reweight of (x, u), x < u on u's rank, invalidates x
  // first, so the closure reads u's dangling mate through x's arc.
  DistMatchingOptions opt;
  opt.exec = exec_config_from_env();
  const Matching prev =
      match_distributed(DistGraph::build(g_, p_), opt).matching;
  VertexId u = kNoVertex, w = kNoVertex, x = kNoVertex;
  for (VertexId v = 0; v < g_.num_vertices() && x == kNoVertex; ++v) {
    const VertexId m = prev.mate[static_cast<std::size_t>(v)];
    if (m == kNoVertex || p_.owner(m) == p_.owner(v)) continue;
    for (const VertexId y : g_.neighbors(v)) {
      if (y < v && p_.owner(y) == p_.owner(v)) {
        u = v;
        w = m;
        x = y;
        break;
      }
    }
  }
  ASSERT_NE(x, kNoVertex);
  const auto on_u_rank = [&](VertexId y) {
    return p_.owner(y) == p_.owner(u);
  };
  ASSERT_EQ(std::ranges::count_if(g_.neighbors(w), on_u_rank), 1);

  DynamicGraph dyn(g_);
  const std::vector<EdgeUpdate> batch = {erase(u, w), reweight(x, u, 0.5)};
  for (const EdgeUpdate& e : batch) dyn.apply(e);
  const DistGraph dist = DistGraph::build(dyn.snapshot(), p_);
  ASSERT_EQ(dist.local(p_.owner(u)).local_id(w), kNoVertex);

  const IncrementalMatchResult inc =
      match_incremental(dist, prev, touched_vertices(batch), opt);
  EXPECT_EQ(inc.matching.mate, match_distributed(dist, opt).matching.mate);
  // Pinned while frozen mates were resolved eagerly: resolving them on
  // demand must not move a charge.
  EXPECT_EQ(inc.invalidated, 7);
  EXPECT_EQ(hex(inc.run.sim_seconds), "0x1.1b6de3960e8adp-16");
}

TEST_F(IncrementalDriversTest, MatchRepairWithEveryTouchedVertexOnOneRank) {
  // Every update joins two vertices of rank 0, two of them matched across,
  // so the other ranks have no seeds: they only build repair state and
  // resolve frozen mates when rank 0's INVALIDATE records reach them.
  DistMatchingOptions opt;
  opt.exec = exec_config_from_env();
  DistColoringOptions copt;
  copt.exec = opt.exec;
  const DistGraph before = DistGraph::build(g_, p_);
  const Matching prev = match_distributed(before, opt).matching;
  const Coloring prev_coloring = color_canonical(before, copt).coloring;
  std::vector<VertexId> crossed;  // rank 0's vertices matched across
  for (VertexId v = 0; v < g_.num_vertices(); ++v) {
    const VertexId m = prev.mate[static_cast<std::size_t>(v)];
    if (p_.owner(v) == 0 && m != kNoVertex && p_.owner(m) != 0) {
      crossed.push_back(v);
    }
  }
  ASSERT_GE(crossed.size(), 2u);
  const VertexId a = crossed[0], b = crossed[1];
  std::vector<EdgeUpdate> batch = {erase(0, 1)};
  batch.push_back(g_.has_edge(a, b) ? reweight(a, b, 0.99)
                                    : insert(a, b, 0.99));
  DynamicGraph dyn(g_);
  for (const EdgeUpdate& e : batch) dyn.apply(e);
  const std::vector<VertexId> touched = touched_vertices(batch);
  for (const VertexId v : touched) ASSERT_EQ(p_.owner(v), 0) << v;
  const DistGraph dist = DistGraph::build(dyn.snapshot(), p_);

  const IncrementalMatchResult inc =
      match_incremental(dist, prev, touched, opt);
  EXPECT_EQ(inc.matching.mate, match_distributed(dist, opt).matching.mate);
  // Pinned while frozen mates were resolved eagerly: resolving them on
  // demand must not move a charge.
  EXPECT_EQ(inc.invalidated, 11);
  EXPECT_EQ(hex(inc.run.sim_seconds), "0x1.801289f059439p-16");
  // Rank 0 and rank 1, which holds a's and b's mates: the other two ranks
  // build no matching state.
  EXPECT_EQ(inc.ranks_reached, 2);

  const IncrementalColorResult ic =
      color_incremental(dist, prev_coloring, touched, copt);
  EXPECT_EQ(ic.coloring.color, color_canonical(dist, copt).coloring.color);
  // No boundary vertex changes color, so only rank 0 builds coloring state.
  EXPECT_EQ(ic.ranks_reached, 1);
}

TEST(LazyRepairTest, RepairsEqualRecomputeWhenMostRanksStayUnreached) {
  // 16x16 vertices on 4x4 ranks, one or two updates per batch: most ranks
  // hold no seed and hear no record, so they build no repair state and keep
  // their previous solutions. Each batch is repaired in place, as
  // GraphService does, on a carried distribution. With faults on, a
  // dropped record reaches a cold rank only when it is sent again.
  const Graph g0 = grid_2d(16, 16, WeightKind::kUniformRandom, 7);
  const Partition p = grid_2d_partition(16, 16, 4, 4);
  constexpr int kBatches = 24;
  for (const bool faults : {false, true}) {
    // Per thread count and batch: modelled times and reached ranks.
    std::vector<std::string> transcripts[2];
    for (const int threads : {1, 3}) {
      SCOPED_TRACE("faults=" + std::to_string(faults) +
                   " threads=" + std::to_string(threads));
      DistMatchingOptions mopt;
      mopt.exec.threads = threads;
      DistColoringOptions copt;
      copt.exec.threads = threads;
      if (faults) {
        mopt.faults.drop_rate = 0.2;
        mopt.faults.duplicate_rate = 0.1;
        mopt.faults.seed = 5;
        copt.faults = mopt.faults;
        copt.faults.seed = 6;
      }
      DynamicGraph dyn(g0);
      DistGraph carried = DistGraph::build(dyn.folded(), p);
      Matching matching = match_distributed(carried, mopt).matching;
      Coloring coloring = color_canonical(carried, copt).coloring;
      UpdateStreamConfig cfg;
      cfg.seed = 31;
      UpdateStreamGenerator gen(g0, cfg);
      Rank match_reached = 0, color_reached = 0;
      std::int64_t drops = 0, reentries = 0;
      std::vector<std::string>& transcript = transcripts[threads == 1 ? 0 : 1];
      for (int batch = 0; batch < kBatches; ++batch) {
        SCOPED_TRACE("batch " + std::to_string(batch));
        const std::vector<EdgeUpdate> updates = gen.next_batch(1 + batch % 2);
        for (const EdgeUpdate& u : updates) dyn.apply(u);
        const Graph& g = dyn.snapshot();
        const std::vector<VertexId> touched = touched_vertices(updates);
        carried.refresh(g, p, touched);
        IncrementalMatchResult im =
            match_incremental(carried, std::move(matching), touched, mopt);
        IncrementalColorResult ic =
            color_incremental(carried, std::move(coloring), touched, copt);
        const DistGraph fresh = DistGraph::build(g, p);
        ASSERT_EQ(im.matching.mate,
                  match_distributed(fresh, mopt).matching.mate);
        ASSERT_EQ(ic.coloring.color,
                  color_canonical(fresh, copt).coloring.color);
        EXPECT_LT(im.ranks_reached, 16);
        EXPECT_LT(ic.ranks_reached, 16);
        match_reached += im.ranks_reached;
        color_reached += ic.ranks_reached;
        drops += im.run.breakdown.total_faults().drops;
        reentries += ic.fault_reentries;
        transcript.push_back(hex(im.run.sim_seconds) + "|" +
                             hex(ic.run.sim_seconds) + "|" +
                             std::to_string(im.ranks_reached) + "|" +
                             std::to_string(ic.ranks_reached));
        matching = std::move(im.matching);
        coloring = std::move(ic.coloring);
      }
      // Most ranks stay unreached in most batches.
      EXPECT_LT(match_reached, kBatches * 16 / 2);
      EXPECT_LT(color_reached, kBatches * 16 / 2);
      if (faults) {
        EXPECT_GT(drops, 0);
        EXPECT_GT(reentries, 0);
      }
    }
    EXPECT_EQ(transcripts[1], transcripts[0]);
  }
}

// ---- GraphService -----------------------------------------------------------

ServiceOptions service_options(int threads, bool faults) {
  ServiceOptions so;
  so.batch_window = 50;
  so.verify_batches = true;  // every batch self-checks against a recompute
  so.matching.exec.threads = threads;
  so.coloring.exec.threads = threads;
  if (faults) {
    so.matching.faults.drop_rate = 0.02;
    so.matching.faults.duplicate_rate = 0.01;
    so.matching.faults.seed = 77;
    so.coloring.faults.drop_rate = 0.02;
    so.coloring.faults.duplicate_rate = 0.01;
    so.coloring.faults.seed = 78;
  }
  return so;
}

/// Drives one 500-op stream through a GraphService and fingerprints every
/// batch. `verify_batches` already asserts incremental == recompute inside
/// the service; the returned transcript lets the caller compare whole runs.
struct ServiceRun {
  std::vector<std::string> batches;
  std::vector<VertexId> final_mate;
  std::vector<Color> final_color;
  Weight final_weight = 0;
  Color final_colors = 0;
};

ServiceRun drive_service(int threads, bool faults) {
  const Graph g = grid_2d(48, 48, WeightKind::kUniformRandom, 7);
  const Partition p = grid_2d_partition(48, 48, 2, 2);
  GraphService service(g, p, service_options(threads, faults));

  UpdateStreamConfig cfg;
  cfg.seed = 99;
  UpdateStreamGenerator gen(g, cfg);
  ServiceRun run;
  for (const EdgeUpdate& u : gen.next_batch(500)) {
    if (auto report = service.push(u)) {
      run.batches.push_back(batch_fingerprint(*report));
      // Incremental repair must beat the full recompute it was verified
      // against in modelled time — that is the point of service mode.
      EXPECT_LT(report->match_sim_seconds, report->full_match_sim_seconds);
      EXPECT_LT(report->color_sim_seconds, report->full_color_sim_seconds);
    }
  }
  EXPECT_EQ(run.batches.size(), 10u);  // 500 ops / window 50
  EXPECT_EQ(service.pending_updates(), 0);

  std::string why;
  EXPECT_TRUE(is_valid_matching(service.graph(), service.matching(), &why))
      << why;
  EXPECT_TRUE(is_maximal_matching(service.graph(), service.matching()));
  EXPECT_TRUE(is_proper_coloring(service.graph(), service.coloring(), &why))
      << why;

  run.final_mate = service.matching().mate;
  run.final_color = service.coloring().color;
  run.final_weight = matching_weight(service.graph(), service.matching());
  run.final_colors = service.coloring().num_colors();
  return run;
}

TEST(ServiceTest, FiveHundredOpStreamIsDeterministicAcrossThreadsAndFaults) {
  const ServiceRun base = drive_service(/*threads=*/1, /*faults=*/false);

  for (const int threads : kThreadSweep) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const ServiceRun run = drive_service(threads, /*faults=*/false);
    // Byte-identical batch transcripts: same modelled times, same repair
    // sizes, same solution quality, at every thread count.
    EXPECT_EQ(run.batches, base.batches);
    EXPECT_EQ(run.final_mate, base.final_mate);
    EXPECT_EQ(run.final_color, base.final_color);
  }

  std::vector<ServiceRun> faulty;
  for (const int threads : kThreadSweep) {
    SCOPED_TRACE("faults, threads=" + std::to_string(threads));
    faulty.push_back(drive_service(threads, /*faults=*/true));
    // Faults change the modelled times (recovery costs time) but never the
    // computed solutions: the repaired matching / coloring stay equal to
    // the fault-free ones on every batch by fixed-point uniqueness.
    EXPECT_EQ(faulty.back().final_mate, base.final_mate);
    EXPECT_EQ(faulty.back().final_color, base.final_color);
    EXPECT_EQ(faulty.back().final_weight, base.final_weight);
    EXPECT_EQ(faulty.back().final_colors, base.final_colors);
  }
  // And the faulty transcripts are identical across the thread sweep.
  EXPECT_EQ(faulty[1].batches, faulty[0].batches);
  EXPECT_EQ(faulty[2].batches, faulty[0].batches);
}

TEST(ServiceTest, PinnedFinalState) {
  // Pinned outcome of the seed-99 stream above (threads=1, no faults). If
  // an intentional generator / repair change moves these, re-pin in the
  // same change and say why.
  const ServiceRun run = drive_service(/*threads=*/1, /*faults=*/false);
  std::ostringstream os;
  os << std::hexfloat << run.final_weight << '|' << run.final_colors;
  EXPECT_EQ(os.str(), kPinnedServiceFinal) << "actual: " << os.str();
}

TEST(ServiceTest, ReportedWeightIsTheGraphsWeight) {
  // The service reports its matching's weight from pair weights it keeps
  // across batches; after every batch it must be matching_weight() of the
  // graph and matching, bit for bit.
  const auto expect_graph_weight = [](const GraphService& service,
                                      const BatchReport& report) {
    EXPECT_EQ(hex(report.matching_weight),
              hex(matching_weight(service.graph(), service.matching())))
        << "batch " << report.batch;
  };
  {
    SCOPED_TRACE("seed-99 stream");
    const Graph g = grid_2d(48, 48, WeightKind::kUniformRandom, 7);
    ServiceOptions so;
    so.batch_window = 50;
    GraphService service(g, grid_2d_partition(48, 48, 2, 2), so);
    UpdateStreamConfig cfg;
    cfg.seed = 99;
    UpdateStreamGenerator gen(g, cfg);
    for (const EdgeUpdate& u : gen.next_batch(500)) {
      if (const auto report = service.push(u)) {
        expect_graph_weight(service, *report);
      }
    }
    EXPECT_EQ(service.history().size(), 10u);
  }

  SCOPED_TRACE("scripted batches");
  const Graph g = grid_2d(6, 6, WeightKind::kUniformRandom, 2);
  ServiceOptions manual;
  manual.batch_window = 0;
  GraphService service(g, grid_2d_partition(6, 6, 2, 1), manual);
  const auto mate = [&](VertexId v) {
    return service.matching().mate[static_cast<std::size_t>(v)];
  };
  const auto run_batch = [&](const EdgeUpdate& update) {
    (void)service.push(update);
    expect_graph_weight(service, service.refresh());
  };
  VertexId a = 0;
  while (mate(a) < a) ++a;  // the smaller end of the first matched pair
  const VertexId b = mate(a);
  const Weight w = g.edge_weight(a, b);
  // Reweighted up and back down, the pair holds and no mate changes, so
  // only the touched vertices' pair weights move.
  run_batch(reweight(a, b, w + 1.0));
  EXPECT_EQ(mate(a), b);
  run_batch(reweight(a, b, w));
  EXPECT_EQ(mate(a), b);
  // A deleted matched edge dissolves its pair.
  run_batch(erase(a, b));
  EXPECT_NE(mate(a), b);
  // The heaviest edge takes y from its mate z.
  VertexId y = 0;
  while (mate(y) == kNoVertex) ++y;
  const VertexId z = mate(y);
  VertexId x = g.num_vertices() - 1;
  while (x == z || service.graph().has_edge(x, y)) --x;
  run_batch(insert(x, y, 2.0));
  EXPECT_EQ(mate(y), x);
  EXPECT_NE(mate(z), y);
}

TEST(ServiceTest, InvalidUpdateLeavesServiceUsable) {
  const Graph g = grid_2d(6, 6, WeightKind::kUniformRandom, 2);
  const Partition p = grid_2d_partition(6, 6, 2, 1);
  ServiceOptions so;
  so.batch_window = 2;
  so.verify_batches = true;
  GraphService service(g, p, so);
  const Matching cold_matching = service.matching();
  const Coloring cold_coloring = service.coloring();

  EXPECT_FALSE(service.push(insert(0, 10, 0.5)).has_value());
  // Each rejected update throws at its own push and changes nothing.
  EXPECT_THROW((void)service.push(insert(0, 1, 0.25)), Error);  // present
  EXPECT_THROW((void)service.push(erase(0, 2)), Error);         // absent
  EXPECT_THROW((void)service.push(reweight(3, 5, 1.0)), Error); // absent
  EXPECT_THROW((void)service.push(insert(4, 4, 1.0)), Error);   // self-loop
  EXPECT_THROW((void)service.push(insert(0, 36, 1.0)), Error);  // range
  EXPECT_THROW(
      (void)service.push(insert(0, 3, std::numeric_limits<double>::quiet_NaN())),
      Error);  // non-finite weight
  EXPECT_THROW(
      (void)service.push(reweight(0, 1, std::numeric_limits<double>::infinity())),
      Error);
  EXPECT_EQ(service.pending_updates(), 1);
  EXPECT_TRUE(service.history().empty());
  EXPECT_EQ(service.graph().num_edges(), g.num_edges());
  EXPECT_EQ(service.matching().mate, cold_matching.mate);
  EXPECT_EQ(service.coloring().color, cold_coloring.color);

  // The next valid push completes the batch; later batches keep working.
  const auto report = service.push(insert(2, 9, 0.75));
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->updates, 2);
  EXPECT_FALSE(service.push(erase(0, 1)).has_value());
  EXPECT_TRUE(service.push(reweight(0, 10, 0.125)).has_value());
  EXPECT_EQ(service.history().size(), 2u);
  EXPECT_EQ(service.pending_updates(), 0);
  EXPECT_EQ(service.graph().num_edges(), g.num_edges() + 1);
  EXPECT_EQ(service.graph().edge_weight(0, 10), 0.125);

  const DistGraph dist = DistGraph::build(service.graph(), p);
  EXPECT_EQ(service.matching().mate,
            match_distributed(dist, so.matching).matching.mate);
  EXPECT_EQ(service.coloring().color,
            color_canonical(dist, so.coloring).coloring.color);
}

TEST(ServiceTest, BatchWindowCoalesces) {
  const Graph g = grid_2d(6, 6, WeightKind::kUniformRandom, 2);
  const Partition p = grid_2d_partition(6, 6, 2, 1);
  ServiceOptions so;
  so.batch_window = 4;
  so.verify_batches = true;
  GraphService service(g, p, so);

  UpdateStreamConfig cfg;
  cfg.seed = 5;
  UpdateStreamGenerator gen(g, cfg);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(service.push(gen.next()).has_value());
    EXPECT_EQ(service.pending_updates(), i + 1);
  }
  const auto report = service.push(gen.next());
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->updates, 4);
  EXPECT_EQ(service.pending_updates(), 0);
  EXPECT_EQ(service.history().size(), 1u);

  // window 0 disables auto-refresh; explicit refresh() flushes.
  ServiceOptions manual;
  manual.batch_window = 0;
  GraphService svc2(g, p, manual);
  for (int i = 0; i < 7; ++i) EXPECT_FALSE(svc2.push(gen.next()).has_value());
  EXPECT_EQ(svc2.pending_updates(), 7);
  EXPECT_EQ(svc2.refresh().updates, 7);
  EXPECT_EQ(svc2.pending_updates(), 0);
}

}  // namespace
}  // namespace pmc
