// Pinned-value determinism regression.
//
// The comm-fabric refactor (runtime/fabric.hpp) is required to be
// bit-identical to the pre-fabric engines: same seed => same modelled time,
// message count, volume and record count. These scenarios were captured on
// the original engines and must keep reproducing to the last bit. If an
// intentional cost-model or protocol change moves them, re-pin the constants
// in the same change and say why.
//
// Re-pinned once for the compact wire codec (varint + delta encoding is the
// default, frames carry a header and checksum, and the α–β/LogP cost is
// charged on the encoded bytes): volumes shrink ~45-65%, so modelled times
// and — where arrival order feeds back into bundling or retries — message
// and record counts move with them.
//
// Re-pinned a second time for the D1 lint migration (pmc-lint): bundled
// matching records and the verifiers' boundary exchanges now flush in
// ascending destination order (sorted snapshot) instead of unordered_map
// bucket order. Message/byte/record totals of clean runs are unchanged — only the
// schedule (and therefore modelled times, and under faults the
// seq-number-derived verdicts) moves. Unbundled (eager) scenarios are
// untouched by construction.
//
// The snapshot-harvest async supersteps (run_ranks_snapshot) and the
// records-based receive charge did NOT move these pins: the snapshot path
// reproduces sequential poll visibility exactly (DESIGN.md §5d), and every
// pre-existing pinned scenario colors interior vertices first with large
// supersteps, so its mid-superstep polls deliver nothing and the receive
// charge never fires. SnapshotAsyncColoringScenarios below pins a
// small-superstep boundary-first schedule where polls do deliver.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/pmc.hpp"
#include "partition/simple.hpp"
#include "runtime/serialize.hpp"

namespace pmc {
namespace {

/// Thread counts every pinned scenario must reproduce byte-identically at.
/// 1 runs the sequential backend; 2 and 4 run the work-stealing pool (4
/// oversubscribes the CI box on purpose — determinism may not depend on the
/// scheduler giving every worker a core).
constexpr int kThreadSweep[] = {1, 2, 4};

/// Hexfloat round-trips doubles exactly, so two fingerprints compare equal
/// iff every field is bit-identical.
std::string fingerprint(const RunResult& run, int rounds) {
  std::ostringstream os;
  os << std::hexfloat;
  os << run.sim_seconds << '|' << run.comm.messages << '|' << run.comm.bytes
     << '|' << run.comm.records << '|' << run.comm.collectives << '|'
     << rounds;
  os << '|' << run.load.min_seconds << '|' << run.load.max_seconds << '|'
     << run.load.mean_seconds;
  const FaultStats f = run.breakdown.total_faults();
  os << '|' << f.drops << '|' << f.duplicates << '|' << f.retries << '|'
     << f.backoff_seconds;
  return os.str();
}

struct Pinned {
  double sim_seconds;
  std::int64_t messages;
  std::int64_t bytes;
  std::int64_t records;
  std::int64_t collectives;
  int rounds;
};

void expect_pinned(const RunResult& run, int rounds, const Pinned& pin) {
  // Exact comparisons on purpose: the simulation is deterministic, so any
  // drift at all means the modelled semantics changed.
  EXPECT_EQ(run.sim_seconds, pin.sim_seconds);
  EXPECT_EQ(run.comm.messages, pin.messages);
  EXPECT_EQ(run.comm.bytes, pin.bytes);
  EXPECT_EQ(run.comm.records, pin.records);
  EXPECT_EQ(run.comm.collectives, pin.collectives);
  EXPECT_EQ(rounds, pin.rounds);
}

TEST(DeterminismRegression, DistributedMatchingScenarios) {
  const Graph g = grid_2d(48, 48, WeightKind::kUniformRandom, 61);
  Rank pr = 0, pc = 0;
  factor_processor_grid(8, pr, pc);
  const Partition p = grid_2d_partition(48, 48, pr, pc);
  const DistGraph dist = DistGraph::build(g, p);

  DistMatchingOptions bundled;
  const auto rb = match_distributed(dist, bundled);
  expect_pinned(rb.run, rb.max_activations,
                {7.0255800000003265e-05, 42, 2900, 370, 0, 8});

  DistMatchingOptions unbundled;
  unbundled.bundled = false;
  const auto ru = match_distributed(dist, unbundled);
  expect_pinned(ru.run, ru.max_activations,
                {0.00014883220000000067, 370, 15902, 370, 0, 59});

  DistMatchingOptions jittered;
  jittered.jitter_seconds = 2e-6;
  jittered.jitter_seed = 7;
  const auto rj = match_distributed(dist, jittered);
  expect_pinned(rj.run, rj.max_activations,
                {7.2780338560580251e-05, 42, 2900, 370, 0, 8});

  // Bundling and jitter change the schedule, never the matching itself.
  EXPECT_EQ(rb.matching.mate, ru.matching.mate);
  EXPECT_EQ(rb.matching.mate, rj.matching.mate);
}

TEST(DeterminismRegression, DistributedColoringScenarios) {
  const Graph g = circuit_like(2000, 4000, 6, WeightKind::kUnit, 62);
  const Partition p =
      multilevel_partition(g, 8, MultilevelConfig::metis_like(3));
  const DistGraph dist = DistGraph::build(g, p);

  const auto rn = color_distributed(dist, DistColoringOptions::improved());
  expect_pinned(rn.run, rn.rounds,
                {0.0001314047999999999, 87, 4373, 423, 6, 3});

  const auto rf = color_distributed(dist, DistColoringOptions::fiab());
  expect_pinned(rf.run, rf.rounds,
                {0.00016563790000000017, 231, 14392, 2821, 6, 3});

  const auto rc = color_distributed(dist, DistColoringOptions::fiac());
  expect_pinned(rc.run, rc.rounds,
                {0.00014416809999999989, 119, 5397, 423, 6, 3});
}

// Fault-injection scenarios. The fault layer is deterministic in
// (fault seed, send sequence), so faulty runs pin exactly like clean ones —
// including the recovery traffic (retries, backoff, re-entries).
struct PinnedFaults {
  std::int64_t drops;
  std::int64_t duplicates;
  std::int64_t retries;
  double backoff_seconds;
};

void expect_pinned_faults(const RunResult& run, const PinnedFaults& pin) {
  const FaultStats f = run.breakdown.total_faults();
  EXPECT_EQ(f.drops, pin.drops);
  EXPECT_EQ(f.duplicates, pin.duplicates);
  EXPECT_EQ(f.retries, pin.retries);
  EXPECT_EQ(f.backoff_seconds, pin.backoff_seconds);
}

/// 64-bit FNV-1a over 64-bit words fed little-endian, so a fingerprint
/// names the same values on any host.
class Fnv64 {
 public:
  void add(std::uint64_t word) noexcept {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// What a coloring run decides beyond its traffic: the colors, how many
// vertices each round recolored or re-entered, and how each rank's charged
// compute splits between interior and boundary work (the split follows the
// driver's boundary classification, so a change to it shows here even when
// the totals hold).
struct PinnedColoring {
  std::uint64_t colors;  ///< Fnv64 of the color vector.
  std::vector<EdgeId> conflicts_per_round;
  std::int64_t fault_reentries;
  std::vector<double> interior_seconds;
  std::vector<double> boundary_seconds;
};

void expect_pinned_coloring(const DistColoringResult& r,
                            const PinnedColoring& pin) {
  Fnv64 h;
  for (const Color c : r.coloring.color) h.add(static_cast<std::uint64_t>(c));
  EXPECT_EQ(h.value(), pin.colors);
  EXPECT_EQ(r.conflicts_per_round, pin.conflicts_per_round);
  EXPECT_EQ(r.fault_reentries, pin.fault_reentries);
  EXPECT_EQ(r.run.breakdown.interior_seconds, pin.interior_seconds);
  EXPECT_EQ(r.run.breakdown.boundary_seconds, pin.boundary_seconds);
}

TEST(DeterminismRegression, FaultInjectedMatchingScenarios) {
  const Graph g = grid_2d(48, 48, WeightKind::kUniformRandom, 61);
  Rank pr = 0, pc = 0;
  factor_processor_grid(8, pr, pc);
  const Partition p = grid_2d_partition(48, 48, pr, pc);
  const DistGraph dist = DistGraph::build(g, p);

  DistMatchingOptions faulty;
  faulty.faults.drop_rate = 0.05;
  faulty.faults.duplicate_rate = 0.02;
  faulty.faults.seed = 14;
  const auto rf = match_distributed(dist, faulty);
  expect_pinned(rf.run, rf.max_activations,
                {9.322750000000259e-05, 87, 5416, 375, 0, 8});
  expect_pinned_faults(rf.run, {2, 1, 2, 7.0875999999990476e-06});

  // Jitter and injected delay compose with drops/duplicates; the combined
  // schedule still pins.
  DistMatchingOptions both = faulty;
  both.jitter_seconds = 2e-6;
  both.jitter_seed = 7;
  both.faults.delay_rate = 0.25;
  both.faults.max_extra_delay_seconds = 1e-5;
  const auto rj = match_distributed(dist, both);
  expect_pinned(rj.run, rj.max_activations,
                {0.00010581414528883152, 94, 5903, 420, 0, 8});
  expect_pinned_faults(rj.run, {2, 1, 5, 3.2837641613341976e-05});

  // Faults never change the matching itself: the transport recovers every
  // lost record and the locally-dominant matching is unique.
  const auto clean = match_distributed(dist, DistMatchingOptions{});
  EXPECT_EQ(rf.matching.mate, clean.matching.mate);
  EXPECT_EQ(rj.matching.mate, clean.matching.mate);
}

// Heavy reordering under the reliable transport: half the messages are
// delayed by up to ~3 latencies, a fifth are duplicated and a tenth dropped,
// so the receiver sees data above its delivered floor (a retransmission
// overtaken by later sends), and duplicates long after the floor passed
// them. Every FaultStats field is pinned, including the suppressions.
TEST(DeterminismRegression, HeavyReorderingEagerMatchingScenario) {
  const Graph g = grid_2d(32, 32, WeightKind::kUniformRandom, 64);
  Rank pr = 0, pc = 0;
  factor_processor_grid(8, pr, pc);
  const Partition p = grid_2d_partition(32, 32, pr, pc);
  const DistGraph dist = DistGraph::build(g, p);

  DistMatchingOptions reorder;
  reorder.bundled = false;
  reorder.faults.delay_rate = 0.5;
  reorder.faults.duplicate_rate = 0.2;
  reorder.faults.drop_rate = 0.1;
  reorder.faults.max_extra_delay_seconds = 1e-5;
  reorder.faults.seed = 23;
  const auto clean = match_distributed(dist, DistMatchingOptions{});
  for (const int threads : kThreadSweep) {
    reorder.exec.threads = threads;
    const auto r = match_distributed(dist, reorder);
    const FaultStats f = r.run.breakdown.total_faults();
    EXPECT_EQ(r.run.sim_seconds, 0.00038074730000000066)
        << "threads=" << threads;
    EXPECT_EQ(r.run.comm.messages, 1128) << "threads=" << threads;
    EXPECT_EQ(f.drops, 109) << "threads=" << threads;
    EXPECT_EQ(f.duplicates, 234) << "threads=" << threads;
    EXPECT_EQ(f.dup_suppressed, 337) << "threads=" << threads;
    EXPECT_EQ(f.corruptions, 0) << "threads=" << threads;
    EXPECT_EQ(f.corruptions_detected, 0) << "threads=" << threads;
    EXPECT_EQ(f.retries, 291) << "threads=" << threads;
    EXPECT_EQ(f.backoff_seconds, 6.7794175042172687e-05)
        << "threads=" << threads;
    EXPECT_EQ(r.matching.mate, clean.matching.mate) << "threads=" << threads;
  }
}

// The eager-faults workload's mix on an eager matching: drops, duplicates,
// corruption and jitter, so garbled data and acks are rejected and recovered
// by retries. The second run gives each message one attempt: every first try
// is the fault-exempt final one, retired when it is sent, and arms no timer
// (acks still cross the lossy fabric). Every FaultStats field is pinned.
TEST(DeterminismRegression, EagerFaultsMixMatchingScenario) {
  const Graph g = grid_2d(64, 64, WeightKind::kUniformRandom, 66);
  const Partition p = grid_2d_partition(64, 64, 4, 4);
  const DistGraph dist = DistGraph::build(g, p);

  DistMatchingOptions mix;
  mix.bundled = false;
  mix.jitter_seconds = 2e-6;
  mix.jitter_seed = 29;
  mix.faults.drop_rate = 0.05;
  mix.faults.duplicate_rate = 0.02;
  mix.faults.corrupt_rate = 0.01;
  mix.faults.seed = 29;
  DistMatchingOptions one_try = mix;
  one_try.faults.max_attempts = 1;

  struct Pin {
    double sim_seconds;
    std::int64_t messages;
    std::int64_t bytes;
    FaultStats faults;
  };
  const Pin kMix{0.00045029673747981944,
                 3040,
                 151222,
                 {157, 46, 757, 28, 28, 821, 0.00010732795289283061}};
  // Data is never lost, duplicated or garbled here; what faults remain
  // struck acks, and no ack is awaited.
  const Pin kOneTry{0.00023956378865615247, 1464, 72655,
                    {43, 6, 0, 2, 2, 0, 0.0}};
  const auto clean = match_distributed(dist, DistMatchingOptions{});
  for (const int threads : {1, 3}) {
    for (const auto& [opts, pin] :
         {std::pair{mix, kMix}, std::pair{one_try, kOneTry}}) {
      DistMatchingOptions run_opts = opts;
      run_opts.exec.threads = threads;
      const auto r = match_distributed(dist, run_opts);
      const FaultStats f = r.run.breakdown.total_faults();
      const std::string where =
          "threads=" + std::to_string(threads) +
          " max_attempts=" + std::to_string(opts.faults.max_attempts);
      EXPECT_EQ(r.run.sim_seconds, pin.sim_seconds) << where;
      EXPECT_EQ(r.run.comm.messages, pin.messages) << where;
      EXPECT_EQ(r.run.comm.bytes, pin.bytes) << where;
      EXPECT_EQ(f.drops, pin.faults.drops) << where;
      EXPECT_EQ(f.duplicates, pin.faults.duplicates) << where;
      EXPECT_EQ(f.dup_suppressed, pin.faults.dup_suppressed) << where;
      EXPECT_EQ(f.corruptions, pin.faults.corruptions) << where;
      EXPECT_EQ(f.corruptions_detected, pin.faults.corruptions_detected)
          << where;
      EXPECT_EQ(f.retries, pin.faults.retries) << where;
      EXPECT_EQ(f.backoff_seconds, pin.faults.backoff_seconds) << where;
      EXPECT_EQ(r.matching.mate, clean.matching.mate) << where;
    }
  }
}

// Rows far longer than the benchmark workloads' (at most 7 arcs):
// complete(17)'s rows hold 16 arcs, complete(18)'s 17, star(50)'s centre 49,
// and rmat(10, 8) mixes hub rows with short ones. Each graph runs bundled,
// eager, and eager under eager-faults' fault mix on four ranks; one service
// batch on the rmat graph repairs to the full recompute. Captured while
// every row was sorted: a scan must charge exactly what the sorted walk
// charged.
TEST(DeterminismRegression, LongRowMatchingScenarios) {
  DistMatchingOptions bundled;
  DistMatchingOptions eager;
  eager.bundled = false;
  DistMatchingOptions faulty = eager;
  faulty.jitter_seconds = 2e-6;
  faulty.jitter_seed = 31;
  faulty.faults.drop_rate = 0.05;
  faulty.faults.duplicate_rate = 0.02;
  faulty.faults.corrupt_rate = 0.01;
  faulty.faults.seed = 31;

  struct Case {
    const char* name;
    Graph graph;
    Pinned bundled, eager, faulty;
    double faulty_mean_charge;  ///< Charged compute per rank, faulty run.
  };
  const Case cases[] = {
      {"complete(17)",
       complete(17),
       {3.6383200000000001e-05, 42, 1809, 57, 0, 11},
       {3.7613600000000124e-05, 55, 2310, 55, 0, 15},
       {7.0450077094669954e-05, 119, 5826, 59, 0, 15},
       3.1549999999999884e-06},
      {"complete(18)",
       complete(18),
       {3.7271300000000037e-05, 39, 1701, 60, 0, 11},
       {4.1347000000000063e-05, 61, 2562, 61, 0, 16},
       {6.7871652018527766e-05, 141, 6914, 71, 0, 16},
       3.4799999999999853e-06},
      {"star(50)",
       star(50),
       {1.4755899999999973e-05, 6, 354, 40, 0, 3},
       {2.3393399999999995e-05, 40, 1680, 40, 0, 37},
       {0.00010610755947728943, 128, 6282, 65, 0, 37},
       1.419999999999997e-06},
      {"rmat(10, 8)",
       rmat(10, 8),
       {0.00038103489999991957, 210, 15730, 1702, 0, 66},
       {0.0010558349000000028, 1711, 74878, 1711, 0, 723},
       {0.005876029455131361, 9752, 487922, 4999, 0, 699},
       0.00013911499999998603},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const Partition p = cyclic_partition(c.graph.num_vertices(), 4);
    const DistGraph dist = DistGraph::build(c.graph, p);
    const Matching reference = locally_dominant_matching(c.graph);
    const auto rb = match_distributed(dist, bundled);
    expect_pinned(rb.run, rb.max_activations, c.bundled);
    EXPECT_EQ(rb.matching.mate, reference.mate);
    const auto re = match_distributed(dist, eager);
    expect_pinned(re.run, re.max_activations, c.eager);
    EXPECT_EQ(re.matching.mate, reference.mate);
    const auto rf = match_distributed(dist, faulty);
    expect_pinned(rf.run, rf.max_activations, c.faulty);
    EXPECT_EQ(rf.run.load.mean_seconds, c.faulty_mean_charge);
    EXPECT_EQ(rf.matching.mate, reference.mate);
  }

  // One 16-update batch on the rmat graph: the invalidated hub rows are
  // ordered again and re-enter candidate selection.
  const Graph& g = cases[3].graph;
  const Partition p = cyclic_partition(g.num_vertices(), 4);
  const Matching before =
      match_distributed(DistGraph::build(g, p), bundled).matching;
  UpdateStreamConfig stream;
  stream.seed = 31;
  UpdateStreamGenerator updates(g, stream);
  const std::vector<EdgeUpdate> batch = updates.next_batch(16);
  DynamicGraph dyn(g);
  for (const EdgeUpdate& e : batch) dyn.apply(e);
  const std::vector<VertexId> touched = dyn.commit().ids;
  const DistGraph after = DistGraph::build(dyn.folded(), p);
  const IncrementalMatchResult inc =
      match_incremental(after, before, touched, bundled);
  EXPECT_EQ(inc.matching.mate,
            match_distributed(after, bundled).matching.mate);
  expect_pinned(inc.run, inc.max_activations,
                {0.00026961249999997764, 211, 12811, 1307, 0, 63});
  EXPECT_EQ(inc.invalidated, 375);
}

TEST(DeterminismRegression, FaultInjectedColoringScenario) {
  const Graph g = circuit_like(2000, 4000, 6, WeightKind::kUnit, 62);
  const Partition p =
      multilevel_partition(g, 8, MultilevelConfig::metis_like(3));
  const DistGraph dist = DistGraph::build(g, p);

  auto opt = DistColoringOptions::improved();
  opt.faults.drop_rate = 0.05;
  opt.faults.duplicate_rate = 0.02;
  opt.faults.seed = 14;
  const auto r = color_distributed(dist, opt);
  expect_pinned(r.run, r.rounds,
                {0.0001327085999999999, 89, 4467, 430, 6, 3});
  expect_pinned_faults(r.run, {2, 1, 0, 0.0});
  EXPECT_EQ(r.fault_reentries, 7);
}

TEST(DeterminismRegression, FaultInjectedDistance2Scenario) {
  const Graph g = grid_2d(20, 20, WeightKind::kUnit, 63);
  const Partition p = grid_2d_partition(20, 20, 2, 2);
  DistColoringOptions opt;
  opt.faults.drop_rate = 0.20;
  opt.faults.duplicate_rate = 0.10;
  opt.faults.seed = 15;
  const auto r = color_distance2_distributed_native(g, p, opt);
  expect_pinned(r.run, r.rounds,
                {0.0001641873999999995, 34, 1909, 276, 8, 4});
  expect_pinned_faults(r.run, {5, 1, 0, 0.0});
  expect_pinned_coloring(
      r, {0x6a9e39ff753febebULL,
          {25, 2, 0, 0},
          62,
          {0x1.48298f7075defp-16, 0x1.48298f7075defp-16,
           0x1.48298f7075df2p-16, 0x1.48298f7075df2p-16},
          {0x1.c4fc1df3300e2p-16, 0x1.ff08b42e9b494p-16,
           0x1.7dd974a5ef3d7p-15, 0x1.9454b63aba106p-16}});
}

TEST(DeterminismRegression, Distance2ColoringScenario) {
  const Graph g = grid_2d(20, 20, WeightKind::kUnit, 63);
  const Partition p = grid_2d_partition(20, 20, 2, 2);
  const auto rd = color_distance2_distributed_native(g, p, {});
  expect_pinned(rd.run, rd.rounds,
                {0.00011569199999999996, 25, 1410, 206, 6, 3});
  expect_pinned_coloring(
      rd, {0x71558dec33242b87ULL,
           {31, 2, 0},
           0,
           {0x1.48298f7075defp-16, 0x1.48298f7075defp-16,
            0x1.48298f7075df2p-16, 0x1.48298f7075df2p-16},
           {0x1.bf9dba3aa3eb1p-16, 0x1.ff08b42e9b494p-16,
            0x1.ceb732b1ae0dbp-16, 0x1.a36e2eb1c432fp-16}});

  // 16-vertex supersteps: several per round, so mid-round polls deliver.
  DistColoringOptions small;
  small.superstep_size = 16;
  const auto rs = color_distance2_distributed_native(g, p, small);
  expect_pinned_coloring(
      rs, {0xa58e4a56f3cc2fa6ULL,
           {14, 0},
           0,
           {0x1.48298f7075defp-16, 0x1.48298f7075defp-16,
            0x1.48298f7075df2p-16, 0x1.48298f7075df2p-16},
           {0x1.add50fe753b6fp-16, 0x1.b333739fdfd9fp-16,
            0x1.afd8754c88441p-16, 0x1.aacff7cf84e33p-16}});
}

// Pins for the snapshot-harvest asynchronous supersteps where mid-round
// polls really deliver messages: boundary-first ordering sends boundary
// colors in the earliest supersteps and 16-vertex supersteps (~1.6us) are
// shorter than the modelled latency (3.5us), so announcements land two to
// three supersteps later — mid-round, before the round-end drain. The
// schedule exercises both run_ranks_snapshot branches: the superstep after
// every allreduce starts from equalized clocks (always safe, parallel) and
// later supersteps diverge (sequential live-poll fallback).
TEST(DeterminismRegression, SnapshotAsyncColoringScenarios) {
  const Graph g = circuit_like(2000, 4000, 6, WeightKind::kUnit, 62);
  const Partition p =
      multilevel_partition(g, 8, MultilevelConfig::metis_like(3));
  const DistGraph dist = DistGraph::build(g, p);

  auto opt = DistColoringOptions::improved();
  opt.superstep_size = 16;
  opt.local_order = LocalOrder::kBoundaryFirst;
  const auto r = color_distributed(dist, opt);
  expect_pinned(r.run, r.rounds,
                {0.00013699520000000023, 122, 5738, 416, 6, 3});
  EXPECT_GT(r.snapshot_parallel_supersteps, 0);
  EXPECT_GT(r.snapshot_fallback_supersteps, 0);
  EXPECT_EQ(r.snapshot_parallel_supersteps + r.snapshot_fallback_supersteps,
            r.total_supersteps);

  auto faulty = opt;
  faulty.faults.drop_rate = 0.05;
  faulty.faults.duplicate_rate = 0.02;
  faulty.faults.seed = 14;
  const auto rf = color_distributed(dist, faulty);
  expect_pinned(rf.run, rf.rounds,
                {0.00013696060000000025, 124, 5829, 421, 6, 3});
  expect_pinned_faults(rf.run, {4, 2, 0, 0.0});
  EXPECT_EQ(rf.fault_reentries, 6);
  EXPECT_GT(rf.snapshot_fallback_supersteps, 0);
  expect_pinned_coloring(
      rf, {0xab1b35c1912b5367ULL,
           {61, 1, 0},
           6,
           {0x1.335bcd0556d66p-16, 0x1.7d838e6a6679fp-16,
            0x1.56973b706e7c2p-16, 0x1.32b0008e4551dp-16,
            0x1.4b2ea78844b1cp-16, 0x1.421f5f40d836bp-16,
            0x1.6255b5942109p-16, 0x1.5fa683b7daf75p-16},
           {0x1.09c0482f18c75p-17, 0x1.376297cfbff15p-17,
            0x1.4376f82efb402p-17, 0x1.6255b5942109fp-17,
            0x1.6255b59421096p-17, 0x1.c04986b1b56f5p-17,
            0x1.3305e6c9ce144p-16, 0x1.2ca5d05ea7ab3p-17}});
}

// Pins for the two verifier boundary exchanges fixed by the D1 lint
// migration: their phase-1 sends used to walk an unordered_map in bucket
// order, so the message sequence depended on the standard library's hash
// layout. They now flush in ascending destination order; these pins hold
// that schedule (message count, volume, record count, modelled time) fixed.
TEST(DeterminismRegression, VerifierSendPathScenarios) {
  const Graph g = circuit_like(1500, 3000, 5, WeightKind::kUnit, 44);
  const Partition p =
      multilevel_partition(g, 6, MultilevelConfig::metis_like(2));
  const DistGraph dist = DistGraph::build(g, p);

  const Matching m = match_distributed(dist).matching;
  const auto vm = verify_matching_distributed(dist, m,
                                              MachineModel::blue_gene_p(),
                                              ExecConfig{1});
  EXPECT_EQ(vm.violations, 0);
  expect_pinned(vm.run, 0, {6.4322800000000014e-05, 30, 1717, 236, 2, 0});

  const auto cr = color_distributed(dist, DistColoringOptions::improved());
  const auto vc = verify_coloring_distributed(dist, cr.coloring,
                                              MachineModel::blue_gene_p(),
                                              ExecConfig{1});
  EXPECT_EQ(vc.violations, 0);
  // Identical to the matching pin on purpose: same dist graph, and every
  // per-record value (mate delta, color) happens to encode in one varint
  // byte, so both exchanges carry the same byte totals.
  expect_pinned(vc.run, 0, {6.4322800000000014e-05, 30, 1717, 236, 2, 0});
}

// Jones–Plassmann stages each round's boundary colors through an Outbox and
// sends them in ascending destination order, like the verifiers. Its pin
// holds that schedule fixed on the verifiers' input.
TEST(DeterminismRegression, JonesPlassmannScenario) {
  const Graph g = circuit_like(1500, 3000, 5, WeightKind::kUnit, 44);
  const Partition p =
      multilevel_partition(g, 6, MultilevelConfig::metis_like(2));
  const DistGraph dist = DistGraph::build(g, p);

  const auto r = color_jones_plassmann(dist);
  expect_pinned(r.run, r.rounds,
                {0.00023093520000000038, 110, 4916, 236, 9, 9});
}

// ---------------------------------------------------------------------------
// Thread-count invariance: every pinned scenario above must reproduce
// byte-identically when the rank callbacks run on the execution backend's
// thread pool. threads == 1 is the sequential baseline the pins above
// already check, so equality across the sweep keeps all pins in force at
// every thread count.

TEST(ThreadInvariance, DistributedMatchingScenarios) {
  const Graph g = grid_2d(48, 48, WeightKind::kUniformRandom, 61);
  Rank pr = 0, pc = 0;
  factor_processor_grid(8, pr, pc);
  const Partition p = grid_2d_partition(48, 48, pr, pc);
  const DistGraph dist = DistGraph::build(g, p);

  DistMatchingOptions scenarios[3];
  scenarios[1].bundled = false;
  scenarios[2].faults.drop_rate = 0.05;
  scenarios[2].faults.duplicate_rate = 0.02;
  scenarios[2].faults.seed = 14;
  scenarios[2].jitter_seconds = 2e-6;
  scenarios[2].jitter_seed = 7;
  scenarios[2].faults.delay_rate = 0.25;
  scenarios[2].faults.max_extra_delay_seconds = 1e-5;

  for (auto& opt : scenarios) {
    std::string base;
    std::vector<VertexId> base_mate;
    for (const int threads : kThreadSweep) {
      opt.exec.threads = threads;
      const auto r = match_distributed(dist, opt);
      const std::string fp = fingerprint(r.run, r.max_activations);
      if (threads == 1) {
        base = fp;
        base_mate = r.matching.mate;
      } else {
        EXPECT_EQ(fp, base) << "threads=" << threads;
        EXPECT_EQ(r.matching.mate, base_mate) << "threads=" << threads;
      }
    }
  }
}

TEST(ThreadInvariance, DistributedColoringScenarios) {
  const Graph g = circuit_like(2000, 4000, 6, WeightKind::kUnit, 62);
  const Partition p =
      multilevel_partition(g, 8, MultilevelConfig::metis_like(3));
  const DistGraph dist = DistGraph::build(g, p);

  // Async supersteps (the presets' default) run through the snapshot
  // harvest — deferred (parallel-capable) when the clock safety check
  // passes, live-poll sequential fallback when it does not; sync supersteps
  // exercise the unconditional deferred-lane merge. All must be invariant,
  // with and without faults. Scenarios [4] and [5] color boundary vertices
  // first with 16-vertex supersteps so mid-round polls really deliver
  // messages and both snapshot branches run.
  DistColoringOptions scenarios[6] = {
      DistColoringOptions::improved(), DistColoringOptions::improved(),
      DistColoringOptions::fiab(),     DistColoringOptions::fiac(),
      DistColoringOptions::improved(), DistColoringOptions::improved()};
  scenarios[1].superstep_mode = SuperstepMode::kSync;
  scenarios[1].faults.drop_rate = 0.05;
  scenarios[1].faults.duplicate_rate = 0.02;
  scenarios[1].faults.seed = 14;
  scenarios[3].superstep_mode = SuperstepMode::kSync;
  scenarios[4].superstep_size = 16;
  scenarios[4].local_order = LocalOrder::kBoundaryFirst;
  scenarios[5].superstep_size = 16;
  scenarios[5].local_order = LocalOrder::kBoundaryFirst;
  scenarios[5].faults.drop_rate = 0.05;
  scenarios[5].faults.duplicate_rate = 0.02;
  scenarios[5].faults.seed = 14;

  int scenario = 0;
  for (auto& opt : scenarios) {
    std::string base;
    std::vector<Color> base_color;
    for (const int threads : kThreadSweep) {
      opt.exec.threads = threads;
      const auto r = color_distributed(dist, opt);
      std::ostringstream os;
      os << fingerprint(r.run, r.rounds) << '#' << r.total_supersteps << '#'
         << r.fault_reentries << '#' << r.snapshot_parallel_supersteps << '#'
         << r.snapshot_fallback_supersteps;
      for (const EdgeId c : r.conflicts_per_round) os << ',' << c;
      if (opt.superstep_mode == SuperstepMode::kAsync) {
        // The safety decision is a pure function of the modelled clocks, so
        // the async path must really parallelize — at every thread count.
        EXPECT_GT(r.snapshot_parallel_supersteps, 0)
            << "threads=" << threads << " scenario=" << scenario;
      }
      if (scenario >= 4) {
        EXPECT_GT(r.snapshot_fallback_supersteps, 0)
            << "threads=" << threads << " scenario=" << scenario;
      }
      if (threads == 1) {
        base = os.str();
        base_color = r.coloring.color;
      } else {
        EXPECT_EQ(os.str(), base)
            << "threads=" << threads << " scenario=" << scenario;
        EXPECT_EQ(r.coloring.color, base_color)
            << "threads=" << threads << " scenario=" << scenario;
      }
    }
    ++scenario;
  }
}

TEST(ThreadInvariance, Distance2Scenarios) {
  const Graph g = grid_2d(20, 20, WeightKind::kUnit, 63);
  const Partition p = grid_2d_partition(20, 20, 2, 2);

  // Sync supersteps, async defaults, and async with 16-vertex supersteps
  // (multiple supersteps per round, so mid-round polls deliver and the
  // snapshot harvest exercises both its branches) — with and without
  // faults.
  DistColoringOptions scenarios[4];
  scenarios[0].superstep_mode = SuperstepMode::kSync;
  scenarios[1].superstep_mode = SuperstepMode::kSync;
  scenarios[1].faults.drop_rate = 0.20;
  scenarios[1].faults.duplicate_rate = 0.10;
  scenarios[1].faults.seed = 15;
  scenarios[2].superstep_size = 16;
  scenarios[3].superstep_size = 16;
  scenarios[3].faults.drop_rate = 0.20;
  scenarios[3].faults.duplicate_rate = 0.10;
  scenarios[3].faults.seed = 15;

  int scenario = 0;
  for (auto& opt : scenarios) {
    std::string base;
    std::vector<Color> base_color;
    for (const int threads : kThreadSweep) {
      opt.exec.threads = threads;
      const auto r = color_distance2_distributed_native(g, p, opt);
      std::ostringstream os;
      os << fingerprint(r.run, r.rounds) << '#' << r.fault_reentries << '#'
         << r.snapshot_parallel_supersteps << '#'
         << r.snapshot_fallback_supersteps;
      if (scenario >= 2) {
        EXPECT_GT(r.snapshot_parallel_supersteps, 0)
            << "threads=" << threads << " scenario=" << scenario;
        EXPECT_GT(r.snapshot_fallback_supersteps, 0)
            << "threads=" << threads << " scenario=" << scenario;
      }
      if (threads == 1) {
        base = os.str();
        base_color = r.coloring.color;
      } else {
        EXPECT_EQ(os.str(), base)
            << "threads=" << threads << " scenario=" << scenario;
        EXPECT_EQ(r.coloring.color, base_color)
            << "threads=" << threads << " scenario=" << scenario;
      }
    }
    ++scenario;
  }
}

TEST(ThreadInvariance, JonesPlassmannAndVerifiers) {
  const Graph g = circuit_like(1500, 3000, 5, WeightKind::kUnit, 44);
  const Partition p =
      multilevel_partition(g, 6, MultilevelConfig::metis_like(2));
  const DistGraph dist = DistGraph::build(g, p);

  JonesPlassmannOptions jp;
  std::string jp_base, vc_base, vm_base;
  std::vector<Color> jp_color;
  const Matching m = match_distributed(dist).matching;
  for (const int threads : kThreadSweep) {
    jp.exec.threads = threads;
    const auto r = color_jones_plassmann(dist, jp);
    const std::string fp = fingerprint(r.run, r.rounds);
    const auto vc = verify_coloring_distributed(
        dist, r.coloring, MachineModel::blue_gene_p(), ExecConfig{threads});
    EXPECT_EQ(vc.violations, 0);
    const std::string vcfp = fingerprint(vc.run, 0);
    const auto vm = verify_matching_distributed(
        dist, m, MachineModel::blue_gene_p(), ExecConfig{threads});
    EXPECT_EQ(vm.violations, 0);
    const std::string vmfp = fingerprint(vm.run, 0);
    if (threads == 1) {
      jp_base = fp;
      jp_color = r.coloring.color;
      vc_base = vcfp;
      vm_base = vmfp;
    } else {
      EXPECT_EQ(fp, jp_base) << "threads=" << threads;
      EXPECT_EQ(r.coloring.color, jp_color) << "threads=" << threads;
      EXPECT_EQ(vcfp, vc_base) << "threads=" << threads;
      EXPECT_EQ(vmfp, vm_base) << "threads=" << threads;
    }
  }
}

TEST(ThreadInvariance, TraceOutputIsByteIdentical) {
  const Graph g = circuit_like(2000, 4000, 6, WeightKind::kUnit, 62);
  const Partition p =
      multilevel_partition(g, 8, MultilevelConfig::metis_like(3));
  const DistGraph dist = DistGraph::build(g, p);

  auto opt = DistColoringOptions::improved();
  opt.superstep_mode = SuperstepMode::kSync;
  opt.faults.drop_rate = 0.05;
  opt.faults.duplicate_rate = 0.02;
  opt.faults.seed = 14;

  std::string base;
  for (const int threads : kThreadSweep) {
    const std::string path = testing::TempDir() + "pmc_thread_trace_" +
                             std::to_string(threads) + ".jsonl";
    opt.trace.jsonl_path = path;
    opt.exec.threads = threads;
    (void)color_distributed(dist, opt);
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ostringstream contents;
    contents << in.rdbuf();
    ASSERT_FALSE(contents.str().empty());
    if (threads == 1) {
      base = contents.str();
    } else {
      EXPECT_EQ(contents.str(), base) << "threads=" << threads;
    }
  }
}

TEST(ThreadInvariance, AsyncMatchingTraceIsByteIdentical) {
  // The windowed event engine must reproduce the sequential JSONL trace to
  // the byte at every thread count — event order, send sequencing, fault
  // verdicts, retry/backoff notes and all — with and without faults.
  const Graph g = grid_2d(32, 32, WeightKind::kUniformRandom, 61);
  const Partition p = grid_2d_partition(32, 32, 2, 4);
  const DistGraph dist = DistGraph::build(g, p);

  DistMatchingOptions scenarios[2];
  scenarios[1].faults.drop_rate = 0.05;
  scenarios[1].faults.duplicate_rate = 0.02;
  scenarios[1].faults.seed = 14;
  scenarios[1].jitter_seconds = 2e-6;
  scenarios[1].jitter_seed = 7;

  int scenario = 0;
  for (auto& opt : scenarios) {
    std::string base_trace;
    std::string base_fp;
    for (const int threads : kThreadSweep) {
      const std::string path = testing::TempDir() + "pmc_async_trace_" +
                               std::to_string(scenario) + "_" +
                               std::to_string(threads) + ".jsonl";
      opt.trace.jsonl_path = path;
      opt.exec.threads = threads;
      const auto r = match_distributed(dist, opt);
      const std::string fp = fingerprint(r.run, r.max_activations);
      std::ifstream in(path, std::ios::binary);
      ASSERT_TRUE(in.good());
      std::ostringstream contents;
      contents << in.rdbuf();
      ASSERT_FALSE(contents.str().empty());
      if (threads == 1) {
        base_trace = contents.str();
        base_fp = fp;
      } else {
        EXPECT_EQ(contents.str(), base_trace)
            << "threads=" << threads << " scenario=" << scenario;
        EXPECT_EQ(fp, base_fp)
            << "threads=" << threads << " scenario=" << scenario;
      }
    }
    ++scenario;
  }
}

TEST(ThreadInvariance, AsyncColoringTraceIsByteIdentical) {
  // Snapshot-harvested async supersteps must reproduce the sequential JSONL
  // trace to the byte at every thread count — send sequencing, fault
  // verdicts, work-phase attribution and all — in a schedule where
  // mid-round polls deliver messages and both snapshot branches run.
  const Graph g = circuit_like(2000, 4000, 6, WeightKind::kUnit, 62);
  const Partition p =
      multilevel_partition(g, 8, MultilevelConfig::metis_like(3));
  const DistGraph dist = DistGraph::build(g, p);

  DistColoringOptions scenarios[2] = {DistColoringOptions::improved(),
                                      DistColoringOptions::improved()};
  for (auto& opt : scenarios) {
    opt.superstep_size = 16;
    opt.local_order = LocalOrder::kBoundaryFirst;
  }
  scenarios[1].faults.drop_rate = 0.05;
  scenarios[1].faults.duplicate_rate = 0.02;
  scenarios[1].faults.seed = 14;

  int scenario = 0;
  for (auto& opt : scenarios) {
    std::string base_trace;
    std::string base_fp;
    for (const int threads : kThreadSweep) {
      const std::string path = testing::TempDir() + "pmc_async_color_trace_" +
                               std::to_string(scenario) + "_" +
                               std::to_string(threads) + ".jsonl";
      opt.trace.jsonl_path = path;
      opt.exec.threads = threads;
      const auto r = color_distributed(dist, opt);
      EXPECT_GT(r.snapshot_parallel_supersteps, 0);
      EXPECT_GT(r.snapshot_fallback_supersteps, 0);
      const std::string fp = fingerprint(r.run, r.rounds);
      std::ifstream in(path, std::ios::binary);
      ASSERT_TRUE(in.good());
      std::ostringstream contents;
      contents << in.rdbuf();
      ASSERT_FALSE(contents.str().empty());
      if (threads == 1) {
        base_trace = contents.str();
        base_fp = fp;
      } else {
        EXPECT_EQ(contents.str(), base_trace)
            << "threads=" << threads << " scenario=" << scenario;
        EXPECT_EQ(fp, base_fp)
            << "threads=" << threads << " scenario=" << scenario;
      }
    }
    ++scenario;
  }
}

/// A trace file's line count and the FNV-1a of its bytes.
std::pair<std::int64_t, std::uint32_t> trace_pin(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream contents;
  contents << in.rdbuf();
  const std::string text = contents.str();
  return {std::count(text.begin(), text.end(), '\n'),
          fnv1a32(std::as_bytes(std::span(text)))};
}

// The JSONL trace's bytes, pinned: a line kind, field order or number
// format that moves changes them. The eager matching writes every line
// kind but `collective`; the async coloring adds collectives and the BSP
// engine's own suppression and rejection notes. Captured while each line
// was built in its own std::ostringstream.
TEST(DeterminismRegression, TraceFilesArePinned) {
  const Graph grid = grid_2d(64, 64, WeightKind::kUniformRandom, 66);
  const DistGraph grid_dist =
      DistGraph::build(grid, grid_2d_partition(64, 64, 4, 4));
  DistMatchingOptions eager;
  eager.bundled = false;
  eager.jitter_seconds = 2e-6;
  eager.jitter_seed = 29;
  eager.faults.drop_rate = 0.05;
  eager.faults.duplicate_rate = 0.02;
  eager.faults.corrupt_rate = 0.01;
  eager.faults.delay_rate = 0.1;
  eager.faults.max_extra_delay_seconds = 5e-6;
  eager.faults.stalls.push_back(StallWindow{3, 1e-5, 2e-5});
  eager.faults.seed = 29;

  const Graph circuit = circuit_like(2000, 4000, 6, WeightKind::kUnit, 62);
  const DistGraph circuit_dist = DistGraph::build(
      circuit,
      multilevel_partition(circuit, 8, MultilevelConfig::metis_like(3)));
  auto async = DistColoringOptions::improved();
  async.superstep_size = 16;
  async.local_order = LocalOrder::kBoundaryFirst;
  async.faults.drop_rate = 0.05;
  async.faults.duplicate_rate = 0.02;
  async.faults.corrupt_rate = 0.02;
  async.faults.seed = 14;

  for (const int threads : {1, 3}) {
    const std::string where = "threads=" + std::to_string(threads);
    eager.exec.threads = threads;
    eager.trace.jsonl_path = testing::TempDir() + "pmc_pinned_eager.jsonl";
    (void)match_distributed(grid_dist, eager);
    EXPECT_EQ(trace_pin(eager.trace.jsonl_path),
              std::pair(std::int64_t{5627}, std::uint32_t{0x94e5544d}))
        << where;
    async.exec.threads = threads;
    async.trace.jsonl_path = testing::TempDir() + "pmc_pinned_async.jsonl";
    (void)color_distributed(circuit_dist, async);
    EXPECT_EQ(trace_pin(async.trace.jsonl_path),
              std::pair(std::int64_t{150}, std::uint32_t{0x1a7dd462}))
        << where;
  }
}

// ---------------------------------------------------------------------------
// Codec invariance of modelled *work*: the wire codec changes how many bytes
// cross the fabric (and therefore transfer times), but never which records a
// rank applies — so the charged-compute side of a run must not move between
// the fixed and compact codecs. The async receive charge used to be
// payload.size()/12, which silently tied modelled compute to the encoding.

void expect_same_work(const DistColoringResult& a,
                      const DistColoringResult& b) {
  // Exact per-rank vectors, not totals: a compensating error (one rank
  // overcharged, another undercharged) must not pass.
  // (load_stats is deliberately not compared: it accumulates interior and
  // boundary charges into one per-rank total in execution order, and the
  // codec's different transfer times can shift *when* a receive charge
  // lands between coloring charges — same values, different floating-point
  // summation order in the combined accumulator. The per-phase breakdown
  // vectors are the codec-invariance contract.)
  EXPECT_EQ(a.run.breakdown.interior_seconds, b.run.breakdown.interior_seconds);
  EXPECT_EQ(a.run.breakdown.boundary_seconds, b.run.breakdown.boundary_seconds);
  EXPECT_EQ(a.run.breakdown.other_seconds, b.run.breakdown.other_seconds);
  EXPECT_EQ(a.coloring.color, b.coloring.color);
  EXPECT_EQ(a.run.comm.records, b.run.comm.records);
  // The codecs must still genuinely differ on the wire for the comparison
  // to mean anything.
  EXPECT_NE(a.run.comm.bytes, b.run.comm.bytes);
}

/// Offsets, adjacency and weight bits of g's CSR.
std::uint64_t csr_fingerprint(const Graph& g) {
  Fnv64 h;
  h.add(static_cast<std::uint64_t>(g.num_vertices()));
  for (VertexId v = 0; v <= g.num_vertices(); ++v) {
    h.add(static_cast<std::uint64_t>(
        v < g.num_vertices() ? g.offset_begin(v) : g.num_arcs()));
  }
  for (EdgeId e = 0; e < g.num_arcs(); ++e) {
    h.add(static_cast<std::uint64_t>(g.arc_target(e)));
  }
  if (g.has_weights()) {
    for (EdgeId e = 0; e < g.num_arcs(); ++e) {
      h.add(std::bit_cast<std::uint64_t>(g.arc_weight(e)));
    }
  }
  return h.value();
}

std::uint64_t owner_fingerprint(const Partition& p) {
  Fnv64 h;
  h.add(static_cast<std::uint64_t>(p.num_parts()));
  for (const Rank r : p.owners()) h.add(static_cast<std::uint64_t>(r));
  return h.value();
}

// The graph builder's CSR and both multilevel presets' owner vectors, pinned
// so that a rewrite of the builder, the readers or the coarsening keeps
// every byte: rmat inserts duplicate edges, the double cover mixes hashed and
// random weights, and the matrix round trip goes through the Matrix Market
// reader and matrix_to_bipartite's kKeepMax policy.
TEST(DeterminismRegression, GraphBuilderCsrFingerprints) {
  EXPECT_EQ(csr_fingerprint(grid_2d(64, 64, WeightKind::kUniformRandom, 61)),
            0xe4f8c026f8c3e6e9ULL);
  EXPECT_EQ(csr_fingerprint(rmat(10, 8)), 0xe9e3f40fd14e99f4ULL);
  BipartiteInfo info;
  const Graph cover = bipartite_double_cover(
      circuit_like(1500, 3000, 6, WeightKind::kUniformRandom, 63), info,
      /*with_diagonal=*/true, 63);
  EXPECT_EQ(csr_fingerprint(cover), 0x02e4dbdacc31a18fULL);

  std::stringstream text;
  text << std::setprecision(17);
  write_matrix_market(text, bipartite_to_matrix(cover, info));
  BipartiteInfo read_info;
  EXPECT_EQ(csr_fingerprint(
                matrix_to_bipartite(read_matrix_market(text), read_info)),
            csr_fingerprint(cover));
}

TEST(DeterminismRegression, MultilevelPartitionFingerprints) {
  struct Case {
    const char* name;
    Graph graph;
    Rank parts;
    std::uint64_t metis;
    std::uint64_t parmetis;
  };
  BipartiteInfo info;
  const Case cases[] = {
      {"circuit", circuit_like(2000, 4000, 6, WeightKind::kUnit, 62), 8,
       0x56d25017ea40706aULL, 0xe34b2c20833eeccfULL},
      {"double-cover",
       bipartite_double_cover(
           circuit_like(1500, 3000, 6, WeightKind::kUniformRandom, 63), info,
           /*with_diagonal=*/true, 63),
       8, 0x63984bb8a65a922dULL, 0xabdc1d170786cc0cULL},
      {"grid", grid_2d(64, 64), 16, 0x93b0ac552d2ffb74ULL,
       0x1792c89e42ffc65dULL},
      // Seven levels at 64 parts, with refinement moves on every level.
      {"deep-double-cover",
       bipartite_double_cover(
           circuit_like(20000, 40000, 6, WeightKind::kUniformRandom, 63),
           info, /*with_diagonal=*/true, 63),
       64, 0x1908514fc3eff29aULL, 0x685b507dc7d7456bULL},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(owner_fingerprint(multilevel_partition(
                  c.graph, c.parts, MultilevelConfig::metis_like(7))),
              c.metis);
    EXPECT_EQ(owner_fingerprint(multilevel_partition(
                  c.graph, c.parts, MultilevelConfig::parmetis_like(7))),
              c.parmetis);
  }
}

TEST(DeterminismRegression, ReceiveChargesAreCodecInvariant) {
  const Graph g = circuit_like(2000, 4000, 6, WeightKind::kUnit, 62);
  const Partition p =
      multilevel_partition(g, 8, MultilevelConfig::metis_like(3));
  const DistGraph dist = DistGraph::build(g, p);

  // Async, boundary-first, 16-vertex supersteps: mid-round polls deliver
  // messages, so the records-based receive charge really fires.
  auto opt = DistColoringOptions::improved();
  opt.superstep_size = 16;
  opt.local_order = LocalOrder::kBoundaryFirst;
  auto fixed = opt;
  fixed.codec = WireCodec::kFixed;
  const auto rc = color_distributed(dist, opt);
  const auto rf = color_distributed(dist, fixed);
  EXPECT_GT(rc.snapshot_fallback_supersteps, 0);
  expect_same_work(rc, rf);

  auto faulty = opt;
  faulty.faults.drop_rate = 0.05;
  faulty.faults.duplicate_rate = 0.02;
  faulty.faults.seed = 14;
  auto faulty_fixed = faulty;
  faulty_fixed.codec = WireCodec::kFixed;
  expect_same_work(color_distributed(dist, faulty),
                   color_distributed(dist, faulty_fixed));

  // Distance-2 exercises its own poll loop.
  const Graph g2 = grid_2d(20, 20, WeightKind::kUnit, 63);
  const Partition p2 = grid_2d_partition(20, 20, 2, 2);
  DistColoringOptions d2;
  d2.superstep_size = 16;
  auto d2_fixed = d2;
  d2_fixed.codec = WireCodec::kFixed;
  expect_same_work(color_distance2_distributed_native(g2, p2, d2),
                   color_distance2_distributed_native(g2, p2, d2_fixed));
}

}  // namespace
}  // namespace pmc
