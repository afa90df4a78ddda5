// Chaos harness: sweeps fault-injection rates (drops, duplicates, delays,
// stall windows) across the three distributed algorithms and asserts that
// the recovery machinery preserves every correctness invariant:
//
//  - matching: the ack/retry transport recovers lost records, so the result
//    is bit-identical to the fault-free locally-dominant matching (which is
//    unique for distinct weights, hence timing-independent);
//  - coloring: dropped color announcements re-enter the sender's repair
//    loop, so the final coloring is still conflict-free;
//  - determinism: a fixed fault seed reproduces the run to the last bit.
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "core/pmc.hpp"
#include "runtime/exec/backend.hpp"

namespace pmc {
namespace {

/// The chaos suites honor PMC_THREADS (the TSan CI stage sets it to 4), so
/// every fault-injection scenario here also runs its rank callbacks on the
/// execution backend's pool — the determinism assertions then double as
/// threaded-vs-sequential equivalence checks under the race detector.
template <typename Opt>
Opt with_env_exec(Opt opt) {
  opt.exec = exec_config_from_env();
  return opt;
}

// The sweep the acceptance bar asks for: drop rates up to 5%, duplication
// up to 2%, plus one aggressive point well beyond it.
struct FaultPoint {
  double drop;
  double dup;
  std::uint64_t seed;
};

const std::vector<FaultPoint> kSweep = {
    {0.01, 0.00, 11}, {0.05, 0.00, 12}, {0.00, 0.02, 13},
    {0.05, 0.02, 14}, {0.20, 0.10, 15},
};

FaultConfig faults_at(const FaultPoint& pt) {
  FaultConfig f;
  f.drop_rate = pt.drop;
  f.duplicate_rate = pt.dup;
  f.seed = pt.seed;
  return f;
}

void expect_same_run(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);
  EXPECT_EQ(a.comm.messages, b.comm.messages);
  EXPECT_EQ(a.comm.bytes, b.comm.bytes);
  EXPECT_EQ(a.comm.records, b.comm.records);
  const FaultStats fa = a.breakdown.total_faults();
  const FaultStats fb = b.breakdown.total_faults();
  EXPECT_EQ(fa.drops, fb.drops);
  EXPECT_EQ(fa.duplicates, fb.duplicates);
  EXPECT_EQ(fa.retries, fb.retries);
  EXPECT_EQ(fa.backoff_seconds, fb.backoff_seconds);
  EXPECT_EQ(fa.corruptions, fb.corruptions);
  EXPECT_EQ(fa.corruptions_detected, fb.corruptions_detected);
}

/// The checksum invariant: every injected corruption must have been caught
/// at a receiver — none decoded into the algorithm.
void expect_all_corruptions_detected(const RunResult& r) {
  const FaultStats f = r.breakdown.total_faults();
  EXPECT_GT(f.corruptions, 0) << "scenario injected no corruption";
  EXPECT_EQ(f.corruptions_detected, f.corruptions);
}

// ---- matching ---------------------------------------------------------------

class MatchingChaos : public ::testing::Test {
 protected:
  MatchingChaos()
      : g_(grid_2d(24, 24, WeightKind::kUniformRandom, 5)),
        p_(grid_2d_partition(24, 24, 2, 2)),
        dist_(DistGraph::build(g_, p_)),
        baseline_(match_distributed(dist_, with_env_exec(DistMatchingOptions{}))) {}

  Graph g_;
  Partition p_;
  DistGraph dist_;
  DistMatchingResult baseline_;
};

TEST_F(MatchingChaos, SweepRecoversTheFaultFreeMatching) {
  FaultStats total;
  for (const FaultPoint& pt : kSweep) {
    SCOPED_TRACE("drop=" + std::to_string(pt.drop) +
                 " dup=" + std::to_string(pt.dup));
    auto opt = with_env_exec(DistMatchingOptions{});
    opt.faults = faults_at(pt);
    const auto r = match_distributed(dist_, opt);

    EXPECT_EQ(r.matching.mate, baseline_.matching.mate);
    std::string why;
    EXPECT_TRUE(is_valid_matching(g_, r.matching, &why)) << why;
    EXPECT_TRUE(is_maximal_matching(g_, r.matching));
    EXPECT_EQ(verify_matching_distributed(dist_, r.matching).violations, 0);

    const FaultStats f = r.run.breakdown.total_faults();
    // Every dropped message (data or ack) means some timer eventually fired.
    if (f.drops > 0) {
      EXPECT_GT(f.retries, 0);
    }
    // Fabric duplicates are always filtered; suppressions may exceed them
    // because spurious retransmits (timer raced the ack) are filtered too.
    EXPECT_GE(f.dup_suppressed, f.duplicates);
    // Recovery costs modelled time: never faster than the clean run.
    EXPECT_GE(r.run.sim_seconds, baseline_.run.sim_seconds);
    total += f;
  }
  // The message streams are short, so a mild fault point can legitimately
  // draw nothing; across the whole sweep (which includes a 20%/10% point)
  // every fault class must have fired.
  EXPECT_GT(total.drops, 0);
  EXPECT_GT(total.duplicates, 0);
  EXPECT_GT(total.retries, 0);
  EXPECT_GT(total.backoff_seconds, 0.0);
}

TEST_F(MatchingChaos, SurvivesDelaysAndStallWindows) {
  auto opt = with_env_exec(DistMatchingOptions{});
  opt.faults.delay_rate = 0.5;
  opt.faults.max_extra_delay_seconds = 2e-5;
  opt.faults.drop_rate = 0.02;
  opt.faults.seed = 21;
  opt.faults.stalls = {{1, 0.0, 1e-4}, {2, 5e-5, 1e-4}};
  const auto r = match_distributed(dist_, opt);
  EXPECT_EQ(r.matching.mate, baseline_.matching.mate);
  // The stalled ranks cannot move before their windows clear.
  EXPECT_GE(r.run.sim_seconds, 1e-4);
}

TEST_F(MatchingChaos, UnbundledModeRecoversToo) {
  auto clean = with_env_exec(DistMatchingOptions{});
  clean.bundled = false;
  const auto base = match_distributed(dist_, clean);
  DistMatchingOptions opt = clean;
  opt.faults = faults_at({0.05, 0.02, 31});
  const auto r = match_distributed(dist_, opt);
  EXPECT_EQ(r.matching.mate, base.matching.mate);
  EXPECT_GT(r.run.breakdown.total_faults().retries, 0);
}

TEST_F(MatchingChaos, RunsAreBitIdenticalForAFixedSeed) {
  auto opt = with_env_exec(DistMatchingOptions{});
  opt.faults = faults_at({0.20, 0.10, 99});
  opt.jitter_seconds = 2e-6;
  opt.jitter_seed = 7;
  const auto a = match_distributed(dist_, opt);
  const auto b = match_distributed(dist_, opt);
  EXPECT_EQ(a.matching.mate, b.matching.mate);
  expect_same_run(a.run, b.run);

  // A different fault seed draws a different verdict stream; at these rates
  // the modelled schedules cannot coincide.
  opt.faults.seed = 100;
  const auto c = match_distributed(dist_, opt);
  EXPECT_NE(a.run.sim_seconds, c.run.sim_seconds);
}

TEST_F(MatchingChaos, ReliableTailSurvivesTotalLoss) {
  // Every regular attempt is dropped; only the fault-exempt final attempt
  // of each message gets through. The matching must still be exact.
  auto opt = with_env_exec(DistMatchingOptions{});
  opt.faults.drop_rate = 1.0;
  opt.faults.seed = 41;
  opt.faults.max_attempts = 3;
  const auto r = match_distributed(dist_, opt);
  EXPECT_EQ(r.matching.mate, baseline_.matching.mate);
  const FaultStats f = r.run.breakdown.total_faults();
  EXPECT_GT(f.drops, 0);
  EXPECT_GT(f.retries, 0);
  EXPECT_GT(f.backoff_seconds, 0.0);
}

TEST_F(MatchingChaos, CorruptionIsDetectedAndRetried) {
  // A garbled frame fails checksum validation at the receiver, which then
  // refuses to ack it — the sender's timer retransmits from the pristine
  // copy, so the matching is bit-identical to the fault-free baseline.
  auto opt = with_env_exec(DistMatchingOptions{});
  opt.faults.corrupt_rate = 0.25;
  opt.faults.seed = 50;
  const auto r = match_distributed(dist_, opt);
  EXPECT_EQ(r.matching.mate, baseline_.matching.mate);
  expect_all_corruptions_detected(r.run);
  EXPECT_GT(r.run.breakdown.total_faults().retries, 0);
  EXPECT_GE(r.run.sim_seconds, baseline_.run.sim_seconds);
}

TEST_F(MatchingChaos, TotalGarblingStillRecoversViaReliableTail) {
  // Every regular attempt is corrupted; only the fault-exempt final attempt
  // of each message arrives intact. Checksums must catch 100% of the
  // garbled frames and the matching must still be exact.
  auto opt = with_env_exec(DistMatchingOptions{});
  opt.faults.corrupt_rate = 1.0;
  opt.faults.seed = 52;
  opt.faults.max_attempts = 3;
  const auto r = match_distributed(dist_, opt);
  EXPECT_EQ(r.matching.mate, baseline_.matching.mate);
  expect_all_corruptions_detected(r.run);
  EXPECT_GT(r.run.breakdown.total_faults().retries, 0);
}

TEST_F(MatchingChaos, CorruptionComposesWithDropsAndDuplicates) {
  auto opt = with_env_exec(DistMatchingOptions{});
  opt.faults.drop_rate = 0.05;
  opt.faults.duplicate_rate = 0.02;
  opt.faults.corrupt_rate = 0.05;
  opt.faults.seed = 53;
  const auto a = match_distributed(dist_, opt);
  EXPECT_EQ(a.matching.mate, baseline_.matching.mate);
  expect_all_corruptions_detected(a.run);
  // And the combined schedule still pins for a fixed seed.
  const auto b = match_distributed(dist_, opt);
  EXPECT_EQ(a.matching.mate, b.matching.mate);
  expect_same_run(a.run, b.run);
}

TEST_F(MatchingChaos, ExhaustedRetryBudgetIsAHardError) {
  auto opt = with_env_exec(DistMatchingOptions{});
  opt.faults.drop_rate = 1.0;
  opt.faults.seed = 41;
  opt.faults.max_attempts = 2;
  opt.faults.reliable_tail = false;
  EXPECT_THROW((void)match_distributed(dist_, opt), Error);
}

// ---- distance-1 coloring ----------------------------------------------------

class ColoringChaos : public ::testing::Test {
 protected:
  ColoringChaos()
      : g_(circuit_like(600, 1200, 5, WeightKind::kUnit, 9)),
        p_(block_partition(g_.num_vertices(), 4)),
        dist_(DistGraph::build(g_, p_)) {}

  Graph g_;
  Partition p_;
  DistGraph dist_;
};

TEST_F(ColoringChaos, SweepStaysConflictFreeAcrossAllModes) {
  const std::vector<DistColoringOptions> presets = {
      DistColoringOptions::improved(), DistColoringOptions::fiab(),
      DistColoringOptions::fiac()};
  FaultStats total;
  for (const auto& preset : presets) {
    for (const FaultPoint& pt : kSweep) {
      SCOPED_TRACE("comm_mode=" + std::to_string(int(preset.comm_mode)) +
                   " drop=" + std::to_string(pt.drop) +
                   " dup=" + std::to_string(pt.dup));
      auto opt = with_env_exec(preset);
      opt.faults = faults_at(pt);
      const auto r = color_distributed(dist_, opt);

      std::string why;
      EXPECT_TRUE(is_proper_coloring(g_, r.coloring, &why)) << why;
      EXPECT_EQ(verify_coloring_distributed(dist_, r.coloring).violations, 0);
      EXPECT_LT(r.rounds, opt.max_rounds);
      if (pt.drop == 0.0) {
        EXPECT_EQ(r.fault_reentries, 0);  // duplicates alone never re-enter
      }
      total += r.run.breakdown.total_faults();
    }
  }
  // Across the full sweep the fault classes must all have fired. The BSP
  // engine recovers drops algorithmically (sender-side repair re-entry),
  // not with transport retries, so no retry count is expected here.
  EXPECT_GT(total.drops, 0);
  EXPECT_GT(total.duplicates, 0);
  EXPECT_EQ(total.dup_suppressed, total.duplicates);
  EXPECT_EQ(total.retries, 0);
}

TEST_F(ColoringChaos, SyncSuperstepsSurviveFaultsToo) {
  auto opt = with_env_exec(DistColoringOptions::improved());
  opt.superstep_mode = SuperstepMode::kSync;
  opt.faults = faults_at({0.05, 0.02, 17});
  const auto r = color_distributed(dist_, opt);
  std::string why;
  EXPECT_TRUE(is_proper_coloring(g_, r.coloring, &why)) << why;
  EXPECT_EQ(verify_coloring_distributed(dist_, r.coloring).violations, 0);
}

TEST_F(ColoringChaos, RunsAreBitIdenticalForAFixedSeed) {
  auto opt = with_env_exec(DistColoringOptions::improved());
  opt.faults = faults_at({0.05, 0.02, 77});
  const auto a = color_distributed(dist_, opt);
  const auto b = color_distributed(dist_, opt);
  EXPECT_EQ(a.coloring.color, b.coloring.color);
  EXPECT_EQ(a.fault_reentries, b.fault_reentries);
  expect_same_run(a.run, b.run);
}

TEST_F(ColoringChaos, DroppedAnnouncementsForceRepairReentry) {
  // At a 20% drop rate on this boundary-heavy partition some colored
  // announcements are certain to be lost, so the sender-side re-entry path
  // must fire and the result must still verify.
  auto opt = with_env_exec(DistColoringOptions::improved());
  opt.faults = faults_at({0.20, 0.00, 23});
  const auto r = color_distributed(dist_, opt);
  EXPECT_GT(r.fault_reentries, 0);
  std::string why;
  EXPECT_TRUE(is_proper_coloring(g_, r.coloring, &why)) << why;
}

TEST_F(ColoringChaos, CorruptedAnnouncementsEnterRepair) {
  // The BSP engine discards a garbled boundary-color frame after checksum
  // validation fails; the send receipt tells the sender, which re-enters
  // the affected vertices into conflict repair — exactly the drop path.
  auto opt = with_env_exec(DistColoringOptions::improved());
  opt.faults.corrupt_rate = 0.20;
  opt.faults.seed = 61;
  const auto r = color_distributed(dist_, opt);
  EXPECT_GT(r.fault_reentries, 0);
  std::string why;
  EXPECT_TRUE(is_proper_coloring(g_, r.coloring, &why)) << why;
  EXPECT_EQ(verify_coloring_distributed(dist_, r.coloring).violations, 0);
  expect_all_corruptions_detected(r.run);
  // BSP recovery is algorithmic (repair re-entry), not transport retries.
  EXPECT_EQ(r.run.breakdown.total_faults().retries, 0);
}

TEST_F(ColoringChaos, CorruptionSweepStaysConflictFreeAcrossAllModes) {
  const std::vector<DistColoringOptions> presets = {
      DistColoringOptions::improved(), DistColoringOptions::fiab(),
      DistColoringOptions::fiac()};
  FaultStats total;
  std::uint64_t seed = 71;
  for (const auto& preset : presets) {
    for (const double rate : {0.02, 0.10, 0.25}) {
      SCOPED_TRACE("comm_mode=" + std::to_string(int(preset.comm_mode)) +
                   " corrupt=" + std::to_string(rate));
      auto opt = with_env_exec(preset);
      opt.faults.corrupt_rate = rate;
      opt.faults.seed = seed++;
      const auto r = color_distributed(dist_, opt);
      std::string why;
      EXPECT_TRUE(is_proper_coloring(g_, r.coloring, &why)) << why;
      EXPECT_EQ(verify_coloring_distributed(dist_, r.coloring).violations, 0);
      total += r.run.breakdown.total_faults();
    }
  }
  EXPECT_GT(total.corruptions, 0);
  EXPECT_EQ(total.corruptions_detected, total.corruptions);
}

TEST_F(ColoringChaos, CorruptionEventsAppearInTheJsonlTrace) {
  auto opt = with_env_exec(DistColoringOptions::improved());
  opt.faults.corrupt_rate = 0.20;
  opt.faults.seed = 61;
  opt.trace.jsonl_path = testing::TempDir() + "pmc_chaos_corrupt.jsonl";
  const auto r = color_distributed(dist_, opt);
  expect_all_corruptions_detected(r.run);
  std::ifstream in(opt.trace.jsonl_path);
  ASSERT_TRUE(in.good());
  std::int64_t corrupt_lines = 0, detected_lines = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.find(R"("ev":"corrupt")") != std::string::npos &&
        line.find("corrupt_detected") == std::string::npos) {
      ++corrupt_lines;
    }
    if (line.find(R"("ev":"corrupt_detected")") != std::string::npos) {
      ++detected_lines;
    }
  }
  const FaultStats f = r.run.breakdown.total_faults();
  EXPECT_EQ(corrupt_lines, f.corruptions);
  EXPECT_EQ(detected_lines, f.corruptions_detected);
}

// ---- distance-2 coloring ----------------------------------------------------

TEST(Distance2Chaos, SweepStaysProper) {
  const Graph g = grid_2d(16, 16, WeightKind::kUnit, 3);
  const Partition p = grid_2d_partition(16, 16, 2, 2);
  for (const FaultPoint& pt : kSweep) {
    SCOPED_TRACE("drop=" + std::to_string(pt.drop) +
                 " dup=" + std::to_string(pt.dup));
    auto opt = with_env_exec(DistColoringOptions{});
    opt.faults = faults_at(pt);
    const auto r = color_distance2_distributed_native(g, p, opt);
    std::string why;
    EXPECT_TRUE(is_proper_distance2_coloring(g, r.coloring, &why)) << why;
    EXPECT_LT(r.rounds, opt.max_rounds);
  }
}

TEST(Distance2Chaos, RunsAreBitIdenticalForAFixedSeed) {
  const Graph g = grid_2d(16, 16, WeightKind::kUnit, 3);
  const Partition p = grid_2d_partition(16, 16, 2, 2);
  auto opt = with_env_exec(DistColoringOptions{});
  opt.faults = faults_at({0.10, 0.02, 55});
  const auto a = color_distance2_distributed_native(g, p, opt);
  const auto b = color_distance2_distributed_native(g, p, opt);
  EXPECT_EQ(a.coloring.color, b.coloring.color);
  expect_same_run(a.run, b.run);
}

// ---- service mode (incremental repair under faults) -------------------------

/// The update-stream sweep: drops, duplicates and corruption injected while
/// the *incremental* re-matching / re-coloring runs. The acceptance bar is
/// the same as for the cold algorithms — recovery must reproduce the exact
/// fault-free solution — plus the service-mode bar: every batch's repair
/// equals a full recompute on the post-batch graph.
class ServiceChaos : public ::testing::Test {
 protected:
  ServiceChaos()
      : g_(grid_2d(32, 32, WeightKind::kUniformRandom, 7)),
        p_(grid_2d_partition(32, 32, 2, 2)) {}

  Graph g_;
  Partition p_;
};

TEST_F(ServiceChaos, UpdateStreamSweepRepairsExactlyUnderFaults) {
  struct Point {
    double drop, dup, corrupt;
    std::uint64_t seed;
  };
  const std::vector<Point> sweep = {
      {0.05, 0.00, 0.00, 201},  // drops only
      {0.00, 0.02, 0.10, 202},  // duplicates + corruption
      {0.10, 0.02, 0.10, 203},  // everything at once
  };
  for (const Point& pt : sweep) {
    SCOPED_TRACE("drop=" + std::to_string(pt.drop) +
                 " dup=" + std::to_string(pt.dup) +
                 " corrupt=" + std::to_string(pt.corrupt));
    ServiceOptions so;
    so.batch_window = 25;
    // Every batch self-checks: the faulted incremental repair must be
    // byte-identical to a (likewise faulted) full recompute.
    so.verify_batches = true;
    so.matching = with_env_exec(DistMatchingOptions{});
    so.coloring = with_env_exec(DistColoringOptions{});
    for (FaultConfig* f : {&so.matching.faults, &so.coloring.faults}) {
      f->drop_rate = pt.drop;
      f->duplicate_rate = pt.dup;
      f->corrupt_rate = pt.corrupt;
      f->seed = pt.seed;
    }
    GraphService service(g_, p_, so);

    UpdateStreamConfig cfg;
    cfg.seed = 31;
    UpdateStreamGenerator gen(g_, cfg);
    for (const EdgeUpdate& u : gen.next_batch(200)) (void)service.push(u);
    ASSERT_EQ(service.history().size(), 8u);

    // The final solutions verify and equal the *fault-free* recomputes on
    // the final graph — faults cost modelled time, never correctness.
    std::string why;
    EXPECT_TRUE(is_valid_matching(service.graph(), service.matching(), &why))
        << why;
    EXPECT_TRUE(is_maximal_matching(service.graph(), service.matching()));
    EXPECT_TRUE(is_proper_coloring(service.graph(), service.coloring(), &why))
        << why;
    const DistGraph dist = DistGraph::build(service.graph(), p_);
    const auto clean_match =
        match_distributed(dist, with_env_exec(DistMatchingOptions{}));
    EXPECT_EQ(service.matching().mate, clean_match.matching.mate);
    const auto clean_color =
        color_canonical(dist, with_env_exec(DistColoringOptions{}));
    EXPECT_EQ(service.coloring().color, clean_color.coloring.color);
  }
}

TEST_F(ServiceChaos, IncrementalDriversRecoverDropsAndCorruptionDirectly) {
  // One batch driven through the raw incremental drivers with aggressive
  // fault rates, so the recovery machinery's own counters are observable
  // (GraphService does not expose per-run FaultStats).
  auto match_opt = with_env_exec(DistMatchingOptions{});
  auto color_opt = with_env_exec(DistColoringOptions{});
  const DistGraph dist0 = DistGraph::build(g_, p_);
  const Matching m0 = match_distributed(dist0, match_opt).matching;
  const Coloring c0 = color_canonical(dist0, color_opt).coloring;

  UpdateStreamConfig cfg;
  cfg.seed = 37;
  UpdateStreamGenerator gen(g_, cfg);
  const std::vector<EdgeUpdate> batch = gen.next_batch(40);
  DynamicGraph dyn(g_);
  for (const EdgeUpdate& u : batch) dyn.apply(u);
  const std::vector<VertexId> touched = dyn.commit().ids;
  const Graph g1 = dyn.folded();
  const DistGraph dist1 = DistGraph::build(g1, p_);

  for (FaultConfig* f : {&match_opt.faults, &color_opt.faults}) {
    f->drop_rate = 0.20;
    f->corrupt_rate = 0.20;
    f->seed = 211;
  }

  // Matching: the event engine's ack/retry transport recovers INVALIDATE
  // records and re-proposals alike, so the repaired matching equals the
  // fault-free full recompute bit for bit.
  const auto inc_m = match_incremental(dist1, m0, touched, match_opt);
  auto clean_m_opt = with_env_exec(DistMatchingOptions{});
  const auto full_m = match_distributed(dist1, clean_m_opt);
  EXPECT_EQ(inc_m.matching.mate, full_m.matching.mate);
  const FaultStats fm = inc_m.run.breakdown.total_faults();
  EXPECT_GT(fm.drops, 0);
  EXPECT_GT(fm.retries, 0);
  EXPECT_GT(fm.corruptions, 0);
  EXPECT_EQ(fm.corruptions_detected, fm.corruptions);

  // Coloring: lost / garbled announcements re-enter the sender's repair
  // loop; the canonical fixed point is unique, so the warm faulted run
  // still lands on the fault-free coloring.
  const auto inc_c = color_incremental(dist1, c0, touched, color_opt);
  auto clean_c_opt = with_env_exec(DistColoringOptions{});
  const auto full_c = color_canonical(dist1, clean_c_opt);
  EXPECT_EQ(inc_c.coloring.color, full_c.coloring.color);
  const FaultStats fc = inc_c.run.breakdown.total_faults();
  EXPECT_GT(fc.drops + fc.corruptions, 0);
  EXPECT_EQ(fc.corruptions_detected, fc.corruptions);

  // Both repairs pin for a fixed fault seed.
  const auto inc_m2 = match_incremental(dist1, m0, touched, match_opt);
  EXPECT_EQ(inc_m2.matching.mate, inc_m.matching.mate);
  expect_same_run(inc_m2.run, inc_m.run);
  const auto inc_c2 = color_incremental(dist1, c0, touched, color_opt);
  EXPECT_EQ(inc_c2.coloring.color, inc_c.coloring.color);
  expect_same_run(inc_c2.run, inc_c.run);
}

TEST(Distance2Chaos, CorruptionStaysProper) {
  const Graph g = grid_2d(16, 16, WeightKind::kUnit, 3);
  const Partition p = grid_2d_partition(16, 16, 2, 2);
  auto opt = with_env_exec(DistColoringOptions{});
  opt.faults.corrupt_rate = 0.20;
  opt.faults.seed = 57;
  const auto r = color_distance2_distributed_native(g, p, opt);
  std::string why;
  EXPECT_TRUE(is_proper_distance2_coloring(g, r.coloring, &why)) << why;
  expect_all_corruptions_detected(r.run);
}

}  // namespace
}  // namespace pmc
