// Execution backend tests: the work-stealing pool's exactly-once / ordering
// / failure contracts, and the engines' bit-identical-at-any-thread-count
// guarantee (the runtime/exec design invariant).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/pmc.hpp"
#include "partition/simple.hpp"
#include "runtime/bsp_engine.hpp"
#include "runtime/event_engine.hpp"
#include "runtime/exec/thread_pool.hpp"

namespace pmc {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.workers(), 4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, WorkRunsOffTheCallerThread) {
  ThreadPool pool(2);
  const auto caller = std::this_thread::get_id();
  std::mutex m;
  std::set<std::thread::id> seen;
  pool.parallel_for(64, [&](std::size_t) {
    const std::lock_guard<std::mutex> lock(m);
    seen.insert(std::this_thread::get_id());
  });
  EXPECT_FALSE(seen.empty());
  EXPECT_EQ(seen.count(caller), 0u);
}

TEST(ThreadPool, StealingCoversUnevenWork) {
  // One giant index plus many trivial ones: the workers owning the small
  // blocks go idle and must steal to finish; every index still runs once.
  ThreadPool pool(4);
  constexpr std::size_t kN = 256;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) {
    if (i == 0) {
      volatile double sink = 0.0;
      for (int k = 0; k < 2000000; ++k) sink = sink + 1.0;
    }
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, RethrowsLowestThrowingIndex) {
  ThreadPool pool(4);
  try {
    pool.parallel_for(100, [&](std::size_t i) {
      if (i % 10 == 3) {
        throw std::runtime_error("boom " + std::to_string(i));
      }
    });
    FAIL() << "expected parallel_for to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 3");
  }
  // The pool survives a failed job.
  std::atomic<int> count{0};
  pool.parallel_for(10, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ReusableAcrossJobsAndHandlesSmallN) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  pool.parallel_for(0, [&](std::size_t) { ++total; });
  EXPECT_EQ(total.load(), 0);
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(2, [&](std::size_t) { ++total; });
  }
  EXPECT_EQ(total.load(), 100);
}

TEST(ThreadPool, ThousandsOfTinyJobsNeverLoseAWakeup) {
  // Regression for a lost wakeup: parallel_for once published the new job id
  // before enqueuing the work, so a worker could record the id as seen with
  // its queue still empty and sleep through the notify; with every worker
  // doing so the caller waited forever. Jobs smaller than the pool leave
  // idle workers racing the next publish; the ctest TIMEOUT turns a hang
  // into a failure.
  for (const int workers : {2, 3, 5, 7}) {
    ThreadPool pool(workers);
    std::atomic<std::size_t> total{0};
    std::size_t expected = 0;
    for (std::size_t job = 0; job < 3000; ++job) {
      const std::size_t n = 1 + job % 4;
      pool.parallel_for(n, [&](std::size_t) {
        total.fetch_add(1, std::memory_order_relaxed);
      });
      expected += n;
    }
    EXPECT_EQ(total.load(), expected) << "workers=" << workers;
  }
}

TEST(ThreadPool, NestedParallelForRunsInlineOnWorker) {
  // A worker that re-enters parallel_for must not wait on the pool's job
  // lock (that would deadlock); the nested loop runs inline on the worker.
  ThreadPool pool(3);
  std::atomic<int> total{0};
  std::atomic<int> nested_off_worker{0};
  const auto caller = std::this_thread::get_id();
  pool.parallel_for(4, [&](std::size_t) {
    const auto outer_thread = std::this_thread::get_id();
    pool.parallel_for(3, [&](std::size_t) {
      ++total;
      if (std::this_thread::get_id() != outer_thread) ++nested_off_worker;
    });
  });
  EXPECT_EQ(total.load(), 12);
  // Inline execution: every nested index ran on the thread that submitted it.
  EXPECT_EQ(nested_off_worker.load(), 0);
  (void)caller;
}

TEST(ExecutionBackend, SequentialRunsInOrderOnCaller) {
  const ExecutionBackend backend;  // default: sequential
  EXPECT_EQ(backend.threads(), 1);
  std::vector<std::size_t> order;
  backend.parallel_for(5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ExecutionBackend, ThreadedModeSelectsPool) {
  const ExecutionBackend backend(ExecConfig{3});
  EXPECT_EQ(backend.threads(), 3);
  std::atomic<int> count{0};
  backend.parallel_for(100, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 100);
}

// ---------------------------------------------------------------------------
// Engine-level equivalence: a rank phase must reproduce the same fabric state
// — clocks, stats, fault verdicts — at every thread count. The references
// are literals recorded from the one-rank-at-a-time schedule the engines ran
// at threads = 1 before every phase went through lanes, so the historical
// sequential semantics stay pinned as data.

std::string fabric_fingerprint(const RunResult& run) {
  std::ostringstream os;
  os << std::hexfloat;
  os << run.sim_seconds << '|' << run.comm.messages << '|' << run.comm.bytes
     << '|' << run.comm.records << '|' << run.comm.collectives;
  os << '|' << run.load.min_seconds << '|' << run.load.max_seconds << '|'
     << run.load.mean_seconds;
  const FaultStats f = run.breakdown.total_faults();
  os << '|' << f.drops << '|' << f.duplicates << '|' << f.retries << '|'
     << f.backoff_seconds;
  return os.str();
}

RunResult run_bsp_scenario(int threads, std::int64_t* dropped_seen) {
  constexpr Rank kRanks = 6;
  FabricConfig config;
  config.jitter_seconds = 1e-6;
  config.jitter_seed = 5;
  config.fault.drop_rate = 0.2;
  config.fault.duplicate_rate = 0.1;
  config.fault.seed = 9;
  BspEngine engine(kRanks, MachineModel::blue_gene_p(), config,
                   ExecConfig{threads});
  std::int64_t drops = 0;
  for (int step = 0; step < 4; ++step) {
    engine.fabric().set_round_all(step);
    engine.run_ranks([&](BspEngine::RankCtx& ctx) {
      const Rank r = ctx.rank();
      ctx.charge(3.5 * static_cast<double>(r + 1), WorkPhase::kInterior);
      for (Rank dst = 0; dst < kRanks; ++dst) {
        if (dst == r) continue;
        std::vector<std::byte> payload(static_cast<std::size_t>(8 + r));
        ctx.send(dst, std::move(payload), /*records=*/1,
                 [&drops](const CommFabric::SendReceipt& receipt,
                          std::span<const std::byte>) {
                   if (receipt.dropped) ++drops;
                 });
      }
      ctx.charge(2.0, WorkPhase::kBoundary);
    });
    engine.exchange([](BspEngine::RankCtx& ctx, std::vector<BspMessage> msgs) {
      for (const BspMessage& msg : msgs) {
        ctx.charge(static_cast<double>(msg.payload.size()));
      }
    });
  }
  engine.barrier();
  RunResult out;
  engine.fabric().export_into(out);
  if (dropped_seen != nullptr) *dropped_seen = drops;
  return out;
}

TEST(ExecEquivalence, BspDeferredPhasesMatchSequential) {
  // The scenario exercises fault verdicts (38 drops, 6 duplicates).
  const std::string kSequential =
      "0x1.b5c2a24a46f94p-14|120|5100|120|5|0x1.d313e3b79feap-19|"
      "0x1.360afee19ce8ap-18|0x1.0b512544ec519p-18|38|6|0|0x0p+0";
  for (const int threads : {1, 2, 3, 8}) {
    std::int64_t drops = 0;
    const auto run = run_bsp_scenario(threads, &drops);
    EXPECT_EQ(fabric_fingerprint(run), kSequential) << "threads=" << threads;
    EXPECT_EQ(drops, 38) << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Snapshot-superstep equivalence: asynchronous phases (mid-superstep polls)
// must reproduce the sequential live-poll schedule exactly whether the clock
// safety check admits the up-front harvest or forces the rank-by-rank
// fallback.

struct SnapshotProbe {
  RunResult run;
  std::int64_t polled_records = 0;
  std::int64_t drops = 0;
  std::int64_t parallel_phases = 0;
  std::int64_t fallback_phases = 0;
};

SnapshotProbe run_bsp_snapshot_scenario(int threads) {
  constexpr Rank kRanks = 6;
  FabricConfig config;
  config.jitter_seconds = 1e-6;
  config.jitter_seed = 5;
  config.fault.drop_rate = 0.2;
  config.fault.duplicate_rate = 0.1;
  config.fault.seed = 9;
  BspEngine engine(kRanks, MachineModel::blue_gene_p(), config,
                   ExecConfig{threads});
  SnapshotProbe probe;
  // Per-rank so the deferred bodies (which run on the pool) never share a
  // counter; receipt callbacks replay sequentially, so `drops` is safe as-is.
  std::array<std::int64_t, kRanks> polled{};
  for (int round = 0; round < 3; ++round) {
    engine.fabric().set_round_all(round);
    for (int step = 0; step < 4; ++step) {
      engine.run_ranks_snapshot([&](BspEngine::RankCtx& ctx) {
        const Rank r = ctx.rank();
        // Poll first (the snapshot contract), charging per record.
        for (const BspMessage& msg : ctx.poll()) {
          polled[static_cast<std::size_t>(r)] += msg.records;
          ctx.charge(static_cast<double>(msg.records), WorkPhase::kBoundary);
        }
        // Rank-skewed compute: clocks diverge within the round, so later
        // supersteps trip the safety check and take the fallback, while the
        // superstep right after each round's barrier starts from equal
        // clocks and is harvested up front.
        ctx.charge(40.0 * static_cast<double>(r + 1), WorkPhase::kInterior);
        for (Rank hop = 1; hop <= 2; ++hop) {
          std::vector<std::byte> payload(static_cast<std::size_t>(8 + r));
          ctx.send((r + hop) % kRanks, std::move(payload), /*records=*/2,
                   [&probe](const CommFabric::SendReceipt& receipt,
                            std::span<const std::byte>) {
                     if (receipt.dropped) ++probe.drops;
                   });
        }
      });
    }
    // Round boundary: collect stragglers and re-equalize the clocks.
    engine.exchange([](BspEngine::RankCtx& ctx, std::vector<BspMessage> msgs) {
      for (const BspMessage& msg : msgs) {
        ctx.charge(static_cast<double>(msg.records), WorkPhase::kBoundary);
      }
    });
    engine.barrier();
  }
  engine.fabric().export_into(probe.run);
  for (const std::int64_t records : polled) probe.polled_records += records;
  probe.parallel_phases = engine.snapshot_parallel_phases();
  probe.fallback_phases = engine.snapshot_fallback_phases();
  return probe;
}

TEST(ExecEquivalence, SnapshotSuperstepsMatchSequential) {
  // The scenario exercises everything: mid-superstep deliveries, fault
  // verdicts, and both branches of the safety check (6 phases each).
  const std::string kSequential =
      "0x1.5883db9a7d756p-13|144|6120|288|6|0x1.5798ee2308c36p-17|"
      "0x1.ea3af1c37c412p-15|0x1.1f8fbd4cd215bp-15|42|7|0|0x0p+0";
  for (const int threads : {1, 2, 3, 8}) {
    const SnapshotProbe probe = run_bsp_snapshot_scenario(threads);
    EXPECT_EQ(fabric_fingerprint(probe.run), kSequential)
        << "threads=" << threads;
    EXPECT_EQ(probe.polled_records, 112) << "threads=" << threads;
    EXPECT_EQ(probe.drops, 42) << "threads=" << threads;
    EXPECT_EQ(probe.parallel_phases, 6) << "threads=" << threads;
    EXPECT_EQ(probe.fallback_phases, 6) << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Event-path equivalence: windowed dispatch must reproduce one-at-a-time
// event dispatch exactly at every thread count — including transport retries
// whose timers fire inside a window — mirroring the BSP probe above for the
// async path.

/// Gossip: every rank opens by messaging its two clockwise neighbours; each
/// delivery below the size cap is answered with a two-byte-larger reply, so
/// traffic criss-crosses ranks densely enough that windows hold events for
/// several shards at once.
class GossipProcess final : public Process {
 public:
  GossipProcess(Rank rank, Rank ranks) : rank_(rank), ranks_(ranks) {}

  void start(EventContext& ctx) override {
    for (Rank hop = 1; hop <= 2; ++hop) {
      ctx.charge(1.5 * static_cast<double>(rank_ + hop));
      ctx.send((rank_ + hop) % ranks_, std::vector<std::byte>(8), 1);
    }
  }

  void handle(EventContext& ctx, Rank src,
              std::span<const std::byte> payload) override {
    ++received_;
    for (const std::byte b : payload) {
      digest_ = (digest_ ^ std::to_integer<std::uint64_t>(b)) *
                0x100000001b3ULL;
    }
    ctx.charge(static_cast<double>(payload.size()));
    if (payload.size() < 24) {
      ctx.send(src, std::vector<std::byte>(payload.size() + 2), 1);
    }
  }

  [[nodiscard]] bool done() const override { return true; }

  [[nodiscard]] std::int64_t received() const { return received_; }
  /// FNV-1a-64 over every byte handed to handle(), in delivery order: a
  /// flipped bit that reached a handler changes it.
  [[nodiscard]] std::uint64_t digest() const { return digest_; }

 private:
  Rank rank_;
  Rank ranks_;
  std::int64_t received_ = 0;
  std::uint64_t digest_ = 0xcbf29ce484222325ULL;
};

RunResult run_gossip(int threads, const MachineModel& model,
                     const FabricConfig& config,
                     std::int64_t* received_total,
                     std::uint64_t* digest = nullptr) {
  constexpr Rank kRanks = 8;
  EventEngine engine(model, config, ExecConfig{threads});
  std::vector<const GossipProcess*> procs;
  for (Rank r = 0; r < kRanks; ++r) {
    auto p = std::make_unique<GossipProcess>(r, kRanks);
    procs.push_back(p.get());
    engine.add_process(std::move(p));
  }
  RunResult out = engine.run();
  if (received_total != nullptr) {
    *received_total = 0;
    for (const GossipProcess* p : procs) *received_total += p->received();
  }
  if (digest != nullptr) {
    *digest = 0;
    for (const GossipProcess* p : procs) *digest = *digest * 31 + p->digest();
  }
  return out;
}

RunResult run_gossip_scenario(int threads, std::int64_t* received_total) {
  FabricConfig config;
  config.jitter_seconds = 1e-6;
  config.jitter_seed = 11;
  config.fault.drop_rate = 0.25;
  config.fault.duplicate_rate = 0.05;
  config.fault.seed = 3;
  return run_gossip(threads, MachineModel::blue_gene_p(), config,
                    received_total);
}

TEST(ExecEquivalence, EventWindowedDispatchMatchesSequential) {
  // Drops (84) force the reliable transport's retry timers (83 retries) to
  // fire mid-run, so windows have to replay timer events and backoff too.
  const std::string kSequential =
      "0x1.a2579de86f5adp-10|408|21556|227|0|0x1.88963c1707838p-18|"
      "0x1.a4c5c79fe73bap-18|0x1.96ae01db775f7p-18|84|13|83|"
      "0x1.ecc3f74fa74dcp-10";
  for (const int threads : {1, 2, 4, 8}) {
    std::int64_t received = 0;
    const RunResult run = run_gossip_scenario(threads, &received);
    EXPECT_EQ(fabric_fingerprint(run), kSequential) << "threads=" << threads;
    EXPECT_EQ(received, 144) << "threads=" << threads;
  }
}

// Corruption beside drops and duplicates: a garbled copy is rejected at the
// receiver and recovered by its retry timer, while the retransmission and any
// duplicate deliver the original bytes. The handlers digest every byte they
// are handed, so a flipped bit that leaked into another copy would show.
TEST(ExecEquivalence, CorruptedDeliveriesMatchSequential) {
  FabricConfig config;
  config.jitter_seconds = 1e-6;
  config.jitter_seed = 11;
  config.fault.drop_rate = 0.1;
  config.fault.duplicate_rate = 0.15;
  config.fault.corrupt_rate = 0.15;
  config.fault.seed = 6;
  const std::string kSequential =
      "0x1.a4c0d69deaf49p-5|462|24172|237|0|0x1.88963c1707838p-18|"
      "0x1.a4c5c79fe73bap-18|0x1.96ae01db775f9p-18|39|63|93|"
      "0x1.ab7d0fe2c4ea3p-5";
  for (const int threads : {1, 2, 4}) {
    std::int64_t received = 0;
    std::uint64_t digest = 0;
    const RunResult run = run_gossip(threads, MachineModel::blue_gene_p(),
                                     config, &received, &digest);
    const FaultStats f = run.breakdown.total_faults();
    EXPECT_EQ(fabric_fingerprint(run), kSequential) << "threads=" << threads;
    EXPECT_EQ(f.corruptions_detected, 71) << "threads=" << threads;
    EXPECT_EQ(f.dup_suppressed, 81) << "threads=" << threads;
    EXPECT_EQ(received, 144) << "threads=" << threads;
    EXPECT_EQ(digest, 12833117536703537792ULL) << "threads=" << threads;
  }
}

// A cost model with no minimum event spacing has a zero lookahead: every
// window holds the events of one instant, and a successor generated at that
// same instant must still dispatch after all of them. Without jitter or
// extra delay, zero-cost gossip puts every delivery at t = 0 and every
// retransmission at a multiple of the timeout, so instants are crowded.
TEST(ExecEquivalence, ZeroLookaheadDispatchMatchesSequential) {
  FabricConfig config;
  config.fault.drop_rate = 0.25;
  config.fault.duplicate_rate = 0.1;
  config.fault.seed = 17;
  const std::string kSequential =
      "0x1.ff2e48e8a71dep-11|456|9482|245|0|0x0p+0|0x0p+0|0x0p+0|108|29|101|"
      "0x1.26e978d4fdf3bp-9";
  for (const int threads : {1, 2, 4}) {
    std::int64_t received = 0;
    const RunResult run =
        run_gossip(threads, MachineModel::zero_cost(), config, &received);
    EXPECT_EQ(fabric_fingerprint(run), kSequential) << "threads=" << threads;
    EXPECT_EQ(received, 144) << "threads=" << threads;
  }
}

/// Ranks 0 and 1 rally a growing message back and forth while ranks 2.. sit
/// silent with their clocks at 0. When the rally drains the queue, the idle
/// fan-out has each silent rank kick its successor among the silent ranks;
/// those sends carry the lagging clocks, so they arrive long before the
/// rally's last window. A kicked rank answers, and a silent rank is done
/// once its own kick is answered. Silent ranks log every delivery.
class IdleKickProcess final : public Process {
 public:
  static constexpr std::size_t kRallyBytes = 40;

  IdleKickProcess(Rank rank, Rank ranks) : rank_(rank), ranks_(ranks) {}

  void start(EventContext& ctx) override {
    if (rank_ == 0) ctx.send(1, std::vector<std::byte>(4), 1);
  }

  void handle(EventContext& ctx, Rank src,
              std::span<const std::byte> payload) override {
    ctx.charge(2.0);
    last_delivery_ = ctx.now();
    if (rank_ < 2) {
      if (payload.size() < kRallyBytes) {
        ctx.send(src, std::vector<std::byte>(payload.size() + 1), 1);
      }
      return;
    }
    std::ostringstream entry;
    entry << std::hexfloat << src << '@' << ctx.now() << ' ';
    log_ += entry.str();
    if (payload.size() == 1) {
      answered_ = true;
    } else {
      ctx.send(src, std::vector<std::byte>(1), 1);
    }
  }

  void idle(EventContext& ctx) override {
    if (kicked_) return;
    kicked_ = true;
    ctx.send(2 + (rank_ - 1) % (ranks_ - 2), std::vector<std::byte>(2), 1);
  }

  [[nodiscard]] bool done() const override { return rank_ < 2 || answered_; }

  [[nodiscard]] const std::string& log() const { return log_; }
  [[nodiscard]] double last_delivery() const { return last_delivery_; }

 private:
  Rank rank_;
  Rank ranks_;
  bool kicked_ = false;
  bool answered_ = false;
  double last_delivery_ = 0.0;
  std::string log_;
};

TEST(ExecEquivalence, LaggingIdleKickDispatchesBeforeLastWindow) {
  constexpr Rank kRanks = 6;
  FabricConfig config;
  config.jitter_seconds = 1e-6;
  config.jitter_seed = 4;
  config.fault.drop_rate = 0.2;
  config.fault.duplicate_rate = 0.1;
  config.fault.seed = 8;
  const std::string kSequential =
      "0x1.34b7003d8e43ap-11|130|6877|69|0|0x1.5798ee2308c3ap-24|"
      "0x1.98059ac99a687p-21|0x1.421f5f40d8379p-22|25|7|24|"
      "0x1.ec3f84923a9c6p-12";
  // Per silent rank 2..5: "src@arrival" in delivery order.
  const std::string kDeliveries =
      "5@0x1.d7ba798ba01ep-18 3@0x1.dc35a170731fep-17 | "
      "2@0x1.c541be36177b1p-18 4@0x1.5b292d8441946p-15 | "
      "5@0x1.f68a635c232e2p-17 3@0x1.1c4ece1213aa9p-15 | "
      "4@0x1.f13e005e8e09ap-18 2@0x1.d377150551104p-17 | ";
  for (const int threads : {1, 2, 4}) {
    EventEngine engine(MachineModel::blue_gene_p(), config,
                       ExecConfig{threads});
    std::vector<const IdleKickProcess*> procs;
    for (Rank r = 0; r < kRanks; ++r) {
      auto p = std::make_unique<IdleKickProcess>(r, kRanks);
      procs.push_back(p.get());
      engine.add_process(std::move(p));
    }
    const RunResult run = engine.run();
    std::string deliveries;
    double silent_last = 0.0;
    for (Rank r = 2; r < kRanks; ++r) {
      deliveries += procs[static_cast<std::size_t>(r)]->log() + "| ";
      silent_last = std::max(
          silent_last, procs[static_cast<std::size_t>(r)]->last_delivery());
    }
    // The kicks really did land before the rally's last delivery.
    EXPECT_LT(silent_last,
              std::max(procs[0]->last_delivery(), procs[1]->last_delivery()))
        << "threads=" << threads;
    EXPECT_EQ(fabric_fingerprint(run), kSequential) << "threads=" << threads;
    EXPECT_EQ(deliveries, kDeliveries) << "threads=" << threads;
  }
}

// The full drivers (BSP sync-superstep coloring, event-engine matching, JP)
// are covered by the determinism regression suite at threads 1/2/4; this
// keeps an engine-level probe so a future merge bug localizes here first.

}  // namespace
}  // namespace pmc
