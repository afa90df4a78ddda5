// Tests for the simulated runtime: machine model, the asynchronous
// EventEngine and the superstep BspEngine.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "runtime/bsp_engine.hpp"
#include "runtime/event_engine.hpp"
#include "runtime/frame_store.hpp"
#include "runtime/machine_model.hpp"
#include "runtime/serialize.hpp"
#include "support/error.hpp"
#include "test_util.hpp"

namespace pmc {
namespace {

// ---- frame store -----------------------------------------------------------

std::vector<std::byte> bytes_of(std::size_t n, int first) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>(first + static_cast<int>(i));
  }
  return v;
}

std::vector<std::byte> stored(const FrameStore& store, FrameStore::Handle h) {
  const std::span<const std::byte> b = store.bytes(h);
  return {b.begin(), b.end()};
}

TEST(FrameStore, KeepsShortAndLongFramesByHandle) {
  FrameStore store;
  const FrameStore::Handle empty = store.add({});
  const FrameStore::Handle short_frame = store.add(bytes_of(16, 1));
  const FrameStore::Handle long_frame = store.add(bytes_of(17, 50));
  EXPECT_EQ(store.size(empty), 0U);
  EXPECT_EQ(stored(store, short_frame), bytes_of(16, 1));
  EXPECT_EQ(stored(store, long_frame), bytes_of(17, 50));
}

TEST(FrameStore, LastReleaseFreesTheSlotForReuse) {
  FrameStore store;
  const FrameStore::Handle h = store.add(bytes_of(40, 3));
  store.reference(h);
  store.release(h);
  EXPECT_EQ(stored(store, h), bytes_of(40, 3));  // one holder left
  store.release(h);
  EXPECT_THROW((void)store.bytes(h), Error);  // read after the release
  EXPECT_THROW(store.release(h), Error);      // released twice
  EXPECT_THROW(store.reference(h), Error);
  const FrameStore::Handle again = store.add(bytes_of(5, 9));
  EXPECT_EQ(again, h);
  EXPECT_EQ(stored(store, again), bytes_of(5, 9));
}

TEST(FrameStore, CorruptedCopyLeavesTheSharedFrameIntact) {
  for (const std::size_t n : {std::size_t{12}, std::size_t{64}}) {
    FrameStore store;
    const FrameStore::Handle h = store.add(bytes_of(n, 7));
    const FrameStore::Handle copy = store.corrupted_copy(h, 42);
    EXPECT_NE(copy, h);
    std::vector<std::byte> expected = bytes_of(n, 7);
    corrupt_one_bit(expected, 42);
    EXPECT_EQ(stored(store, copy), expected) << n;
    EXPECT_EQ(stored(store, h), bytes_of(n, 7)) << n;
    store.release(copy);
    EXPECT_EQ(stored(store, h), bytes_of(n, 7)) << n;
  }
}

// ---- machine model ---------------------------------------------------------

TEST(MachineModel, MessageCostIncludesHeaderAndLatency) {
  MachineModel m;
  m.latency = 1e-6;
  m.seconds_per_byte = 1e-9;
  m.header_bytes = 32.0;
  EXPECT_DOUBLE_EQ(m.message_seconds(0.0), 1e-6 + 32e-9);
  EXPECT_DOUBLE_EQ(m.message_seconds(968.0), 1e-6 + 1000e-9);
}

TEST(MachineModel, CollectiveScalesLogarithmically) {
  const MachineModel m = MachineModel::blue_gene_p();
  EXPECT_DOUBLE_EQ(m.collective_seconds(1), 0.0);
  EXPECT_GT(m.collective_seconds(2), 0.0);
  EXPECT_NEAR(m.collective_seconds(1024) / m.collective_seconds(2), 10.0,
              1e-9);
}

TEST(MachineModel, ZeroCostReallyIsFree) {
  const MachineModel m = MachineModel::zero_cost();
  EXPECT_DOUBLE_EQ(m.message_seconds(1e6), 0.0);
  EXPECT_DOUBLE_EQ(m.collective_seconds(4096), 0.0);
}

// ---- event engine -------------------------------------------------------------

/// Ping-pong process: rank 0 sends `rounds` pings; rank 1 echoes.
class PingPong final : public Process {
 public:
  PingPong(Rank peer, bool initiator, int rounds)
      : peer_(peer), initiator_(initiator), rounds_(rounds) {}

  void start(EventContext& ctx) override {
    if (initiator_) {
      ctx.charge(1.0);
      ctx.send(peer_, make_payload(0), 1);
    }
  }

  void handle(EventContext& ctx, Rank src,
              std::span<const std::byte> payload) override {
    EXPECT_EQ(src, peer_);
    const auto hop = static_cast<int>(test::read_id_frame(payload));
    ++received_;
    if (hop + 1 < 2 * rounds_) {
      ctx.charge(1.0);
      ctx.send(peer_, make_payload(hop + 1), 1);
    } else {
      finished_ = true;
    }
    if (initiator_ && hop + 2 >= 2 * rounds_) finished_ = true;
  }

  [[nodiscard]] bool done() const override {
    return finished_ || received_ >= rounds_;
  }

  [[nodiscard]] int received() const { return received_; }

 private:
  static std::vector<std::byte> make_payload(int hop) {
    return test::id_frame(hop);
  }
  Rank peer_;
  bool initiator_;
  int rounds_;
  int received_ = 0;
  bool finished_ = false;
};

TEST(EventEngine, PingPongCompletesWithModeledTime) {
  EventEngine engine(MachineModel::blue_gene_p());
  engine.add_process(std::make_unique<PingPong>(1, true, 5));
  engine.add_process(std::make_unique<PingPong>(0, false, 5));
  const RunResult result = engine.run();
  EXPECT_EQ(result.comm.messages, 10);
  EXPECT_GT(result.sim_seconds, 0.0);
  // 10 hops, each at least one latency.
  EXPECT_GE(result.sim_seconds, 10 * MachineModel::blue_gene_p().latency);
}

/// Captures delivery order of two differently-sized messages.
class OrderRecorder final : public Process {
 public:
  void start(EventContext&) override {}
  void handle(EventContext&, Rank, std::span<const std::byte> payload) override {
    sizes.push_back(payload.size());
  }
  [[nodiscard]] bool done() const override { return true; }
  std::vector<std::size_t> sizes;
};

/// Sends a large then a small message to rank 1.
class BurstSender final : public Process {
 public:
  void start(EventContext& ctx) override {
    ctx.send(1, std::vector<std::byte>(10000), 1);  // slow (big) message
    ctx.send(1, std::vector<std::byte>(4), 1);      // fast (small) message
  }
  void handle(EventContext&, Rank, std::span<const std::byte>) override {}
  [[nodiscard]] bool done() const override { return true; }
};

TEST(EventEngine, ChannelFifoPreventsOvertaking) {
  // Without the FIFO rule the 4-byte message would arrive first.
  EventEngine engine(MachineModel::blue_gene_p());
  engine.add_process(std::make_unique<BurstSender>());
  engine.add_process(std::make_unique<OrderRecorder>());
  (void)engine.run();
  const auto& recorder = static_cast<OrderRecorder&>(engine.process(1));
  ASSERT_EQ(recorder.sizes.size(), 2u);
  EXPECT_EQ(recorder.sizes[0], 10000u);
  EXPECT_EQ(recorder.sizes[1], 4u);
}

/// A process that never finishes and never communicates: deadlock.
class Stuck final : public Process {
 public:
  void start(EventContext&) override {}
  void handle(EventContext&, Rank, std::span<const std::byte>) override {}
  [[nodiscard]] bool done() const override { return false; }
  [[nodiscard]] std::string debug_state() const override { return "stuck"; }
};

TEST(EventEngine, DetectsDeadlockWithDiagnostics) {
  EventEngine engine(MachineModel::zero_cost());
  engine.add_process(std::make_unique<Stuck>());
  try {
    (void)engine.run();
    FAIL() << "expected deadlock error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("stuck"), std::string::npos);
  }
}

/// Uses idle() to finish after quiescence.
class IdleFinisher final : public Process {
 public:
  void start(EventContext&) override {}
  void handle(EventContext&, Rank, std::span<const std::byte>) override {}
  void idle(EventContext& ctx) override {
    ctx.charge(1.0);
    finished_ = true;
  }
  [[nodiscard]] bool done() const override { return finished_; }

 private:
  bool finished_ = false;
};

TEST(EventEngine, IdleCallbackUnblocksQuiescentRanks) {
  EventEngine engine(MachineModel::zero_cost());
  engine.add_process(std::make_unique<IdleFinisher>());
  EXPECT_NO_THROW((void)engine.run());
}

TEST(EventEngine, RunTwiceIsRejected) {
  EventEngine engine(MachineModel::zero_cost());
  engine.add_process(std::make_unique<IdleFinisher>());
  (void)engine.run();
  EXPECT_THROW((void)engine.run(), Error);
}

/// Failure injection: a sender emits a record shorter than the one its
/// peer decodes; the receiving process's decoder must fail loudly (payload
/// underflow), and the error must propagate out of run() rather than being
/// swallowed.
class TruncatedSender final : public Process {
 public:
  void start(EventContext& ctx) override { ctx.send(1, test::id_frame(1), 1); }
  void handle(EventContext&, Rank, std::span<const std::byte>) override {}
  [[nodiscard]] bool done() const override { return true; }
};

class StrictReceiver final : public Process {
 public:
  void start(EventContext&) override {}
  void handle(EventContext&, Rank, std::span<const std::byte> payload) override {
    // An id and a color, but the frame holds only the id: underflow.
    for_each_record<ColorRecord>(payload, [](const ColorRecord&) {});
  }
  [[nodiscard]] bool done() const override { return true; }
};

TEST(EventEngine, MalformedPayloadPropagatesAsError) {
  EventEngine engine(MachineModel::zero_cost());
  engine.add_process(std::make_unique<TruncatedSender>());
  engine.add_process(std::make_unique<StrictReceiver>());
  try {
    (void)engine.run();
    FAIL() << "expected underflow error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("underflow"), std::string::npos);
  }
}

TEST(EventEngine, JitterIsDeterministicPerSeed) {
  auto run_once = [](std::uint64_t seed) {
    EventEngine engine(MachineModel::blue_gene_p(),
                       FabricConfig{1e-4, seed, FaultConfig{}, TraceConfig{}});
    engine.add_process(std::make_unique<PingPong>(1, true, 4));
    engine.add_process(std::make_unique<PingPong>(0, false, 4));
    return engine.run().sim_seconds;
  };
  EXPECT_DOUBLE_EQ(run_once(3), run_once(3));
  EXPECT_NE(run_once(3), run_once(4));
}

TEST(EventEngine, SelfSendRejected) {
  class SelfSender final : public Process {
   public:
    void start(EventContext& ctx) override {
      ctx.send(0, {}, 0);  // rank 0 sending to itself
    }
    void handle(EventContext&, Rank, std::span<const std::byte>) override {}
    [[nodiscard]] bool done() const override { return true; }
  };
  EventEngine engine(MachineModel::zero_cost());
  engine.add_process(std::make_unique<SelfSender>());
  EXPECT_THROW((void)engine.run(), Error);
}

// ---- bsp engine -----------------------------------------------------------------

// Rank work reaches the engine only through rank phases; these helpers run a
// phase in which a single rank acts.
using RankCtx = BspEngine::RankCtx;

void on_rank(BspEngine& engine, Rank r,
             const std::function<void(RankCtx&)>& body) {
  engine.run_ranks([&](RankCtx& ctx) {
    if (ctx.rank() == r) body(ctx);
  });
}

/// Runs an exchange() (barrier, then every rank drains its inbox) and
/// returns what rank r received.
std::vector<BspMessage> exchange_to(BspEngine& engine, Rank r) {
  std::vector<BspMessage> out;
  engine.exchange([&](RankCtx& ctx, std::vector<BspMessage> msgs) {
    if (ctx.rank() == r) out = std::move(msgs);
  });
  return out;
}

std::vector<BspMessage> poll_rank(BspEngine& engine, Rank r) {
  std::vector<BspMessage> out;
  engine.run_ranks_snapshot([&](RankCtx& ctx) {
    if (ctx.rank() == r) out = ctx.poll();
  });
  return out;
}

TEST(BspEngine, PollRespectsArrivalTimes) {
  BspEngine engine(2, MachineModel::blue_gene_p());
  on_rank(engine, 0,
          [](RankCtx& ctx) { ctx.send(1, test::id_frame(42), 1); });
  // Rank 1's clock is still 0 — the message has not "arrived" yet.
  EXPECT_TRUE(poll_rank(engine, 1).empty());
  // Advance rank 1 beyond the arrival time.
  on_rank(engine, 1, [](RankCtx& ctx) { ctx.charge(1e9); });
  const auto msgs = poll_rank(engine, 1);
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(test::read_id_frame(msgs[0].payload), 42);
}

TEST(BspEngine, ExchangeDeliversEverything) {
  BspEngine engine(3, MachineModel::blue_gene_p());
  engine.run_ranks([](RankCtx& ctx) {
    if (ctx.rank() != 2) ctx.send(2, std::vector<std::byte>(8), 1);
  });
  EXPECT_EQ(exchange_to(engine, 2).size(), 2u);
  EXPECT_EQ(engine.comm().collectives, 1);
  // All clocks equal after a barrier.
  EXPECT_DOUBLE_EQ(engine.now(0), engine.now(1));
  EXPECT_DOUBLE_EQ(engine.now(1), engine.now(2));
}

TEST(BspEngine, BarrierAdvancesPastInFlightArrivals) {
  BspEngine engine(2, MachineModel::blue_gene_p());
  on_rank(engine, 0, [](RankCtx& ctx) {
    ctx.charge(1000.0);
    ctx.send(1, std::vector<std::byte>(100), 1);
  });
  const double sender_time = engine.now(0);
  engine.barrier();
  EXPECT_GT(engine.now(1), sender_time);
}

TEST(BspEngine, ChargeAccumulatesWork) {
  MachineModel m = MachineModel::zero_cost();
  m.seconds_per_work = 2.0;
  BspEngine engine(1, m);
  engine.run_ranks([](RankCtx& ctx) { ctx.charge(3.0); });
  EXPECT_DOUBLE_EQ(engine.now(0), 6.0);
  EXPECT_DOUBLE_EQ(engine.time(), 6.0);
}

TEST(BspEngine, FifoWithinChannel) {
  BspEngine engine(2, MachineModel::blue_gene_p());
  on_rank(engine, 0, [](RankCtx& ctx) {
    ctx.send(1, std::vector<std::byte>(10000), 1);
    ctx.send(1, std::vector<std::byte>(2), 1);
  });
  const auto msgs = exchange_to(engine, 1);
  ASSERT_EQ(msgs.size(), 2u);
  EXPECT_EQ(msgs[0].payload.size(), 10000u);
  EXPECT_LE(msgs[0].arrival, msgs[1].arrival);
}

TEST(BspEngine, CommStatsCount) {
  BspEngine engine(2, MachineModel::blue_gene_p());
  engine.run_ranks([](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.send(1, std::vector<std::byte>(10), 3);
    } else {
      ctx.send(0, std::vector<std::byte>(20), 2);
    }
  });
  EXPECT_EQ(engine.comm().messages, 2);
  EXPECT_EQ(engine.comm().records, 5);
  EXPECT_GT(engine.comm().bytes, 30);
}

TEST(BspEngine, LoadStatsTrackChargedCompute) {
  MachineModel m = MachineModel::zero_cost();
  m.seconds_per_work = 1.0;
  BspEngine engine(3, m);
  engine.run_ranks([](RankCtx& ctx) {
    const double work[] = {1.0, 2.0, 6.0};
    ctx.charge(work[ctx.rank()]);
  });
  const LoadStats load = engine.load_stats();
  EXPECT_DOUBLE_EQ(load.min_seconds, 1.0);
  EXPECT_DOUBLE_EQ(load.max_seconds, 6.0);
  EXPECT_DOUBLE_EQ(load.mean_seconds, 3.0);
  EXPECT_DOUBLE_EQ(load.imbalance(), 2.0);
}

TEST(BspEngine, LoadStatsUnaffectedByBarriers) {
  BspEngine engine(2, MachineModel::blue_gene_p());
  on_rank(engine, 0, [](RankCtx& ctx) { ctx.charge(100.0); });
  engine.barrier();  // synchronizes clocks, not charged compute
  const LoadStats load = engine.load_stats();
  EXPECT_GT(load.max_seconds, 0.0);
  EXPECT_DOUBLE_EQ(load.min_seconds, 0.0);
}

TEST(BspEngine, RejectsInvalidSends) {
  BspEngine engine(2, MachineModel::zero_cost());
  EXPECT_THROW(on_rank(engine, 0, [](RankCtx& ctx) { ctx.send(0, {}, 0); }),
               Error);
  EXPECT_THROW(on_rank(engine, 0, [](RankCtx& ctx) { ctx.send(5, {}, 0); }),
               Error);
}

TEST(BspEngine, MessagesCarryRecordCounts) {
  BspEngine engine(2, MachineModel::blue_gene_p());
  on_rank(engine, 0, [](RankCtx& ctx) {
    ctx.send(1, std::vector<std::byte>(10), 3);
    ctx.send(1, std::vector<std::byte>(20), 7);
  });
  const auto msgs = exchange_to(engine, 1);
  ASSERT_EQ(msgs.size(), 2u);
  EXPECT_EQ(msgs[0].records, 3);
  EXPECT_EQ(msgs[1].records, 7);
}

TEST(BspEngine, PendingHorizonMatchesBruteForceScan) {
  // Jitter makes arrivals land out of send order across channels, so the
  // incremental horizon (per-inbox back() of the sorted deques) is only
  // right if the sorted-insert invariant really holds.
  BspEngine engine(4, MachineModel::blue_gene_p(),
                   FabricConfig{2e-6, 9, FaultConfig{}, TraceConfig{}});
  for (int i = 0; i < 6; ++i) {
    engine.run_ranks([i](RankCtx& ctx) {
      if (ctx.rank() == i % 4) {
        ctx.charge(50.0 * (i + 1));
        ctx.send((i + 1) % 4,
                 std::vector<std::byte>(static_cast<std::size_t>(17 * (i + 1))),
                 1);
      }
      if (ctx.rank() == (i + 2) % 4) {
        ctx.send((i + 3) % 4, std::vector<std::byte>(5), 1);
      }
    });
  }
  const double horizon = engine.pending_horizon();
  std::vector<double> latest(4, 0.0);
  engine.exchange([&](RankCtx& ctx, std::vector<BspMessage> msgs) {
    for (const BspMessage& msg : msgs) {
      latest[static_cast<std::size_t>(ctx.rank())] =
          std::max(latest[static_cast<std::size_t>(ctx.rank())], msg.arrival);
    }
  });
  const double brute = *std::max_element(latest.begin(), latest.end());
  EXPECT_GT(brute, 0.0);
  EXPECT_EQ(horizon, brute);
  EXPECT_EQ(engine.pending_horizon(), 0.0);
}

TEST(BspEngine, BarrierUsesThePendingHorizon) {
  BspEngine engine(3, MachineModel::blue_gene_p());
  engine.run_ranks([](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.charge(1000.0);
      ctx.send(2, std::vector<std::byte>(100), 1);
    } else if (ctx.rank() == 1) {
      ctx.send(2, std::vector<std::byte>(8), 1);
    }
  });
  const double expected =
      std::max(engine.time(), engine.pending_horizon()) +
      engine.model().collective_seconds(3);
  engine.barrier();
  EXPECT_EQ(engine.now(0), expected);
  EXPECT_EQ(engine.now(2), expected);
}

TEST(BspEngine, PollRequiresASnapshotPhase) {
  BspEngine engine(2, MachineModel::blue_gene_p());
  // Mid-superstep polling outside run_ranks_snapshot() is a contract
  // violation.
  EXPECT_THROW(
      engine.run_ranks([](RankCtx& ctx) { (void)ctx.poll(); }), Error);
}

TEST(BspEngine, SnapshotPollIsOneShotAndBeforeWork) {
  BspEngine engine(2, MachineModel::blue_gene_p());
  EXPECT_THROW(engine.run_ranks_snapshot([](RankCtx& ctx) {
    (void)ctx.poll();
    (void)ctx.poll();  // at most once per callback
  }),
               Error);
  EXPECT_THROW(engine.run_ranks_snapshot([](RankCtx& ctx) {
    ctx.charge(1.0);
    (void)ctx.poll();  // must precede any charge or send
  }),
               Error);
}

TEST(BspEngine, SnapshotPhaseDeliversArrivedMessages) {
  BspEngine engine(2, MachineModel::blue_gene_p());
  on_rank(engine, 0, [](RankCtx& ctx) {
    ctx.send(1, std::vector<std::byte>(16), 2);
  });
  engine.barrier();  // equal clocks past the arrival; inbox still pending
  std::size_t seen = 0;
  std::int64_t records = 0;
  engine.run_ranks_snapshot([&](RankCtx& ctx) {
    for (const BspMessage& msg : ctx.poll()) {
      ++seen;
      records += msg.records;
    }
  });
  // Equalized clocks always pass the safety check, so this harvested every
  // rank up front.
  EXPECT_EQ(engine.snapshot_parallel_phases(), 1);
  EXPECT_EQ(engine.snapshot_fallback_phases(), 0);
  EXPECT_EQ(seen, 1u);
  EXPECT_EQ(records, 2);
  EXPECT_TRUE(exchange_to(engine, 1).empty());
}

TEST(BspEngine, SnapshotPhaseRestoresUnconsumedMessages) {
  BspEngine engine(2, MachineModel::blue_gene_p());
  on_rank(engine, 0, [](RankCtx& ctx) {
    ctx.send(1, std::vector<std::byte>(16), 2);
  });
  engine.barrier();
  // The harvest pass pre-polls rank 1's inbox, but the callback never asks
  // for it — the message must go back to pending, not be lost.
  engine.run_ranks_snapshot([](RankCtx& ctx) { ctx.charge(1.0); });
  EXPECT_EQ(engine.snapshot_parallel_phases(), 1);
  const auto msgs = exchange_to(engine, 1);
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0].records, 2);
}

TEST(BspEngine, SnapshotFallbackSeesSameSuperstepSends) {
  // Rank 1's clock is far ahead of rank 0's bound, so the safety check must
  // refuse the up-front harvest — and the rank-by-rank fallback must keep
  // the sequential semantics where rank 1's poll sees rank 0's send from the
  // *same* superstep.
  BspEngine engine(2, MachineModel::blue_gene_p());
  on_rank(engine, 1, [](RankCtx& ctx) { ctx.charge(1e6); });
  std::size_t rank1_saw = 0;
  engine.run_ranks_snapshot([&](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      (void)ctx.poll();
      ctx.send(1, std::vector<std::byte>(8), 1);
    } else {
      rank1_saw = ctx.poll().size();
    }
  });
  EXPECT_EQ(engine.snapshot_parallel_phases(), 0);
  EXPECT_EQ(engine.snapshot_fallback_phases(), 1);
  EXPECT_EQ(rank1_saw, 1u);
}

}  // namespace
}  // namespace pmc
