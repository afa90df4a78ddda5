// Tests for the shared communication fabric (runtime/fabric.hpp): clocks and
// cost charging, the per-channel FIFO non-overtaking invariant (with and
// without jitter), the Outbox every per-destination record stages through
// and the FanoutStage send policies on top of it, and the per-rank /
// per-round instrumentation breakdowns.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <numeric>
#include <string>
#include <type_traits>
#include <vector>

#include "core/pmc.hpp"
#include "runtime/fabric.hpp"
#include "support/error.hpp"
#include "test_util.hpp"

namespace pmc {
namespace {

// ---- CommFabric: clocks, sends, collectives --------------------------------

// Every send is priced by the sender's lane: only Lane::begin_send() makes a
// SendTime, and post_send_at() takes nothing else — not a constant, not a
// live clock read.
using SendTime = CommFabric::SendTime;
static_assert(!std::is_constructible_v<SendTime, double>);
static_assert(!std::is_default_constructible_v<SendTime>);
static_assert(std::is_trivially_copyable_v<SendTime>);
template <typename F>
concept PricesAtADouble = requires(F& fabric, double t) {
  fabric.post_send_at(Rank{0}, Rank{1}, std::size_t{0}, std::int64_t{0}, t);
};
static_assert(!PricesAtADouble<CommFabric>);

/// One send the way the engines make it: the sender's lane pays the software
/// overhead (and any stall wait), its clock is installed back, and the fabric
/// prices the message at the lane's send time.
CommFabric::SendReceipt send_via_lane(CommFabric& fabric, Rank src, Rank dst,
                                      std::size_t payload_bytes,
                                      std::int64_t records) {
  CommFabric::Lane lane = fabric.make_lane(src);
  const SendTime send_time = lane.begin_send();
  fabric.absorb_lane(lane);
  return fabric.post_send_at(src, dst, payload_bytes, records, send_time);
}

TEST(CommFabric, LaneSendChargesOverheadAndPricesMessage) {
  const MachineModel m = MachineModel::blue_gene_p();
  CommFabric fabric(m);
  fabric.add_rank();
  fabric.add_rank();
  const auto receipt = send_via_lane(fabric, 0, 1, 100, 3);
  // The sender pays the LogP software overhead; the arrival adds the
  // alpha-beta transfer cost on top.
  EXPECT_DOUBLE_EQ(fabric.now(0), m.send_overhead);
  EXPECT_DOUBLE_EQ(receipt.arrival, m.send_overhead + m.message_seconds(100.0));
  EXPECT_EQ(receipt.seq, 0u);
  EXPECT_EQ(fabric.comm().messages, 1);
  EXPECT_EQ(fabric.comm().records, 3);
  EXPECT_EQ(fabric.comm().bytes,
            100 + static_cast<std::int64_t>(m.header_bytes));
}

TEST(CommFabric, RejectsInvalidSends) {
  CommFabric fabric(MachineModel::zero_cost());
  fabric.add_rank();
  fabric.add_rank();
  EXPECT_THROW((void)send_via_lane(fabric, 0, 0, 0, 0), Error);
  EXPECT_THROW((void)send_via_lane(fabric, 0, 7, 0, 0), Error);
}

TEST(CommFabric, FifoNonOvertakingWithinChannel) {
  CommFabric fabric(MachineModel::blue_gene_p());
  fabric.add_rank();
  fabric.add_rank();
  const auto big = send_via_lane(fabric, 0, 1, 100000, 1);
  const auto small = send_via_lane(fabric, 0, 1, 4, 1);
  // The small message is cheaper but may not overtake the big one.
  EXPECT_GE(small.arrival, big.arrival);
}

TEST(CommFabric, FifoNonOvertakingHoldsUnderJitter) {
  FabricConfig config;
  config.jitter_seconds = 1e-3;  // enormous vs the transfer costs
  config.jitter_seed = 42;
  CommFabric fabric(MachineModel::blue_gene_p(), config);
  for (int r = 0; r < 3; ++r) fabric.add_rank();
  std::map<std::pair<Rank, Rank>, double> last_arrival;
  // A burst of variously-sized messages across several channels: arrivals
  // must stay non-decreasing per (src, dst) channel no matter the jitter.
  for (int i = 0; i < 64; ++i) {
    const Rank src = static_cast<Rank>(i % 3);
    const Rank dst = static_cast<Rank>((i + 1 + i % 2) % 3);
    if (src == dst) continue;
    const std::size_t bytes = static_cast<std::size_t>((i * 37) % 5000);
    const auto receipt = send_via_lane(fabric, src, dst, bytes, 1);
    const auto key = std::make_pair(src, dst);
    const auto it = last_arrival.find(key);
    if (it != last_arrival.end()) {
      EXPECT_GE(receipt.arrival, it->second)
          << "message overtook its predecessor on channel " << src << "->"
          << dst;
    }
    last_arrival[key] = receipt.arrival;
  }
}

TEST(CommFabric, FifoHoldsOnChannelsOpenedInAnyOrder) {
  // Nine sources first open their channels in descending destination order;
  // then a tenth rank joins and every source sends again in interleaved
  // order, reusing old channels and opening new ones before, between and
  // after them. The jitter dwarfs the transfer costs, so later sends keep
  // trying to overtake earlier ones.
  FabricConfig config;
  config.jitter_seconds = 1e-4;
  config.jitter_seed = 7;
  CommFabric fabric(MachineModel::blue_gene_p(), config);
  for (int r = 0; r < 9; ++r) fabric.add_rank();
  std::vector<double> arrivals;
  std::map<std::pair<Rank, Rank>, double> last_arrival;
  const auto send = [&](Rank src, Rank dst) {
    if (src == dst) return;
    const std::size_t bytes = (arrivals.size() * 97) % 3000;
    const double arrival = send_via_lane(fabric, src, dst, bytes, 1).arrival;
    const auto [it, first] = last_arrival.try_emplace({src, dst}, arrival);
    EXPECT_GE(arrival, it->second) << "channel " << src << "->" << dst;
    it->second = arrival;
    arrivals.push_back(arrival);
  };
  for (Rank src = 0; src < 9; ++src) {
    for (const Rank dst : {8, 5, 2}) send(src, dst);
  }
  fabric.add_rank();
  for (Rank src = 0; src < 10; ++src) {
    for (const Rank dst : {4, 9, 2, 0, 8}) send(src, dst);
  }
  // Recorded before the channel state moved off a hash map.
  const std::vector<double> want = {
      0x1.74cc29082b3e9p-15, 0x1.bfadee2bd5ca1p-15, 0x1.4545da25a5581p-16,
      0x1.958fc4e0fefcdp-14, 0x1.1ccbdd252992ep-15, 0x1.111e787f2cc54p-14,
      0x1.8b2ad43d40129p-16, 0x1.0573a749cb36p-15, 0x1.71c04cf9305eep-14,
      0x1.01528ae79bd97p-14, 0x1.76957b141fac6p-14, 0x1.6dc216bac0b62p-16,
      0x1.1f5f331b9e02fp-14, 0x1.9e6784639db72p-14, 0x1.a7950686f1ae1p-14,
      0x1.5c68c10d977f2p-14, 0x1.20d6f1d94931cp-14, 0x1.8e5400d77f864p-15,
      0x1.48b8c657725e2p-14, 0x1.376acc9cc2516p-15, 0x1.80db84334db26p-15,
      0x1.8d34d5fc41071p-14, 0x1.ebd80ead7434ap-15, 0x1.6b08de63aa21ap-15,
      0x1.b249d96a38007p-14, 0x1.763633c94489ep-14, 0x1.cfa7ed837425p-15,
      0x1.0465beb4c6c1bp-14, 0x1.bde5c68b89e3dp-15, 0x1.53b5ac9d42bd6p-15,
      0x1.111e787f2cc54p-14, 0x1.a5feaf709fbf2p-15, 0x1.958fc4e0fefcdp-14,
      0x1.4407907e94824p-17, 0x1.63516112b5ad7p-14, 0x1.b77590c9300e9p-16,
      0x1.031679b1bc1aep-14, 0x1.b489ad00c76eap-15, 0x1.f67108162c0b1p-17,
      0x1.76957b141fac6p-14, 0x1.c37c507734ce9p-15, 0x1.8234f53fd6389p-14,
      0x1.61d22e25713fep-16, 0x1.9e6784639db72p-14, 0x1.9efd2fddb6fadp-14,
      0x1.62ff248d13934p-15, 0x1.c9606ac78e2a8p-16, 0x1.c2f7077bcc574p-16,
      0x1.5c68c10d977f2p-14, 0x1.81f11758f05e4p-14, 0x1.a7950686f1ae1p-14,
      0x1.835eddb85999p-15, 0x1.61c45269bbcf8p-14, 0x1.48b8c657725e2p-14,
      0x1.060953bcb6b98p-15, 0x1.405104d99919bp-14, 0x1.7f7a00deeda32p-14,
      0x1.482cc8ad77b2p-15, 0x1.8d34d5fc41071p-14, 0x1.40b14b705d8a2p-15,
      0x1.35e07e730cb82p-14, 0x1.906ab2f844c5fp-16, 0x1.efc6b594bfcdbp-15,
      0x1.95df787aba17p-14, 0x1.adc6f2c695d89p-14, 0x1.03df83e73604ap-15,
      0x1.31a237412affcp-17, 0x1.66afcff1b52e8p-15, 0x1.410fc77b29b57p-14};
  EXPECT_EQ(arrivals, want);
}

TEST(CommFabric, CollectiveAdvancesEveryClockToCommonHorizon) {
  const MachineModel m = MachineModel::blue_gene_p();
  CommFabric fabric(m);
  for (int r = 0; r < 4; ++r) fabric.add_rank();
  CommFabric::Lane lane = fabric.make_lane(2);
  lane.charge(1000.0);
  fabric.absorb_lane(lane);
  const double horizon = fabric.max_time();
  fabric.complete_collective(horizon);
  const double expected = horizon + m.collective_seconds(4);
  for (Rank r = 0; r < 4; ++r) EXPECT_DOUBLE_EQ(fabric.now(r), expected);
  EXPECT_EQ(fabric.comm().collectives, 1);
}

// A lane prices a charge exactly as MachineModel::compute_seconds does, from
// the model's fields it cached, at one thread per rank and at hybrid
// speedups.
TEST(CommFabric, LaneChargeIsComputeSecondsExactly) {
  std::vector<MachineModel> models = {MachineModel::blue_gene_p()};
  for (const int threads : {2, 4, 16}) {
    for (const double efficiency : {0.8, 0.9, 1.0}) {
      models.push_back(
          MachineModel::blue_gene_p().with_threads(threads, efficiency));
    }
  }
  for (const MachineModel& m : models) {
    CommFabric fabric(m);
    fabric.add_rank();
    for (const double w : {0.0, 1.0, 2.5, 7.0, 1e6}) {
      CommFabric::Lane lane = fabric.make_lane(0);
      lane.charge(w);
      EXPECT_EQ(lane.now(), m.compute_seconds(w))
          << m.name << " threads=" << m.threads_per_rank
          << " efficiency=" << m.thread_efficiency << " w=" << w;
    }
  }
}

TEST(CommFabric, ChargeAttributesPhasesInBreakdown) {
  MachineModel m = MachineModel::zero_cost();
  m.seconds_per_work = 1.0;
  CommFabric fabric(m);
  fabric.add_rank();
  fabric.add_rank();
  CommFabric::Lane lane0 = fabric.make_lane(0);
  lane0.charge(2.0, WorkPhase::kInterior);
  lane0.charge(3.0, WorkPhase::kBoundary);
  fabric.absorb_lane(lane0);
  CommFabric::Lane lane1 = fabric.make_lane(1);
  lane1.set_phase(WorkPhase::kBoundary);
  fabric.absorb_lane(lane1);
  // The phase label sticks across lanes: the next lane of rank 1 inherits it.
  lane1 = fabric.make_lane(1);
  lane1.charge(5.0);
  fabric.absorb_lane(lane1);
  const CommBreakdown& b = fabric.breakdown();
  ASSERT_EQ(b.interior_seconds.size(), 2u);
  EXPECT_DOUBLE_EQ(b.interior_seconds[0], 2.0);
  EXPECT_DOUBLE_EQ(b.boundary_seconds[0], 3.0);
  EXPECT_DOUBLE_EQ(b.boundary_seconds[1], 5.0);
  EXPECT_DOUBLE_EQ(b.interior_seconds[1], 0.0);
}

TEST(CommFabric, BreakdownAttributesSendsToRankAndRound) {
  CommFabric fabric(MachineModel::blue_gene_p());
  fabric.add_rank();
  fabric.add_rank();
  fabric.note({.kind = CommEvent::Kind::kRound, .rank = 0, .value = 0});
  (void)send_via_lane(fabric, 0, 1, 8, 2);
  fabric.note({.kind = CommEvent::Kind::kRound, .rank = 0, .value = 3});
  (void)send_via_lane(fabric, 0, 1, 8, 1);
  const CommBreakdown& b = fabric.breakdown();
  ASSERT_EQ(b.per_rank.size(), 2u);
  EXPECT_EQ(b.per_rank[0].messages, 2);
  EXPECT_EQ(b.per_rank[1].messages, 0);
  ASSERT_EQ(b.per_round.size(), 4u);  // rounds 0..3
  EXPECT_EQ(b.per_round[0].records, 2);
  EXPECT_EQ(b.per_round[1].messages, 0);
  EXPECT_EQ(b.per_round[3].records, 1);
}

TEST(CommBreakdown, SizeBucketsArePowersOfTwo) {
  EXPECT_EQ(CommBreakdown::size_bucket(0), 0u);
  EXPECT_EQ(CommBreakdown::size_bucket(1), 0u);
  EXPECT_EQ(CommBreakdown::size_bucket(2), 1u);
  EXPECT_EQ(CommBreakdown::size_bucket(3), 1u);
  EXPECT_EQ(CommBreakdown::size_bucket(1024), 10u);
  EXPECT_EQ(CommBreakdown::size_bucket(std::int64_t{1} << 40),
            kMessageSizeBuckets - 1);
}

TEST(CommBreakdown, SizeBucketEdgeCases) {
  // Degenerate inputs clamp into the first bucket instead of indexing with
  // bit_width of a sign-extended cast.
  EXPECT_EQ(CommBreakdown::size_bucket(-1), 0u);
  EXPECT_EQ(CommBreakdown::size_bucket(std::numeric_limits<std::int64_t>::min()),
            0u);
  // Boundary of the last regular bucket vs the overflow bucket.
  EXPECT_EQ(CommBreakdown::size_bucket((std::int64_t{1} << 23) - 1),
            kMessageSizeBuckets - 2);
  EXPECT_EQ(CommBreakdown::size_bucket(std::int64_t{1} << 23),
            kMessageSizeBuckets - 1);
  EXPECT_EQ(CommBreakdown::size_bucket((std::int64_t{1} << 23) + 1),
            kMessageSizeBuckets - 1);
  EXPECT_EQ(CommBreakdown::size_bucket(std::numeric_limits<std::int64_t>::max()),
            kMessageSizeBuckets - 1);
}

// ---- fault injection --------------------------------------------------------

FabricConfig fault_config(double drop, double dup, double delay = 0.0,
                          std::uint64_t seed = 1) {
  FabricConfig config;
  config.fault.drop_rate = drop;
  config.fault.duplicate_rate = dup;
  config.fault.delay_rate = delay;
  if (delay > 0.0) config.fault.max_extra_delay_seconds = 1e-5;
  config.fault.seed = seed;
  return config;
}

TEST(FaultInjection, DisabledConfigIsInert) {
  EXPECT_FALSE(FaultConfig{}.enabled());
  CommFabric plain(MachineModel::blue_gene_p());
  CommFabric with_cfg(MachineModel::blue_gene_p(), FabricConfig{});
  plain.add_rank();
  plain.add_rank();
  with_cfg.add_rank();
  with_cfg.add_rank();
  const auto a = send_via_lane(plain, 0, 1, 64, 1);
  const auto b = send_via_lane(with_cfg, 0, 1, 64, 1);
  EXPECT_EQ(a.arrival, b.arrival);
  EXPECT_FALSE(b.dropped);
  EXPECT_FALSE(b.duplicated);
  EXPECT_FALSE(with_cfg.breakdown().total_faults().any());
}

TEST(FaultInjection, RejectsInvalidRates) {
  EXPECT_THROW(CommFabric(MachineModel::zero_cost(),
                          fault_config(1.5, 0.0)),
               Error);
  EXPECT_THROW(CommFabric(MachineModel::zero_cost(),
                          fault_config(0.0, -0.1)),
               Error);
  FabricConfig bad_delay;
  bad_delay.fault.delay_rate = 0.5;  // no max_extra_delay_seconds
  EXPECT_THROW(CommFabric(MachineModel::zero_cost(), bad_delay), Error);
  FabricConfig bad_attempts = fault_config(0.1, 0.0);
  bad_attempts.fault.max_attempts = 0;
  EXPECT_THROW(CommFabric(MachineModel::zero_cost(), bad_attempts), Error);
}

TEST(FaultInjection, CertainDropLosesEveryMessageAndCountsIt) {
  CommFabric fabric(MachineModel::blue_gene_p(), fault_config(1.0, 0.0));
  fabric.add_rank();
  fabric.add_rank();
  for (int i = 0; i < 10; ++i) {
    const auto receipt = send_via_lane(fabric, 0, 1, 32, 1);
    EXPECT_TRUE(receipt.dropped);
    EXPECT_FALSE(receipt.duplicated);  // dropped messages never duplicate
  }
  // Sends are still accounted (the sender did send); drops are charged to
  // the sending rank.
  EXPECT_EQ(fabric.comm().messages, 10);
  const FaultStats total = fabric.breakdown().total_faults();
  EXPECT_EQ(total.drops, 10);
  EXPECT_EQ(total.duplicates, 0);
  ASSERT_EQ(fabric.breakdown().per_rank_faults.size(), 2u);
  EXPECT_EQ(fabric.breakdown().per_rank_faults[0].drops, 10);
  EXPECT_EQ(fabric.breakdown().per_rank_faults[1].drops, 0);
}

TEST(FaultInjection, CertainDuplicationDeliversASecondCopyNoEarlier) {
  CommFabric fabric(MachineModel::blue_gene_p(), fault_config(0.0, 1.0));
  fabric.add_rank();
  fabric.add_rank();
  for (int i = 0; i < 10; ++i) {
    const auto receipt = send_via_lane(fabric, 0, 1, 32, 1);
    EXPECT_FALSE(receipt.dropped);
    EXPECT_TRUE(receipt.duplicated);
    EXPECT_GE(receipt.duplicate_arrival, receipt.arrival);
  }
  EXPECT_EQ(fabric.breakdown().total_faults().duplicates, 10);
}

TEST(FaultInjection, InjectedDelayOnlyDefersArrival) {
  const MachineModel m = MachineModel::blue_gene_p();
  CommFabric fabric(m, fault_config(0.0, 0.0, 1.0));
  fabric.add_rank();
  fabric.add_rank();
  const auto receipt = send_via_lane(fabric, 0, 1, 64, 1);
  const double undelayed = m.send_overhead + m.message_seconds(64.0);
  EXPECT_FALSE(receipt.dropped);
  EXPECT_GE(receipt.arrival, undelayed);
  EXPECT_LE(receipt.arrival, undelayed + 1e-5);
}

TEST(FaultInjection, VerdictsAreDeterministicInTheSeed) {
  auto verdicts = [](std::uint64_t seed) {
    CommFabric fabric(MachineModel::blue_gene_p(),
                      fault_config(0.3, 0.2, 0.0, seed));
    fabric.add_rank();
    fabric.add_rank();
    std::vector<int> out;
    for (int i = 0; i < 64; ++i) {
      const auto receipt = send_via_lane(fabric, 0, 1, 32, 1);
      out.push_back(receipt.dropped ? 2 : (receipt.duplicated ? 1 : 0));
    }
    return out;
  };
  EXPECT_EQ(verdicts(7), verdicts(7));
  EXPECT_NE(verdicts(7), verdicts(8));
  // Rates in (0,1) produce a mix, not all-or-nothing.
  const auto v = verdicts(7);
  EXPECT_NE(std::count(v.begin(), v.end(), 0), 0);
  EXPECT_NE(std::count(v.begin(), v.end(), 2), 0);
}

TEST(FaultInjection, StallWindowDefersInjectionAndDelivery) {
  const MachineModel m = MachineModel::blue_gene_p();
  FabricConfig config;
  config.fault.stalls.push_back(StallWindow{0, 0.0, 1e-3});
  CommFabric fabric(m, config);
  fabric.add_rank();
  fabric.add_rank();
  EXPECT_TRUE(fabric.config().fault.enabled());
  // Sender rank 0 is stalled at t=0: its send waits for the window to end.
  const auto from_stalled = send_via_lane(fabric, 0, 1, 8, 1);
  EXPECT_GE(from_stalled.arrival, 1e-3);
  EXPECT_GE(fabric.now(0), 1e-3);
  // A delivery *to* rank 0 inside the window is deferred past it.
  const auto to_stalled = send_via_lane(fabric, 1, 0, 8, 1);
  EXPECT_GE(to_stalled.arrival, 1e-3);
  EXPECT_LT(fabric.now(1), 1e-3);  // the unstalled sender is not delayed
}

TEST(FaultInjection, StallClearHandlesChainedWindows) {
  FabricConfig config;
  config.fault.stalls.push_back(StallWindow{0, 0.0, 1.0});
  config.fault.stalls.push_back(StallWindow{0, 1.0, 1.0});
  config.fault.stalls.push_back(StallWindow{1, 5.0, 1.0});
  CommFabric fabric(MachineModel::zero_cost(), config);
  fabric.add_rank();
  fabric.add_rank();
  EXPECT_DOUBLE_EQ(fabric.stall_clear(0, 0.5), 2.0);  // hops both windows
  EXPECT_DOUBLE_EQ(fabric.stall_clear(0, 2.5), 2.5);
  EXPECT_DOUBLE_EQ(fabric.stall_clear(1, 0.5), 0.5);  // other rank's window
  EXPECT_DOUBLE_EQ(fabric.stall_clear(1, 5.5), 6.0);
}

TEST(FaultInjection, RecoveryHooksChargeTheBreakdown) {
  CommFabric fabric(MachineModel::blue_gene_p(), fault_config(0.5, 0.0));
  fabric.add_rank();
  fabric.add_rank();
  fabric.note({.kind = CommEvent::Kind::kRetry, .rank = 0, .peer = 1,
               .value = 2});
  fabric.note({.kind = CommEvent::Kind::kBackoff, .rank = 0,
               .seconds = 1e-4});
  fabric.note({.kind = CommEvent::Kind::kDupSuppressed, .rank = 1});
  const CommBreakdown& b = fabric.breakdown();
  EXPECT_EQ(b.per_rank_faults[0].retries, 1);
  EXPECT_DOUBLE_EQ(b.per_rank_faults[0].backoff_seconds, 1e-4);
  EXPECT_EQ(b.per_rank_faults[1].dup_suppressed, 1);
  const FaultStats total = b.total_faults();
  EXPECT_TRUE(total.any());
  EXPECT_EQ(total.retries, 1);
  // Round attribution mirrors the rank attribution.
  ASSERT_FALSE(b.per_round_faults.empty());
  EXPECT_EQ(b.per_round_faults[0].retries, 1);
}

// ---- Outbox -----------------------------------------------------------------

/// Collects every (dst, payload, records) triple a flush emits and decodes
/// the record ids back out for loss/duplication checks.
struct SendLog {
  struct Sent {
    Rank dst;
    std::vector<std::byte> payload;
    std::int64_t records;
  };
  std::vector<Sent> sent;

  auto sink() {
    return [this](Rank dst, std::vector<std::byte> payload,
                  std::int64_t records) {
      sent.push_back({dst, std::move(payload), records});
    };
  }

  [[nodiscard]] std::vector<int> decode_ids() const {
    std::vector<int> ids;
    for (const auto& s : sent) {
      if (s.payload.empty()) {
        EXPECT_EQ(s.records, 0) << "empty frame claimed records";
        continue;
      }
      EXPECT_EQ(FrameReader(s.payload).records(), s.records)
          << "record count disagrees with payload";
      for_each_record<test::IdRecord>(s.payload, [&](const test::IdRecord& r) {
        ids.push_back(static_cast<int>(r.id));
      });
    }
    return ids;
  }

  [[nodiscard]] std::int64_t total_records() const {
    std::int64_t total = 0;
    for (const auto& s : sent) total += s.records;
    return total;
  }
};

TEST(Outbox, EagerPutsSendOneSingleRecordFrameEach) {
  // The unbundled ablation: every put is sent at once. Each frame restarts
  // the delta chain, so it is byte-for-byte a fresh writer's frame even
  // when the same slot carried the previous record.
  SendLog log;
  Outbox out({0, 1, 2}, WireCodec::kCompact);
  std::vector<int> staged;
  for (int i = 0; i < 10; ++i) {
    const int id = 100 + 7 * i;
    out.slot(static_cast<Rank>(i % 3)).put(test::IdRecord{id});
    out.flush_first_touched(log.sink());
    staged.push_back(id);
  }
  ASSERT_EQ(log.sent.size(), staged.size());
  for (std::size_t i = 0; i < log.sent.size(); ++i) {
    EXPECT_EQ(log.sent[i].dst, static_cast<Rank>(i % 3));
    EXPECT_EQ(log.sent[i].records, 1);
    EXPECT_EQ(log.sent[i].payload, test::id_frame(staged[i]));
  }
  EXPECT_EQ(log.decode_ids(), staged);
}

TEST(Outbox, BundledFlushLosesAndDuplicatesNothing) {
  SendLog log;
  Outbox out({0, 1, 2}, WireCodec::kCompact);
  std::vector<int> staged;
  for (int i = 0; i < 30; ++i) {
    out.slot(static_cast<Rank>(i % 3)).put(test::IdRecord{i});
    staged.push_back(i);
  }
  out.flush_ascending(log.sink());
  // One message per destination that has records (3 destinations here).
  EXPECT_EQ(log.sent.size(), 3u);
  auto ids = log.decode_ids();
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, staged);
}

TEST(Outbox, FlushAscendingSendsInDestinationOrderWhateverTheStagingOrder) {
  // Determinism pin: the bundled flush order is the sorted destination
  // order, never the staging order — the send sequence feeds FIFO
  // channels, jitter and fault verdicts. Stage destinations deliberately
  // out of order.
  SendLog log;
  const Rank dsts[] = {41, 3, 29, 7, 101, 0, 57, 19, 83, 11,
                       67, 5, 97, 23, 31, 2,  89, 13, 71, 47};
  Outbox out({std::begin(dsts), std::end(dsts)}, WireCodec::kCompact);
  for (const Rank dst : dsts) out.slot(dst).put(test::IdRecord{dst});
  out.flush_ascending(log.sink());
  ASSERT_EQ(log.sent.size(), std::size(dsts));
  for (std::size_t i = 1; i < log.sent.size(); ++i) {
    EXPECT_LT(log.sent[i - 1].dst, log.sent[i].dst);
  }
}

TEST(Outbox, SecondFlushSendsNothing) {
  SendLog log;
  Outbox out({1, 4}, WireCodec::kCompact);
  out.slot(4).put(test::IdRecord{7});
  out.slot(1).put(test::IdRecord{8});
  out.flush_ascending(log.sink());
  ASSERT_EQ(log.sent.size(), 2u);
  out.flush_ascending(log.sink());
  out.flush_first_touched(log.sink());
  EXPECT_EQ(log.sent.size(), 2u);
}

// ---- FanoutStage ------------------------------------------------------------

constexpr SendPolicy kEveryPolicy[] = {SendPolicy::kBroadcastUnion,
                                       SendPolicy::kCustomizedAll,
                                       SendPolicy::kCustomizedNeighbors};

TEST(FanoutStage, CustomizedNeighborsSendsOnlyToTouchedRanks) {
  FanoutStage stage(SendPolicy::kCustomizedNeighbors, 4, {1, 2, 3});
  SendLog log;
  stage.stage({10, 2}, std::vector<Rank>{1});
  stage.stage({11, 4}, std::vector<Rank>{3});
  stage.stage({12, 1}, std::vector<Rank>{1});
  stage.flush(0, log.sink());
  ASSERT_EQ(log.sent.size(), 2u);
  EXPECT_EQ(log.sent[0].dst, 1);
  EXPECT_EQ(log.sent[0].records, 2);
  EXPECT_EQ(log.sent[1].dst, 3);
  EXPECT_EQ(log.sent[1].records, 1);
}

TEST(FanoutStage, CustomizedAllSendsPossiblyEmptyMessageToEveryOtherRank) {
  FanoutStage stage(SendPolicy::kCustomizedAll, 4, {1, 3});
  SendLog log;
  stage.stage({10, 2}, std::vector<Rank>{1});
  stage.flush(2, log.sink());
  // Three messages (every rank but the source), only one non-empty.
  ASSERT_EQ(log.sent.size(), 3u);
  std::int64_t nonempty = 0;
  for (const auto& s : log.sent) {
    EXPECT_NE(s.dst, 2);
    if (!s.payload.empty()) ++nonempty;
  }
  EXPECT_EQ(nonempty, 1);
}

TEST(FanoutStage, BroadcastUnionCopiesTheUnionToEveryOtherRank) {
  // The union holds each record once, whatever its boundary ranks.
  FanoutStage stage(SendPolicy::kBroadcastUnion, 4, {0, 2});
  SendLog log;
  stage.stage({10, 2}, std::vector<Rank>{0});
  stage.stage({11, 3}, std::vector<Rank>{0, 2});
  stage.flush(1, log.sink());
  ASSERT_EQ(log.sent.size(), 3u);
  for (const auto& s : log.sent) {
    EXPECT_NE(s.dst, 1);
    EXPECT_EQ(s.records, 2);
    EXPECT_EQ(s.payload, log.sent.front().payload);
  }
}

TEST(FanoutStage, TheSameStagingServesEveryPolicy) {
  // Drivers stage every boundary vertex the same way; the policy fixed at
  // construction alone decides who hears what.
  for (const SendPolicy policy : kEveryPolicy) {
    FanoutStage stage(policy, 5, {1, 3});
    SendLog log;
    stage.stage({10, 2}, std::vector<Rank>{1, 3});
    stage.stage({11, 4}, std::vector<Rank>{3});
    stage.flush(0, log.sink());
    std::vector<Rank> dsts;
    for (const auto& s : log.sent) dsts.push_back(s.dst);
    switch (policy) {
      case SendPolicy::kBroadcastUnion:
        EXPECT_EQ(dsts, (std::vector<Rank>{1, 2, 3, 4}));
        EXPECT_EQ(log.total_records(), 8);  // the 2-record union, 4 times
        break;
      case SendPolicy::kCustomizedAll:
        EXPECT_EQ(dsts, (std::vector<Rank>{1, 2, 3, 4}));
        EXPECT_EQ(log.total_records(), 3);
        break;
      case SendPolicy::kCustomizedNeighbors:
        EXPECT_EQ(dsts, (std::vector<Rank>{1, 3}));
        EXPECT_EQ(log.total_records(), 3);
        break;
    }
  }
}

TEST(FanoutStage, FlushResetsStateBetweenSupersteps) {
  for (const SendPolicy policy : kEveryPolicy) {
    FanoutStage stage(policy, 3, {1, 2});
    SendLog log;
    stage.stage({10, 0}, std::vector<Rank>{1});
    stage.flush(0, log.sink());
    const std::int64_t first = log.total_records();
    EXPECT_GT(first, 0);
    stage.flush(0, log.sink());
    // Nothing staged for the second flush: no record travels again.
    EXPECT_EQ(log.total_records(), first);
  }
}

TEST(FanoutStage, CustomizedNeighborsKeepsFirstTouchOrder) {
  // NEW sends in the order destinations were first staged, not ascending.
  FanoutStage stage(SendPolicy::kCustomizedNeighbors, 4, {1, 3});
  SendLog log;
  stage.stage({10, 2}, std::vector<Rank>{3});
  stage.stage({11, 4}, std::vector<Rank>{1});
  stage.stage({12, 1}, std::vector<Rank>{3});
  stage.flush(0, log.sink());
  ASSERT_EQ(log.sent.size(), 2u);
  EXPECT_EQ(log.sent[0].dst, 3);
  EXPECT_EQ(log.sent[0].records, 2);
  EXPECT_EQ(log.sent[1].dst, 1);
  EXPECT_EQ(log.sent[1].records, 1);
}

TEST(FanoutStage, CustomizedAllReachesEveryRankFromTwoDestinations) {
  // FIAC at the paper's 16,384-rank point: one frame per other rank, in
  // ascending order, although only the two listed destinations hold a slot.
  constexpr Rank kRanks = 16384;
  constexpr Rank kSrc = 100;
  FanoutStage stage(SendPolicy::kCustomizedAll, kRanks, {7, 9000});
  SendLog log;
  stage.stage({10, 2}, std::vector<Rank>{9000});
  stage.stage({11, 3}, std::vector<Rank>{7});
  stage.flush(kSrc, log.sink());
  ASSERT_EQ(log.sent.size(), static_cast<std::size_t>(kRanks - 1));
  std::vector<Rank> nonempty;
  for (std::size_t i = 0; i < log.sent.size(); ++i) {
    const Rank expected = static_cast<Rank>(i) + (static_cast<Rank>(i) >= kSrc);
    EXPECT_EQ(log.sent[i].dst, expected);
    if (!log.sent[i].payload.empty()) {
      EXPECT_EQ(log.sent[i].records, 1);
      nonempty.push_back(log.sent[i].dst);
    } else {
      EXPECT_EQ(log.sent[i].records, 0);
    }
  }
  EXPECT_EQ(nonempty, (std::vector<Rank>{7, 9000}));
}

TEST(Outbox, StagingToAnUnlistedRankThrows) {
  Outbox out({1, 3}, WireCodec::kCompact);
  EXPECT_THROW(out.slot(2).put(test::IdRecord{7}), Error);
  for (const SendPolicy policy : {SendPolicy::kCustomizedAll,
                                  SendPolicy::kCustomizedNeighbors}) {
    FanoutStage stage(policy, 4, {1, 3});
    EXPECT_THROW(stage.stage({10, 0}, std::vector<Rank>{2}), Error);
  }
}

// ---- JSONL sink -------------------------------------------------------------

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(CommTrace, JsonlSinkRecordsSendsAndCollectives) {
  FabricConfig config;
  config.trace.jsonl_path = testing::TempDir() + "pmc_fabric_trace.jsonl";
  {
    CommFabric fabric(MachineModel::blue_gene_p(), config);
    fabric.add_rank();
    fabric.add_rank();
    fabric.note({.kind = CommEvent::Kind::kRound, .rank = 0, .value = 1});
    (void)send_via_lane(fabric, 0, 1, 16, 2);
    fabric.complete_collective(fabric.max_time());
  }  // closes the sink
  const std::vector<std::string> lines = read_lines(config.trace.jsonl_path);
  ASSERT_EQ(lines.size(), 3u);  // round, send, collective
  EXPECT_NE(lines[0].find(R"("ev":"round")"), std::string::npos);
  EXPECT_NE(lines[1].find(R"("ev":"send")"), std::string::npos);
  EXPECT_NE(lines[1].find(R"("records":2)"), std::string::npos);
  EXPECT_NE(lines[2].find(R"("ev":"collective")"), std::string::npos);
}

// One line of each of the nine kinds, to the byte: field order, and times
// printed as `std::ostream << double` prints them by default (%.6g). A
// backoff counts but writes no line.
TEST(CommTrace, EveryLineKindHasItsExactText) {
  using Kind = CommEvent::Kind;
  const TraceConfig config{testing::TempDir() + "pmc_trace_lines.jsonl"};
  {
    CommTrace trace(config);
    for (int r = 0; r < 3; ++r) trace.add_rank();
    trace.record({.kind = Kind::kRound, .rank = 1, .value = 3});
    trace.record({.kind = Kind::kSend, .rank = 1, .peer = 2, .time = 1.5e-5,
                  .bytes = 40, .payload = 24, .records = 3});
    trace.record({.kind = Kind::kDrop, .rank = 1, .peer = 0,
                  .time = 0.000123456789, .bytes = 28});
    trace.record({.kind = Kind::kDuplicate, .rank = 2, .peer = 1,
                  .time = 2.5, .bytes = 16});
    trace.record({.kind = Kind::kCorrupt, .rank = 0, .peer = 2,
                  .time = 1234567.0, .bytes = 1000});
    trace.record({.kind = Kind::kDupSuppressed, .rank = 2, .time = 0.0});
    trace.record({.kind = Kind::kCorruptDetected, .rank = 0, .time = 1e-300});
    trace.record({.kind = Kind::kBackoff, .rank = 1, .seconds = 2.5e-5});
    trace.record({.kind = Kind::kRetry, .rank = 1, .peer = 2, .value = 2,
                  .time = 7.25e-5});
    trace.record({.kind = Kind::kRound, .rank = kNoRank, .value = 5});
    trace.record({.kind = Kind::kCollective, .time = 0.1});
    trace.flush();
    EXPECT_EQ(trace.breakdown().per_rank_faults[1].backoff_seconds, 2.5e-5);
    EXPECT_EQ(trace.breakdown().per_round_faults[3].backoff_seconds, 2.5e-5);
  }
  const std::vector<std::string> expected = {
      R"({"ev":"round","rank":1,"round":3})",
      R"({"ev":"send","t":1.5e-05,"src":1,"dst":2,"bytes":40,"payload":24,)"
      R"("records":3,"round":3})",
      R"({"ev":"drop","t":0.000123457,"src":1,"dst":0,"bytes":28})",
      R"({"ev":"dup","t":2.5,"src":2,"dst":1,"bytes":16})",
      R"({"ev":"corrupt","t":1.23457e+06,"src":0,"dst":2,"bytes":1000})",
      R"({"ev":"dup_suppressed","t":0,"rank":2})",
      R"({"ev":"corrupt_detected","t":1e-300,"rank":0})",
      R"({"ev":"retry","t":7.25e-05,"src":1,"dst":2,"attempt":2})",
      R"({"ev":"round","rank":-1,"round":5})",
      R"({"ev":"collective","t":0.1,"round":5})",
  };
  EXPECT_EQ(read_lines(config.jsonl_path), expected);
}

// A trace that cannot be written fails the run, also one small enough to
// wait in the stream's buffer until the fabric exports its results.
TEST(CommTrace, UnwritableSinkIsAnError) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "this system has no /dev/full";
  }
  for (const auto& [side, ranks_per_side] : {std::pair{64, 4}, {8, 2}}) {
    const Graph g = grid_2d(side, side, WeightKind::kUniformRandom, 5);
    const DistGraph dist = DistGraph::build(
        g, grid_2d_partition(side, side, ranks_per_side, ranks_per_side));
    DistMatchingOptions options;
    options.trace.jsonl_path = "/dev/full";
    try {
      (void)match_distributed(dist, options);
      ADD_FAILURE() << side << "^2 grid: the run returned normally";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos)
          << e.what();
    }
  }
}

// ---- cross-engine determinism and breakdown consistency --------------------

CommStats sum_stats(const std::vector<CommStats>& parts) {
  CommStats total;
  for (const CommStats& s : parts) {
    total.messages += s.messages;
    total.bytes += s.bytes;
    total.records += s.records;
  }
  return total;
}

void expect_breakdown_consistent(const RunResult& run) {
  const CommStats by_rank = sum_stats(run.breakdown.per_rank);
  EXPECT_EQ(by_rank.messages, run.comm.messages);
  EXPECT_EQ(by_rank.bytes, run.comm.bytes);
  EXPECT_EQ(by_rank.records, run.comm.records);
  const CommStats by_round = sum_stats(run.breakdown.per_round);
  EXPECT_EQ(by_round.messages, run.comm.messages);
  EXPECT_EQ(by_round.bytes, run.comm.bytes);
  EXPECT_EQ(by_round.records, run.comm.records);
  const std::int64_t histogram_total =
      std::accumulate(run.breakdown.message_size_histogram.begin(),
                      run.breakdown.message_size_histogram.end(),
                      std::int64_t{0});
  EXPECT_EQ(histogram_total, run.comm.messages);
}

TEST(FabricDeterminism, EventEngineRunsAreBitIdenticalAndConsistent) {
  const Graph g = grid_2d(24, 24, WeightKind::kUniformRandom, 5);
  const Partition p = grid_2d_partition(24, 24, 2, 2);
  const DistGraph dist = DistGraph::build(g, p);
  DistMatchingOptions options;
  const auto a = match_distributed(dist, options);
  const auto b = match_distributed(dist, options);
  EXPECT_EQ(a.run.sim_seconds, b.run.sim_seconds);
  EXPECT_EQ(a.run.comm.messages, b.run.comm.messages);
  EXPECT_EQ(a.run.comm.bytes, b.run.comm.bytes);
  EXPECT_EQ(a.run.comm.records, b.run.comm.records);
  expect_breakdown_consistent(a.run);
}

TEST(FabricDeterminism, JonesPlassmannAndVerifiersExportTheirBreakdown) {
  const Graph g = circuit_like(600, 1200, 5, WeightKind::kUnit, 9);
  const Partition p = block_partition(g.num_vertices(), 4);
  const DistGraph dist = DistGraph::build(g, p);
  const auto jp = color_jones_plassmann(dist, JonesPlassmannOptions{});
  ASSERT_GT(jp.run.comm.messages, 0);
  expect_breakdown_consistent(jp.run);
  const auto matching = match_distributed(dist, DistMatchingOptions{});
  const auto mv = verify_matching_distributed(dist, matching.matching);
  ASSERT_GT(mv.run.comm.messages, 0);
  expect_breakdown_consistent(mv.run);
  const auto cv = verify_coloring_distributed(dist, jp.coloring);
  ASSERT_GT(cv.run.comm.messages, 0);
  expect_breakdown_consistent(cv.run);
}

TEST(FabricDeterminism, BspEngineRunsAreBitIdenticalAndConsistent) {
  const Graph g = circuit_like(600, 1200, 5, WeightKind::kUnit, 9);
  const Partition p = block_partition(g.num_vertices(), 4);
  const auto options = DistColoringOptions::improved();
  const auto a = color_distributed(g, p, options);
  const auto b = color_distributed(g, p, options);
  EXPECT_EQ(a.run.sim_seconds, b.run.sim_seconds);
  EXPECT_EQ(a.run.comm.messages, b.run.comm.messages);
  EXPECT_EQ(a.run.comm.bytes, b.run.comm.bytes);
  EXPECT_EQ(a.run.comm.records, b.run.comm.records);
  EXPECT_EQ(a.run.comm.collectives, b.run.comm.collectives);
  expect_breakdown_consistent(a.run);
}

}  // namespace
}  // namespace pmc
