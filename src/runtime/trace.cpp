#include "runtime/trace.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <concepts>
#include <string_view>

#include "support/error.hpp"

namespace pmc {

namespace {

/// One JSONL line, formatted in place. 256 bytes hold the longest: a send
/// line with every number at its widest.
struct Line {
  std::array<char, 256> buf{};
  char* end = buf.data();

  Line& operator<<(std::string_view text) {
    end = std::copy(text.begin(), text.end(), end);
    return *this;
  }
  template <std::integral T>
  Line& operator<<(T value) {
    end = std::to_chars(end, buf.data() + buf.size(), value).ptr;
    return *this;
  }
  /// Prints what `std::ostream << double` prints by default (%.6g).
  Line& operator<<(double value) {
    end = std::to_chars(end, buf.data() + buf.size(), value,
                        std::chars_format::general, 6)
              .ptr;
    return *this;
  }
};

/// The `ev` value of each event kind's line (a backoff writes none).
constexpr std::array<std::string_view, 10> kLineNames = {
    "round",          "send",             "drop",  "dup", "corrupt",
    "dup_suppressed", "corrupt_detected", "retry", "",    "collective"};

}  // namespace

CommTrace::CommTrace(TraceConfig config) : config_(std::move(config)) {
  breakdown_.message_size_histogram.assign(kMessageSizeBuckets, 0);
  if (!config_.jsonl_path.empty()) {
    sink_.open(config_.jsonl_path, std::ios::out | std::ios::trunc);
    PMC_REQUIRE(sink_.good(),
                "cannot open trace sink " << config_.jsonl_path);
  }
}

void CommTrace::add_rank() {
  breakdown_.per_rank.emplace_back();
  breakdown_.per_rank_faults.emplace_back();
  breakdown_.interior_seconds.push_back(0.0);
  breakdown_.boundary_seconds.push_back(0.0);
  breakdown_.other_seconds.push_back(0.0);
  rank_round_.push_back(0);
  rank_phase_.push_back(WorkPhase::kOther);
}

void CommTrace::absorb_rank_compute(Rank r, double interior_seconds,
                                    double boundary_seconds,
                                    double other_seconds,
                                    WorkPhase phase) noexcept {
  const auto i = static_cast<std::size_t>(r);
  breakdown_.interior_seconds[i] = interior_seconds;
  breakdown_.boundary_seconds[i] = boundary_seconds;
  breakdown_.other_seconds[i] = other_seconds;
  rank_phase_[i] = phase;
}

CommStats& CommTrace::round_slot(int round) {
  const auto idx = static_cast<std::size_t>(round);
  if (idx >= breakdown_.per_round.size()) {
    breakdown_.per_round.resize(idx + 1);
  }
  return breakdown_.per_round[idx];
}

template <typename T>
void CommTrace::add_fault(Rank r, T FaultStats::*field, T amount) {
  const auto i = static_cast<std::size_t>(r);
  breakdown_.per_rank_faults[i].*field += amount;
  const auto round = static_cast<std::size_t>(rank_round_[i]);
  if (round >= breakdown_.per_round_faults.size()) {
    breakdown_.per_round_faults.resize(round + 1);
  }
  breakdown_.per_round_faults[round].*field += amount;
}

void CommTrace::record(const CommEvent& event) {
  using Kind = CommEvent::Kind;
  const auto r = static_cast<std::size_t>(event.rank);
  switch (event.kind) {
    case Kind::kRound:
      PMC_REQUIRE(event.value >= 0, "negative round label " << event.value);
      if (event.rank == kNoRank) {
        std::fill(rank_round_.begin(), rank_round_.end(), event.value);
      } else {
        rank_round_[r] = event.value;
      }
      global_round_ = std::max(global_round_, event.value);
      break;
    case Kind::kSend: {
      const CommStats sent{.messages = 1,
                           .bytes = event.bytes,
                           .payload_bytes = event.payload,
                           .records = event.records};
      breakdown_.per_rank[r] += sent;
      round_slot(rank_round_[r]) += sent;
      comm_ += sent;
      breakdown_.message_size_histogram[CommBreakdown::size_bucket(
          event.bytes)] += 1;
      break;
    }
    case Kind::kCollective:
      for (CommStats& stats : breakdown_.per_rank) stats.collectives += 1;
      round_slot(global_round_).collectives += 1;
      comm_.collectives += 1;
      break;
    case Kind::kDrop:
      add_fault(event.rank, &FaultStats::drops, std::int64_t{1});
      break;
    case Kind::kDuplicate:
      add_fault(event.rank, &FaultStats::duplicates, std::int64_t{1});
      break;
    case Kind::kCorrupt:
      add_fault(event.rank, &FaultStats::corruptions, std::int64_t{1});
      break;
    case Kind::kDupSuppressed:
      add_fault(event.rank, &FaultStats::dup_suppressed, std::int64_t{1});
      break;
    case Kind::kCorruptDetected:
      add_fault(event.rank, &FaultStats::corruptions_detected,
                std::int64_t{1});
      break;
    case Kind::kRetry:
      add_fault(event.rank, &FaultStats::retries, std::int64_t{1});
      break;
    case Kind::kBackoff:
      add_fault(event.rank, &FaultStats::backoff_seconds, event.seconds);
      return;  // no line
  }
  if (sink_.is_open()) write_line(event);
}

void CommTrace::write_line(const CommEvent& event) {
  using Kind = CommEvent::Kind;
  Line line;
  line << R"({"ev":")" << kLineNames[static_cast<std::size_t>(event.kind)]
       << R"(")";
  if (event.kind == Kind::kRound) {
    line << R"(,"rank":)" << event.rank << R"(,"round":)" << event.value;
  } else {
    line << R"(,"t":)" << event.time;
  }
  switch (event.kind) {
    case Kind::kSend:
      line << R"(,"src":)" << event.rank << R"(,"dst":)" << event.peer
           << R"(,"bytes":)" << event.bytes << R"(,"payload":)"
           << event.payload << R"(,"records":)" << event.records
           << R"(,"round":)"
           << rank_round_[static_cast<std::size_t>(event.rank)];
      break;
    case Kind::kDrop:
    case Kind::kDuplicate:
    case Kind::kCorrupt:
      line << R"(,"src":)" << event.rank << R"(,"dst":)" << event.peer
           << R"(,"bytes":)" << event.bytes;
      break;
    case Kind::kDupSuppressed:
    case Kind::kCorruptDetected:
      line << R"(,"rank":)" << event.rank;
      break;
    case Kind::kRetry:
      line << R"(,"src":)" << event.rank << R"(,"dst":)" << event.peer
           << R"(,"attempt":)" << event.value;
      break;
    case Kind::kCollective:
      line << R"(,"round":)" << global_round_;
      break;
    case Kind::kRound:
    case Kind::kBackoff:
      break;
  }
  line << "}\n";
  sink_.write(line.buf.data(), line.end - line.buf.data());
  PMC_REQUIRE(sink_.good(), "cannot write trace sink " << config_.jsonl_path);
}

void CommTrace::flush() {
  sink_.flush();
  PMC_REQUIRE(sink_.good(), "cannot write trace sink " << config_.jsonl_path);
}

}  // namespace pmc
