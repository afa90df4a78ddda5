#include "runtime/trace.hpp"

#include <fstream>
#include <sstream>

#include "support/error.hpp"

namespace pmc {

CommTrace::CommTrace(TraceConfig config) : config_(std::move(config)) {
  breakdown_.message_size_histogram.assign(kMessageSizeBuckets, 0);
  if (!config_.jsonl_path.empty()) {
    sink_ = std::make_unique<std::ofstream>(config_.jsonl_path,
                                            std::ios::out | std::ios::trunc);
    PMC_REQUIRE(sink_->good(),
                "cannot open trace sink " << config_.jsonl_path);
  }
}

CommTrace::~CommTrace() = default;
CommTrace::CommTrace(CommTrace&&) noexcept = default;
CommTrace& CommTrace::operator=(CommTrace&&) noexcept = default;

void CommTrace::add_rank() {
  breakdown_.per_rank.emplace_back();
  breakdown_.per_rank_faults.emplace_back();
  breakdown_.interior_seconds.push_back(0.0);
  breakdown_.boundary_seconds.push_back(0.0);
  breakdown_.other_seconds.push_back(0.0);
  rank_round_.push_back(0);
  rank_phase_.push_back(WorkPhase::kOther);
}

void CommTrace::set_round(Rank r, int round) {
  PMC_REQUIRE(round >= 0, "negative round label " << round);
  rank_round_[static_cast<std::size_t>(r)] = round;
  if (round > global_round_) global_round_ = round;
  if (sink_) {
    std::ostringstream oss;
    oss << R"({"ev":"round","rank":)" << r << R"(,"round":)" << round << '}';
    emit_json(oss.str());
  }
}

void CommTrace::set_round_all(int round) {
  PMC_REQUIRE(round >= 0, "negative round label " << round);
  for (auto& r : rank_round_) r = round;
  if (round > global_round_) global_round_ = round;
  if (sink_) {
    std::ostringstream oss;
    oss << R"({"ev":"round","rank":-1,"round":)" << round << '}';
    emit_json(oss.str());
  }
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

void CommTrace::on_send(double time, Rank src, Rank dst,
                        std::int64_t total_bytes, std::int64_t payload_bytes,
                        std::int64_t records) {
  auto& rank_stats = breakdown_.per_rank[static_cast<std::size_t>(src)];
  rank_stats.messages += 1;
  rank_stats.bytes += total_bytes;
  rank_stats.payload_bytes += payload_bytes;
  rank_stats.records += records;

  const int round = rank_round_[static_cast<std::size_t>(src)];
  auto& round_stats = round_slot(round);
  round_stats.messages += 1;
  round_stats.bytes += total_bytes;
  round_stats.payload_bytes += payload_bytes;
  round_stats.records += records;

  breakdown_.message_size_histogram[CommBreakdown::size_bucket(total_bytes)] +=
      1;

  if (sink_) {
    std::ostringstream oss;
    oss << R"({"ev":"send","t":)" << time << R"(,"src":)" << src
        << R"(,"dst":)" << dst << R"(,"bytes":)" << total_bytes
        << R"(,"payload":)" << payload_bytes << R"(,"records":)" << records
        << R"(,"round":)" << round << '}';
    emit_json(oss.str());
  }
}

FaultStats& CommTrace::fault_round_slot(int round) {
  const auto idx = static_cast<std::size_t>(round);
  if (idx >= breakdown_.per_round_faults.size()) {
    breakdown_.per_round_faults.resize(idx + 1);
  }
  return breakdown_.per_round_faults[idx];
}

FaultStats& CommTrace::fault_rank_slot(Rank r) {
  return breakdown_.per_rank_faults[static_cast<std::size_t>(r)];
}

void CommTrace::on_drop(double time, Rank src, Rank dst,
                        std::int64_t total_bytes) {
  fault_rank_slot(src).drops += 1;
  fault_round_slot(rank_round_[static_cast<std::size_t>(src)]).drops += 1;
  if (sink_) {
    std::ostringstream oss;
    oss << R"({"ev":"drop","t":)" << time << R"(,"src":)" << src
        << R"(,"dst":)" << dst << R"(,"bytes":)" << total_bytes << '}';
    emit_json(oss.str());
  }
}

void CommTrace::on_duplicate(double time, Rank src, Rank dst,
                             std::int64_t total_bytes) {
  fault_rank_slot(src).duplicates += 1;
  fault_round_slot(rank_round_[static_cast<std::size_t>(src)]).duplicates += 1;
  if (sink_) {
    std::ostringstream oss;
    oss << R"({"ev":"dup","t":)" << time << R"(,"src":)" << src
        << R"(,"dst":)" << dst << R"(,"bytes":)" << total_bytes << '}';
    emit_json(oss.str());
  }
}

void CommTrace::on_corrupt(double time, Rank src, Rank dst,
                           std::int64_t total_bytes) {
  fault_rank_slot(src).corruptions += 1;
  fault_round_slot(rank_round_[static_cast<std::size_t>(src)]).corruptions += 1;
  if (sink_) {
    std::ostringstream oss;
    oss << R"({"ev":"corrupt","t":)" << time << R"(,"src":)" << src
        << R"(,"dst":)" << dst << R"(,"bytes":)" << total_bytes << '}';
    emit_json(oss.str());
  }
}

void CommTrace::on_corruption_detected(double time, Rank dst) {
  fault_rank_slot(dst).corruptions_detected += 1;
  fault_round_slot(rank_round_[static_cast<std::size_t>(dst)])
      .corruptions_detected += 1;
  if (sink_) {
    std::ostringstream oss;
    oss << R"({"ev":"corrupt_detected","t":)" << time << R"(,"rank":)" << dst
        << '}';
    emit_json(oss.str());
  }
}

void CommTrace::on_dup_suppressed(double time, Rank dst) {
  fault_rank_slot(dst).dup_suppressed += 1;
  fault_round_slot(rank_round_[static_cast<std::size_t>(dst)]).dup_suppressed +=
      1;
  if (sink_) {
    std::ostringstream oss;
    oss << R"({"ev":"dup_suppressed","t":)" << time << R"(,"rank":)" << dst
        << '}';
    emit_json(oss.str());
  }
}

void CommTrace::on_retry(double time, Rank src, Rank dst, int attempt) {
  fault_rank_slot(src).retries += 1;
  fault_round_slot(rank_round_[static_cast<std::size_t>(src)]).retries += 1;
  if (sink_) {
    std::ostringstream oss;
    oss << R"({"ev":"retry","t":)" << time << R"(,"src":)" << src
        << R"(,"dst":)" << dst << R"(,"attempt":)" << attempt << '}';
    emit_json(oss.str());
  }
}

void CommTrace::on_backoff(Rank src, double seconds) {
  fault_rank_slot(src).backoff_seconds += seconds;
  fault_round_slot(rank_round_[static_cast<std::size_t>(src)])
      .backoff_seconds += seconds;
}

void CommTrace::on_collective(double time) {
  for (auto& stats : breakdown_.per_rank) stats.collectives += 1;
  round_slot(global_round_).collectives += 1;
  if (sink_) {
    std::ostringstream oss;
    oss << R"({"ev":"collective","t":)" << time << R"(,"round":)"
        << global_round_ << '}';
    emit_json(oss.str());
  }
}

void CommTrace::emit_json(const std::string& line) {
  *sink_ << line << '\n';
}

}  // namespace pmc
