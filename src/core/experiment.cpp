#include "core/experiment.hpp"

#include "support/error.hpp"

namespace pmc {

ScalingSeries::ScalingSeries(std::string title, std::string extra_name)
    : title_(std::move(title)), extra_name_(std::move(extra_name)) {}

void ScalingSeries::add(ScalingPoint point) {
  PMC_REQUIRE(point.ranks >= 1, "scaling point needs a positive rank count");
  points_.push_back(std::move(point));
}

std::vector<double> ScalingSeries::ideal_weak() const {
  PMC_REQUIRE(!points_.empty(), "empty series");
  return std::vector<double>(points_.size(), points_.front().seconds);
}

std::vector<double> ScalingSeries::ideal_strong() const {
  PMC_REQUIRE(!points_.empty(), "empty series");
  const double t0 = points_.front().seconds;
  const double p0 = points_.front().ranks;
  std::vector<double> ideal;
  ideal.reserve(points_.size());
  for (const auto& pt : points_) {
    ideal.push_back(t0 * p0 / static_cast<double>(pt.ranks));
  }
  return ideal;
}

TextTable ScalingSeries::to_table(bool strong) const {
  std::vector<std::string> header{"procs", "input", "actual (s)", "ideal (s)",
                                  "efficiency"};
  if (!extra_name_.empty()) header.push_back(extra_name_);
  TextTable table(std::move(header));
  table.set_title(title_);
  const auto ideal = strong ? ideal_strong() : ideal_weak();
  for (std::size_t i = 0; i < points_.size(); ++i) {
    const auto& pt = points_[i];
    std::vector<std::string> row{
        cell_count(pt.ranks), pt.label, cell_sci(pt.seconds),
        cell_sci(ideal[i]),
        cell_pct(pt.seconds > 0.0 ? ideal[i] / pt.seconds : 1.0)};
    if (!extra_name_.empty()) row.push_back(cell(pt.extra, 4));
    table.add_row(std::move(row));
  }
  return table;
}

double ScalingSeries::final_efficiency(bool strong) const {
  PMC_REQUIRE(!points_.empty(), "empty series");
  const auto ideal = strong ? ideal_strong() : ideal_weak();
  const double actual = points_.back().seconds;
  return actual > 0.0 ? ideal.back() / actual : 1.0;
}

TextTable comm_rounds_table(const std::string& title,
                            const CommBreakdown& breakdown) {
  TextTable table({"round", "messages", "records", "volume (B)", "collectives"},
                  {Align::kRight, Align::kRight, Align::kRight, Align::kRight,
                   Align::kRight});
  table.set_title(title);
  for (std::size_t round = 0; round < breakdown.per_round.size(); ++round) {
    const CommStats& s = breakdown.per_round[round];
    table.add_row({cell_count(static_cast<long long>(round)),
                   cell_count(s.messages), cell_count(s.records),
                   cell_count(s.bytes), cell_count(s.collectives)});
  }
  return table;
}

}  // namespace pmc
