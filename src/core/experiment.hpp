// Shared helpers for the benchmark harness: scaling-series bookkeeping, the
// actual-vs-ideal tables that mirror the paper's figures, and a renderer
// for the fabric's per-round communication breakdown.
#pragma once

#include <string>
#include <vector>

#include "runtime/comm_stats.hpp"
#include "support/table.hpp"

namespace pmc {

/// One measured point of a scaling study.
struct ScalingPoint {
  int ranks = 0;
  std::string label;       ///< e.g. grid dimensions (weak scaling).
  double seconds = 0.0;    ///< modelled compute time.
  double extra = 0.0;      ///< experiment-specific (weight, colors, ...).
};

/// A scaling series plus metadata, rendered like one curve of a paper figure.
class ScalingSeries {
 public:
  ScalingSeries(std::string title, std::string extra_name = "");

  void add(ScalingPoint point);

  [[nodiscard]] const std::vector<ScalingPoint>& points() const noexcept {
    return points_;
  }

  /// Ideal times: constant for weak scaling.
  [[nodiscard]] std::vector<double> ideal_weak() const;

  /// Ideal times: t0 * p0 / p for strong scaling (anchored on the first
  /// measured point).
  [[nodiscard]] std::vector<double> ideal_strong() const;

  /// Renders the series as "ranks | actual | ideal | efficiency" rows.
  /// `strong` selects the ideal law.
  [[nodiscard]] TextTable to_table(bool strong) const;

  /// Parallel efficiency of the last point relative to ideal.
  [[nodiscard]] double final_efficiency(bool strong) const;

 private:
  std::string title_;
  std::string extra_name_;
  std::vector<ScalingPoint> points_;
};

/// Renders a run's per-round communication series as "round | messages |
/// records | volume (B) | collectives" rows — the per-phase counts related
/// distributed-matching implementations report.
[[nodiscard]] TextTable comm_rounds_table(const std::string& title,
                                          const CommBreakdown& breakdown);

}  // namespace pmc
