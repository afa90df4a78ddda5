// The ideal line of a scaling study, drawn beside the measured times in
// the benchmark tables that mirror the paper's figures.
#pragma once

namespace pmc {

/// One curve's ideal line, anchored on the curve's first point: flat for
/// weak scaling, t0 * p0 / p for strong scaling.
class ScalingLaw {
 public:
  explicit ScalingLaw(bool strong) noexcept : strong_(strong) {}

  struct Point {
    double ideal;       ///< ideal seconds at the point's rank count
    double efficiency;  ///< ideal / actual (1 when actual is not positive)
  };

  /// The ideal time and efficiency of a measured point; the first call
  /// anchors the line on its point.
  [[nodiscard]] Point at(int ranks, double actual);

 private:
  bool strong_;
  int ranks0_ = 0;
  double seconds0_ = 0.0;
};

}  // namespace pmc
