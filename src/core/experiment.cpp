#include "core/experiment.hpp"

#include "support/error.hpp"

namespace pmc {

ScalingLaw::Point ScalingLaw::at(int ranks, double actual) {
  PMC_REQUIRE(ranks >= 1, "scaling point needs a positive rank count");
  if (ranks0_ == 0) {
    ranks0_ = ranks;
    seconds0_ = actual;
  }
  const double p0 = ranks0_;
  const double ideal =
      strong_ ? seconds0_ * p0 / static_cast<double>(ranks) : seconds0_;
  return {ideal, actual > 0.0 ? ideal / actual : 1.0};
}

}  // namespace pmc
