// Timing utilities for benchmarks and instrumentation.
//
// This header deliberately exposes a *wall-clock* stopwatch only. The other
// time axis in this codebase — the simulation's modelled seconds
// (RunResult::sim_seconds, CommFabric clocks) — never passes through a
// stopwatch; keeping the types apart stops a bench from labelling modelled
// time as measured time (or vice versa). RunResult carries both:
// sim_seconds (modelled) and wall_seconds (measured with WallTimer).
#pragma once

#include <chrono>

namespace pmc {

/// Monotonic wall-clock stopwatch (real elapsed time, never modelled time).
class WallTimer {
 public:
  WallTimer() noexcept : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void reset() noexcept { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double seconds() const noexcept {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace pmc
