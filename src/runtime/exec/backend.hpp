// Execution backend selection: sequential rank loops or a shared thread
// pool. Engines take an ExecConfig and dispatch per-rank compute through an
// ExecutionBackend; drivers thread it in from their options structs.
//
// The backend only decides WHERE rank callbacks run. The engines keep the
// WHAT deterministic: a parallel phase runs every rank against a private
// accounting lane and merges the results in rank order, so the observable
// simulation (modelled time, traces, matchings, colorings) is bit-identical
// at every thread count.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

namespace pmc {

class ThreadPool;

/// How rank compute executes. threads == 1 selects the sequential backend;
/// threads > 1 spins up that many pool workers. Engines accept any value
/// >= 1 — the CLI-facing hardware_concurrency×4 cap lives in
/// Options::get_threads so tests and benches can oversubscribe knowingly.
struct ExecConfig {
  int threads = 1;
};

/// Reads PMC_THREADS (strictly validated) and returns the resulting config;
/// {1} when the variable is unset or empty. Lets test binaries pick up the
/// CI stage's thread count without plumbing flags through every harness.
[[nodiscard]] ExecConfig exec_config_from_env();

/// Copyable handle: sequential when threads == 1, otherwise owns a shared
/// work-stealing pool.
class ExecutionBackend {
 public:
  /// Sequential backend.
  ExecutionBackend() = default;
  explicit ExecutionBackend(ExecConfig config);

  [[nodiscard]] int threads() const noexcept;

  /// Runs fn(i) for i in [0, n): in ascending order on the caller's thread
  /// when sequential, in unspecified order on the pool when threaded. Either
  /// way the exception of the lowest throwing index is what propagates.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& fn) const;

 private:
  std::shared_ptr<ThreadPool> pool_;
};

}  // namespace pmc
