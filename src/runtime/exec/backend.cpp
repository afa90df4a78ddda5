#include "runtime/exec/backend.hpp"

#include <cstdlib>

#include "runtime/exec/thread_pool.hpp"
#include "support/error.hpp"
#include "support/options.hpp"

namespace pmc {

ExecConfig exec_config_from_env() {
  const char* raw = std::getenv("PMC_THREADS");
  if (raw == nullptr || *raw == '\0') return {};
  return {parse_thread_count(raw, "PMC_THREADS")};
}

ExecutionBackend::ExecutionBackend(ExecConfig config) {
  PMC_REQUIRE(config.threads >= 1,
              "execution backend needs threads >= 1, got " << config.threads);
  if (config.threads > 1) pool_ = std::make_shared<ThreadPool>(config.threads);
}

int ExecutionBackend::threads() const noexcept {
  return pool_ ? pool_->workers() : 1;
}

void ExecutionBackend::parallel_for(
    std::size_t n, const std::function<void(std::size_t)>& fn) const {
  if (pool_) {
    pool_->parallel_for(n, fn);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) fn(i);
}

}  // namespace pmc
