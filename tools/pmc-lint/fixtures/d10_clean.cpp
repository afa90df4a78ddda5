// Fixture: D10 must stay silent — the allow() is consumed by a live
// (suppressed) D2 hit. Scan fodder for the lint suite, not compiled.
#include <cstdint>
#include <random>

std::uint64_t replay_seed() {
  // pmc-lint: allow(D2): printed for replay, never fed to a run
  return std::random_device{}();
}
