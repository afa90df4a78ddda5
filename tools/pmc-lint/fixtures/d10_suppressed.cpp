// Fixture: the D10 suppression path — a stale allow() parked on purpose
// must itself be suppressible with a justified allow(D10) on the line
// above it. Scan fodder for the lint fixture suite, not compiled.
#include <cstdint>

// pmc-lint: allow(D10): ledger entry parked while the frontier migration lands
// pmc-lint: allow(D1): obsolete once the map became a HashSet
std::int64_t plain_total(const std::int64_t* xs, std::int64_t n) {
  std::int64_t total = 0;
  for (std::int64_t i = 0; i < n; ++i) total += xs[i];
  return total;
}
