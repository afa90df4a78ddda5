// Fixture: D10 must fire once — an allow() that no longer matches any
// diagnostic. Scan fodder for the lint fixture suite, not compiled.
#include <cstdint>

// pmc-lint: allow(D1): was load-bearing before the map became a HashSet
std::int64_t plain_sum(const std::int64_t* xs, std::int64_t n) {
  std::int64_t total = 0;
  for (std::int64_t i = 0; i < n; ++i) total += xs[i];
  return total;
}
