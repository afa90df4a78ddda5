// Fixture: D10 must stay silent — the allow() is consumed by a live
// (suppressed) D1 hit. Scan fodder for the lint suite, not compiled.
#include <cstdint>
#include <unordered_map>

using Rank = std::int32_t;

std::int64_t consumed_allow(const std::unordered_map<Rank, std::int64_t>& m) {
  std::int64_t total = 0;
  // pmc-lint: allow(D1): order-independent integer sum, no sends
  for (const auto& [dst, records] : m) total += records;
  return total;
}
