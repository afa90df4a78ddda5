// Fixture: the suppression path — a D1 hit covered by a justified allow()
// comment must be reported as suppressed, and an allow() without a
// justification must not count.
#include <cstdint>
// pmc-lint: allow(D1): membership only, never iterated
#include <unordered_map>

using Rank = std::int32_t;

// pmc-lint: allow(D1)
std::int64_t records_of(const std::unordered_map<Rank, std::int64_t>& m) {
  const auto it = m.find(0);
  return it == m.end() ? 0 : it->second;
}
