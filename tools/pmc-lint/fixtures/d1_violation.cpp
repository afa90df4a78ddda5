// Fixture: D1 must fire on every std::unordered_* name, the includes as
// well as the types. Scan fodder for the lint fixture suite, not compiled.
#include <cstdint>
#include <unordered_map>
#include <unordered_set>

struct FrameWriter {};
using Rank = std::int32_t;

void ship(void (*send)(Rank, FrameWriter&)) {
  std::unordered_map<Rank, FrameWriter> out;
  std::unordered_multiset<Rank> seen;
  for (auto& [dst, w] : out) {
    if (seen.count(dst) == 0) send(dst, w);
  }
}
