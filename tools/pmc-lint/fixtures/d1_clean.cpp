// Fixture: D1 must stay silent — membership goes through pmc::HashSet, and
// what is walked is a std::map. Scan fodder for the lint fixture suite.
#include <cstdint>
#include <map>

#include "support/hash_set.hpp"

struct FrameWriter {};
using Rank = std::int32_t;

void ship(void (*send)(Rank, FrameWriter&)) {
  std::map<Rank, FrameWriter> out;
  pmc::HashSet<Rank> seen;
  for (auto& [dst, w] : out) {
    if (seen.insert(dst)) send(dst, w);
  }
}
