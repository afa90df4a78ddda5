#include "runtime/comm_stats.hpp"

#include <bit>
#include <sstream>

namespace pmc {

std::string CommStats::to_string() const {
  std::ostringstream oss;
  oss << "msgs=" << messages << " bytes=" << bytes << " payload="
      << payload_bytes << " records=" << records
      << " collectives=" << collectives;
  return oss.str();
}

std::size_t CommBreakdown::size_bucket(std::int64_t bytes) noexcept {
  // Degenerate sizes (empty payloads, defensive negative inputs) land in the
  // first bucket; bit_width on the sign-extended cast would otherwise index
  // far past the histogram.
  if (bytes <= 1) return 0;
  const auto width = static_cast<std::size_t>(
      std::bit_width(static_cast<std::uint64_t>(bytes)) - 1);
  return width < kMessageSizeBuckets ? width : kMessageSizeBuckets - 1;
}

FaultStats CommBreakdown::total_faults() const noexcept {
  FaultStats total;
  for (const FaultStats& f : per_rank_faults) total += f;
  return total;
}

}  // namespace pmc
