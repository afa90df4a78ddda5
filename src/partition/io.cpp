#include "partition/io.hpp"

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string_view>
#include <vector>

#include "graph/algorithms.hpp"
#include "partition/simple.hpp"
#include "support/error.hpp"
#include "support/text.hpp"

namespace pmc {

void write_partition(std::ostream& out, const Partition& p) {
  for (VertexId v = 0; v < p.num_vertices(); ++v) {
    out << p.owner(v) << '\n';
  }
}

namespace {

Partition parse_partition(std::string_view text, Rank num_parts) {
  std::vector<Rank> owner;
  std::string_view line;
  while (next_line(text, line)) {
    if (line.empty() || line.front() == '%') continue;
    // Exactly one part id per line.
    std::string_view rest = line;
    std::int64_t id = -1;
    PMC_REQUIRE(take_number(rest, id) == std::errc{} && is_blank(rest),
                "malformed partition line '" << line << "'");
    PMC_REQUIRE(id >= 0 && id < (1LL << 30),
                "part id " << id << " out of range");
    owner.push_back(static_cast<Rank>(id));
  }
  PMC_REQUIRE(!owner.empty(), "empty partition file");
  Rank parts = num_parts;
  if (parts <= 0) {
    parts = 0;
    for (Rank r : owner) parts = std::max(parts, r);
    parts += 1;
  }
  return Partition(parts, std::move(owner));
}

}  // namespace

Partition read_partition(std::istream& in, Rank num_parts) {
  return parse_partition(read_text(in), num_parts);
}

Partition read_partition_file(const std::string& path, Rank num_parts) {
  return parse_partition(read_text_file(path, "partition file"), num_parts);
}

Partition rcm_block_partition(const Graph& g, Rank parts) {
  PMC_REQUIRE(parts >= 1, "need at least one part");
  PMC_REQUIRE(static_cast<VertexId>(parts) <=
                  std::max<VertexId>(1, g.num_vertices()),
              "more parts than vertices");
  const auto perm = reverse_cuthill_mckee(g);  // perm[old] = new position
  const VertexId n = g.num_vertices();
  std::vector<Rank> owner(static_cast<std::size_t>(n));
  for (VertexId v = 0; v < n; ++v) {
    // Slice the RCM positions into contiguous blocks.
    owner[static_cast<std::size_t>(v)] = static_cast<Rank>(
        (static_cast<__int128>(perm[static_cast<std::size_t>(v)]) * parts) /
        std::max<VertexId>(1, n));
  }
  return Partition(parts, std::move(owner));
}

}  // namespace pmc
