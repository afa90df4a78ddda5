#include "graph/metis_io.hpp"

#include <bit>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string_view>
#include <vector>

#include "support/error.hpp"
#include "support/text.hpp"

namespace pmc {

namespace {

/// A parsed METIS file before its graph is built: each vertex's arcs as
/// listed, in [offsets[v], offsets[v + 1]) of `adj` and (when the file has
/// edge weights) of `weights`.
struct MetisRows {
  std::vector<EdgeId> offsets{0};
  std::vector<VertexId> adj;
  std::vector<Weight> weights;
};

MetisRows parse_metis_graph(std::string_view text) {
  // Header: the first line that is neither empty nor a comment.
  std::string_view line;
  do {
    PMC_REQUIRE(next_line(text, line), "empty METIS graph file");
  } while (line.empty() || line.front() == '%');
  VertexId n = 0;
  EdgeId m = 0;
  std::string_view fmt;
  {
    // <n> <m> [fmt] and nothing after.
    std::string_view rest = line;
    PMC_REQUIRE(take_number(rest, n) == std::errc{} &&
                    take_number(rest, m) == std::errc{} && n >= 0 && m >= 0 &&
                    (!next_token(rest, fmt) || is_blank(rest)),
                "malformed METIS header '" << line << "'");
  }
  PMC_REQUIRE(fmt != "10" && fmt != "11",
              "METIS fmt '" << fmt
                            << "' requests vertex weights, which this reader "
                               "does not support (only fmt 0, 1 and 01)");
  PMC_REQUIRE(fmt.empty() || fmt == "0" || fmt == "1" || fmt == "01",
              "unsupported METIS fmt '" << fmt << "'");
  const bool edge_weights = (fmt == "1" || fmt == "01");

  // A listed arc takes at least two bytes (a digit and a separator), four
  // with its weight, and a vertex at least its line's end, so the rest of
  // the input bounds both declared counts and the reservations below.
  const auto room =
      static_cast<EdgeId>((text.size() + 1) / (edge_weights ? 4 : 2));
  PMC_REQUIRE(m <= room / 2 && n <= static_cast<VertexId>(text.size()) + 1,
              "METIS header declares " << n << " vertices and " << m
                                       << " edges but the " << text.size()
                                       << " bytes after it hold fewer");
  MetisRows out;
  out.offsets.reserve(static_cast<std::size_t>(n) + 1);
  out.adj.reserve(2 * static_cast<std::size_t>(m));
  if (edge_weights) out.weights.reserve(2 * static_cast<std::size_t>(m));
  for (VertexId v = 0; v < n; ++v) {
    // Comment lines do not count; an empty line is an isolated vertex.
    do {
      PMC_REQUIRE(next_line(text, line),
                  "missing adjacency line for vertex " << v + 1);
    } while (!line.empty() && line.front() == '%');
    for (line = skip_space(line); !line.empty(); line = skip_space(line)) {
      VertexId u = 0;
      PMC_REQUIRE(take_number(line, u) == std::errc{},
                  "malformed neighbor '" << peek_token(line) << "' of vertex "
                                         << v + 1);
      PMC_REQUIRE(u >= 1 && u <= n, "neighbor " << u << " of vertex " << v + 1
                                                << " out of range");
      Weight w = 1;
      if (edge_weights) {
        PMC_REQUIRE(!is_blank(line),
                    "missing edge weight for vertex " << v + 1);
        PMC_REQUIRE(take_number(line, w) == std::errc{},
                    "malformed edge weight '" << peek_token(line)
                                              << "' of vertex " << v + 1);
        out.weights.push_back(w);
      }
      PMC_REQUIRE(u - 1 != v, "self-loop at vertex " << v + 1);
      out.adj.push_back(u - 1);
    }
    out.offsets.push_back(static_cast<EdgeId>(out.adj.size()));
  }
  // Only blank lines and comments may follow the n-th adjacency line.
  while (next_line(text, line)) {
    PMC_REQUIRE(is_blank(line) || line.front() == '%',
                "line after the " << n << " adjacency lines: '" << line
                                  << "'");
  }
  // Compared without forming 2 * m, which a huge header would overflow.
  const auto arcs = static_cast<EdgeId>(out.adj.size());
  PMC_REQUIRE(arcs % 2 == 0 && arcs / 2 == m,
              "edge count mismatch: header declares " << m << " edges but "
                                                      << arcs
                                                      << " arcs listed");
  return out;
}

/// The graph of `rows`, once every listed arc's reverse is found listed
/// exactly once with the same weight (bit for bit, so both arcs of an edge
/// carry one value). A counting scatter transposes the rows: row v of the
/// transpose lists the vertices that list v, in ascending order, which is
/// the graph's row v when the check passes. The check then matches v's own
/// list against it arc for arc through `where`, so the whole read is linear
/// in the arcs and sorts nothing.
Graph symmetric_graph(const MetisRows& rows) {
  const std::size_t n = rows.offsets.size() - 1;
  const bool weighted = !rows.weights.empty();
  std::vector<EdgeId> offsets(n + 1, 0);
  for (const VertexId u : rows.adj) ++offsets[static_cast<std::size_t>(u) + 1];
  for (std::size_t v = 1; v <= n; ++v) offsets[v] += offsets[v - 1];
  std::vector<VertexId> adj(rows.adj.size());
  std::vector<Weight> weights(rows.weights.size());
  {
    std::vector<EdgeId> cursor(offsets.begin(), offsets.end() - 1);
    for (std::size_t v = 0; v < n; ++v) {
      for (auto e = static_cast<std::size_t>(rows.offsets[v]);
           e < static_cast<std::size_t>(rows.offsets[v + 1]); ++e) {
        const auto at = static_cast<std::size_t>(
            cursor[static_cast<std::size_t>(rows.adj[e])]++);
        adj[at] = static_cast<VertexId>(v);
        if (weighted) weights[at] = rows.weights[e];
      }
    }
  }

  // where[u] is u's position in the transposed row being checked when it
  // lies in that row, and -2 - v once vertex v's own list has matched it.
  std::vector<EdgeId> where(n, -1);
  for (std::size_t row = 0; row < n; ++row) {
    const auto v = static_cast<VertexId>(row);
    const EdgeId begin = offsets[row];
    const EdgeId end = offsets[row + 1];
    for (EdgeId i = begin; i < end; ++i) {
      const VertexId u = adj[static_cast<std::size_t>(i)];
      PMC_REQUIRE(i == begin || adj[static_cast<std::size_t>(i) - 1] != u,
                  "vertex " << u + 1 << " lists neighbor " << v + 1
                            << " more than once");
      where[static_cast<std::size_t>(u)] = i;
    }
    for (EdgeId e = rows.offsets[row]; e < rows.offsets[row + 1]; ++e) {
      const VertexId u = rows.adj[static_cast<std::size_t>(e)];
      const EdgeId at = where[static_cast<std::size_t>(u)];
      PMC_REQUIRE(at != -2 - v, "vertex " << v + 1 << " lists neighbor "
                                          << u + 1 << " more than once");
      PMC_REQUIRE(at >= begin && at < end,
                  "adjacency not symmetric: vertex "
                      << v + 1 << " lists " << u + 1 << " but vertex "
                      << u + 1 << " does not list " << v + 1);
      if (weighted) {
        const Weight mine = rows.weights[static_cast<std::size_t>(e)];
        const Weight theirs = weights[static_cast<std::size_t>(at)];
        PMC_REQUIRE(std::bit_cast<std::uint64_t>(mine) ==
                        std::bit_cast<std::uint64_t>(theirs),
                    "vertices " << v + 1 << " and " << u + 1
                                << " list their edge with different weights ("
                                << mine << " and " << theirs << ")");
      }
      where[static_cast<std::size_t>(u)] = -2 - v;
    }
    // Every arc of v's list matched a distinct vertex listing v; any left
    // over lists v without v listing it.
    for (EdgeId i = begin; i < end; ++i) {
      const VertexId u = adj[static_cast<std::size_t>(i)];
      PMC_REQUIRE(where[static_cast<std::size_t>(u)] != i,
                  "adjacency not symmetric: vertex "
                      << u + 1 << " lists " << v + 1 << " but vertex "
                      << v + 1 << " does not list " << u + 1);
    }
  }
  return Graph(std::move(offsets), std::move(adj), std::move(weights));
}

/// Builds the graph of `text` once `text` itself is freed.
Graph build_metis_graph(std::string text) {
  const MetisRows rows = parse_metis_graph(text);
  std::string().swap(text);
  return symmetric_graph(rows);
}

}  // namespace

Graph read_metis_graph(std::istream& in) {
  return build_metis_graph(read_text(in));
}

Graph read_metis_graph_file(const std::string& path) {
  return build_metis_graph(read_text_file(path, "METIS graph file"));
}

void write_metis_graph(std::ostream& out, const Graph& g) {
  out << g.num_vertices() << ' ' << g.num_edges();
  if (g.has_weights()) out << " 1";
  out << '\n';
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    const auto ws = g.weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (i != 0) out << ' ';
      out << nbrs[i] + 1;
      if (g.has_weights()) out << ' ' << ws[i];
    }
    out << '\n';
  }
}

}  // namespace pmc
