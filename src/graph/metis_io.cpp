#include "graph/metis_io.hpp"

#include <ostream>
#include <string_view>

#include "graph/builder.hpp"
#include "support/error.hpp"
#include "support/text.hpp"

namespace pmc {

namespace {

/// A parsed METIS file before its graph is built: the edges and the
/// declared edge count.
struct MetisEdges {
  GraphBuilder builder;
  EdgeId declared_edges = 0;
};

MetisEdges parse_metis_graph(std::string_view text) {
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

  MetisEdges out{GraphBuilder(n, edge_weights, DuplicatePolicy::kKeepFirst),
                 m};
  EdgeId arcs_seen = 0;
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
      }
      PMC_REQUIRE(u - 1 != v, "self-loop at vertex " << v + 1);
      ++arcs_seen;
      if (u - 1 > v) {  // each undirected edge appears twice; keep one
        out.builder.add_edge(v, u - 1, w);
      }
    }
  }
  // Compared without forming 2 * m, which a huge header would overflow.
  PMC_REQUIRE(arcs_seen % 2 == 0 && arcs_seen / 2 == m,
              "edge count mismatch: header declares " << m << " edges but "
                                                      << arcs_seen
                                                      << " arcs listed");
  return out;
}

/// Builds the graph of `text` once `text` itself is freed.
Graph build_metis_graph(std::string text) {
  MetisEdges parsed = parse_metis_graph(text);
  std::string().swap(text);
  Graph g = std::move(parsed.builder).build();
  PMC_REQUIRE(g.num_edges() == parsed.declared_edges,
              "adjacency not symmetric: " << g.num_edges()
                                          << " distinct edges vs declared "
                                          << parsed.declared_edges);
  return g;
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
