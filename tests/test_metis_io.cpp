// Tests for METIS .graph format I/O.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/metis_io.hpp"
#include "support/error.hpp"

namespace pmc {
namespace {

TEST(MetisIo, ParsesUnweightedGraph) {
  // Triangle plus a pendant vertex: 4 vertices, 4 edges.
  std::istringstream in(
      "% a comment\n"
      "4 4\n"
      "2 3\n"
      "1 3 4\n"
      "1 2\n"
      "2\n");
  const Graph g = read_metis_graph(in);
  g.validate();
  EXPECT_EQ(g.num_vertices(), 4);
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 3));
  EXPECT_FALSE(g.has_edge(0, 3));
  EXPECT_FALSE(g.has_weights());
}

TEST(MetisIo, ParsesEdgeWeightedGraph) {
  std::istringstream in(
      "3 2 1\n"
      "2 5 3 7\n"
      "1 5\n"
      "1 7\n");
  const Graph g = read_metis_graph(in);
  EXPECT_TRUE(g.has_weights());
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 2), 7.0);
}

TEST(MetisIo, AcceptsBlankLinesAndCommentsAfterTheLastVertex) {
  std::istringstream in("2 1\n2\n1\n\n\n% c\n");
  const Graph g = read_metis_graph(in);
  EXPECT_EQ(g.num_vertices(), 2);
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(MetisIo, HandlesIsolatedVertices) {
  // Vertex 3 is isolated: its adjacency line is empty.
  std::istringstream in(
      "3 1\n"
      "2\n"
      "1\n"
      "\n");
  const Graph g = read_metis_graph(in);
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_EQ(g.degree(2), 0);
}

TEST(MetisIo, RejectsMalformedInputs) {
  {
    std::istringstream in("");  // empty
    EXPECT_THROW((void)read_metis_graph(in), Error);
  }
  {
    std::istringstream in("2 1 10\n2\n1\n");  // vertex weights unsupported
    EXPECT_THROW((void)read_metis_graph(in), Error);
  }
  {
    std::istringstream in("2 1 abc\n2\n1\n");  // unknown fmt string
    EXPECT_THROW((void)read_metis_graph(in), Error);
  }
  {
    std::istringstream in("2 1\n2\n5\n");  // neighbor out of range
    EXPECT_THROW((void)read_metis_graph(in), Error);
  }
  {
    std::istringstream in("2 1\n1\n1\n");  // self-loop
    EXPECT_THROW((void)read_metis_graph(in), Error);
  }
  {
    std::istringstream in("2 2\n2\n1\n");  // header declares 2 edges, 1 given
    EXPECT_THROW((void)read_metis_graph(in), Error);
  }
  {
    std::istringstream in("3 1\n2\n1\n");  // missing adjacency line
    EXPECT_THROW((void)read_metis_graph(in), Error);
  }
  // Only blank lines and comments may follow the n-th adjacency line; the
  // error quotes the first line that is neither.
  for (const auto& [text, quoted] : {
           std::pair{"2 1\n2\n1\ngarbage here\n", "'garbage here'"},
           std::pair{"3 1\n2\n1\n\n5 6 7\n", "'5 6 7'"},
       }) {
    std::istringstream in(text);
    try {
      (void)read_metis_graph(in);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(quoted), std::string::npos)
          << text << " -> " << e.what();
    }
  }
  // Asymmetric adjacency whose arc count matches the header: each error
  // names the vertices whose listings disagree.
  struct Asymmetric {
    const char* text;
    const char* names;
  };
  for (const Asymmetric& c : {
           // 1 lists 2 and 3 lists 1, but 2 lists nothing.
           Asymmetric{"3 1\n2\n\n1\n", "vertex 1 lists 2"},
           // The two listings of edge (1, 2) disagree on its weight.
           Asymmetric{"2 1 1\n2 5\n1 7\n", "vertices 1 and 2"},
           // 1 lists 2 twice, 2 lists 1 twice.
           Asymmetric{"2 2\n2 2\n1 1\n", "lists neighbor 1 more than once"},
           // 1 lists 2 twice; 2 lists 1 once and 3 once; 3 lists nothing.
           Asymmetric{"3 2\n2 2\n1 3\n\n", "vertex 1 lists neighbor 2 more"},
       }) {
    std::istringstream in(c.text);
    try {
      (void)read_metis_graph(in);
      ADD_FAILURE() << "accepted: " << c.text;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(c.names), std::string::npos)
          << c.text << " -> " << e.what();
    }
  }
}

// A header needs both counts, and every token is one whole number: a
// header of "abc" is not an empty graph, and "3abc" is not 3.
TEST(MetisIo, RejectsJunkTokens) {
  for (const char* text : {
           "abc\n",                        // header without counts
           "3\n\n\n\n",                    // header without an edge count
           "3 2 0 zz\n2 3\n1\n1\n",        // header trailing junk
           "3 2\n2 3abc\n1\n1\n",          // neighbour with junk
           "3 2 1\n2 5x 3 7\n1 5\n1 7\n",  // weight with junk
           "2 1\n2.0\n1\n",                // fractional neighbour
       }) {
    std::istringstream in(text);
    EXPECT_THROW((void)read_metis_graph(in), Error) << text;
  }
}

TEST(MetisIo, HugeEdgeCountIsAnError) {
  // The arc-count check must not form 2 * m.
  std::istringstream in("2 5000000000000000000\n2\n1\n");
  EXPECT_THROW((void)read_metis_graph(in), Error);
}

TEST(MetisIo, KeepsAcceptingSignsTabsCrlfAndEmptyLines) {
  std::istringstream in(
      "% comment\r\n"
      "\n"
      "+4 +1\t1\r\n"
      "2\t+5.5\r\n"
      "1 5.5\r\n"
      "% isolated vertex 3 next\n"
      "\r\n"
      "\n");
  const Graph g = read_metis_graph(in);
  g.validate();
  EXPECT_EQ(g.num_vertices(), 4);
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_EQ(g.edge_weight(0, 1), 5.5);
  EXPECT_EQ(g.degree(2), 0);
  EXPECT_EQ(g.degree(3), 0);
}

TEST(MetisIo, VertexWeightFmtGetsASpecificError) {
  // fmt "10" and "11" are valid METIS (vertex weights), which this reader
  // deliberately does not support — the error must say so rather than fall
  // into the generic "unsupported fmt" bucket.
  for (const char* fmt : {"10", "11"}) {
    std::istringstream in(std::string("2 1 ") + fmt + "\n1 2\n1 1\n");
    try {
      (void)read_metis_graph(in);
      FAIL() << "fmt " << fmt << " accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("vertex weights"),
                std::string::npos)
          << "error for fmt " << fmt
          << " does not mention vertex weights: " << e.what();
    }
  }
}

TEST(MetisIo, RoundTripIsolatedVerticesAndComments) {
  // Vertices 2 and 5 (1-based 3 and 6) are isolated; their adjacency lines
  // are empty. Write, splice METIS % comments between the lines, and read
  // back: the comment lines must be skipped without consuming a vertex's
  // (possibly empty) adjacency line.
  GraphBuilder builder(6, false, DuplicatePolicy::kError);
  builder.add_edge(0, 1);
  builder.add_edge(1, 3);
  builder.add_edge(3, 4);
  const Graph g = std::move(builder).build();

  std::ostringstream out;
  write_metis_graph(out, g);
  // Interleave comments: after the header and before every adjacency line.
  std::istringstream plain(out.str());
  std::ostringstream spliced;
  std::string line;
  bool first = true;
  while (std::getline(plain, line)) {
    spliced << "% comment " << (first ? "header" : "row") << "\n"
            << line << "\n";
    first = false;
  }
  spliced << "% trailing comment\n";

  std::istringstream in(spliced.str());
  const Graph h = read_metis_graph(in);
  h.validate();
  EXPECT_EQ(h.num_vertices(), 6);
  EXPECT_EQ(h.num_edges(), 3);
  EXPECT_EQ(h.degree(2), 0);
  EXPECT_EQ(h.degree(5), 0);
  EXPECT_TRUE(h.has_edge(0, 1));
  EXPECT_TRUE(h.has_edge(1, 3));
  EXPECT_TRUE(h.has_edge(3, 4));
}

TEST(MetisIo, WriterEmitsFmtOneOnlyWhenWeighted) {
  // The writer must emit fmt "1" (edge weights) and nothing else — never a
  // vertex-weight fmt the reader would reject.
  {
    GraphBuilder builder(3, false, DuplicatePolicy::kError);
    builder.add_edge(0, 1);
    builder.add_edge(1, 2);
    const Graph g = std::move(builder).build();
    std::ostringstream out;
    write_metis_graph(out, g);
    std::istringstream header(out.str());
    std::string line;
    std::getline(header, line);
    EXPECT_EQ(line, "3 2");
  }
  {
    const Graph g = erdos_renyi(10, 15, WeightKind::kIntegral, 9);
    std::ostringstream out;
    write_metis_graph(out, g);
    std::istringstream header(out.str());
    std::string line;
    std::getline(header, line);
    EXPECT_EQ(line, "10 15 1");
  }
}

TEST(MetisIo, RoundTripUnweighted) {
  const Graph g = erdos_renyi(60, 150, WeightKind::kUnit, 3);
  // kUnit still records weights; write as unweighted by stripping them via
  // the square-free path: regenerate as pattern through METIS text.
  std::ostringstream out;
  write_metis_graph(out, g);
  std::istringstream in(out.str());
  const Graph h = read_metis_graph(in);
  h.validate();
  EXPECT_EQ(h.num_vertices(), g.num_vertices());
  EXPECT_EQ(h.num_edges(), g.num_edges());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto a = g.neighbors(v);
    const auto b = h.neighbors(v);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
}

TEST(MetisIo, RoundTripWeighted) {
  const Graph g = erdos_renyi(40, 100, WeightKind::kIntegral, 4);
  std::ostringstream out;
  write_metis_graph(out, g);
  std::istringstream in(out.str());
  const Graph h = read_metis_graph(in);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (VertexId u : g.neighbors(v)) {
      EXPECT_DOUBLE_EQ(h.edge_weight(v, u), g.edge_weight(v, u));
    }
  }
}

TEST(MetisIo, FileNotFoundThrows) {
  EXPECT_THROW((void)read_metis_graph_file("/nonexistent/x.graph"), Error);
}

}  // namespace
}  // namespace pmc
