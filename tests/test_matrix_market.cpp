// Tests for Matrix Market parsing and the matrix-to-graph conversions the
// paper uses (bipartite for matching, adjacency for coloring).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/matrix_market.hpp"
#include "support/error.hpp"

namespace pmc {
namespace {

constexpr const char* kGeneral =
    "%%MatrixMarket matrix coordinate real general\n"
    "% a comment line\n"
    "3 4 5\n"
    "1 1 2.5\n"
    "1 3 -1.0\n"
    "2 2 4.0\n"
    "3 4 0.5\n"
    "3 1 1.0\n";

constexpr const char* kSymmetric =
    "%%MatrixMarket matrix coordinate real symmetric\n"
    "3 3 4\n"
    "1 1 1.0\n"
    "2 1 2.0\n"
    "3 1 3.0\n"
    "3 3 4.0\n";

constexpr const char* kPattern =
    "%%MatrixMarket matrix coordinate pattern general\n"
    "2 2 2\n"
    "1 2\n"
    "2 1\n";

TEST(MatrixMarket, ParsesGeneralReal) {
  std::istringstream in(kGeneral);
  const SparseMatrix m = read_matrix_market(in);
  EXPECT_EQ(m.rows, 3);
  EXPECT_EQ(m.cols, 4);
  EXPECT_EQ(m.num_entries(), 5);
  EXPECT_FALSE(m.pattern);
  EXPECT_FALSE(m.symmetric);
  EXPECT_EQ(m.row_index[0], 0);
  EXPECT_EQ(m.col_index[0], 0);
  EXPECT_DOUBLE_EQ(m.values[1], -1.0);
}

TEST(MatrixMarket, ParsesSymmetric) {
  std::istringstream in(kSymmetric);
  const SparseMatrix m = read_matrix_market(in);
  EXPECT_TRUE(m.symmetric);
  EXPECT_EQ(m.num_entries(), 4);
}

TEST(MatrixMarket, ParsesPattern) {
  std::istringstream in(kPattern);
  const SparseMatrix m = read_matrix_market(in);
  EXPECT_TRUE(m.pattern);
  EXPECT_TRUE(m.values.empty());
}

TEST(MatrixMarket, SkipsBlankLinesBeforeSizeLine) {
  // Regression: the comment-skip loop used to stop at the first non-'%'
  // line even when it was blank or whitespace-only, then fail with
  // "malformed size line".
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "% comment\n"
      "\n"
      "   \t \n"
      "\r\n"
      "% late comment after blanks\n"
      "2 2 1\n"
      "1 2 3.0\n");
  const SparseMatrix m = read_matrix_market(in);
  EXPECT_EQ(m.rows, 2);
  EXPECT_EQ(m.cols, 2);
  EXPECT_EQ(m.num_entries(), 1);
  EXPECT_DOUBLE_EQ(m.values[0], 3.0);
}

TEST(MatrixMarket, SkipsBlankLinesInFile) {
  const std::string path = ::testing::TempDir() + "/pmc_blank_lines.mtx";
  {
    std::ofstream out(path);
    out << "%%MatrixMarket matrix coordinate pattern general\n"
        << "% generated fixture\n"
        << "\n"
        << "  \n"
        << "2 2 2\n"
        << "1 2\n"
        << "2 1\n";
  }
  const SparseMatrix m = read_matrix_market_file(path);
  EXPECT_EQ(m.rows, 2);
  EXPECT_EQ(m.num_entries(), 2);
}

TEST(MatrixMarket, RejectsMalformedInput) {
  {
    std::istringstream in("not a banner\n1 1 0\n");
    EXPECT_THROW((void)read_matrix_market(in), Error);
  }
  {
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1.0\n");
    EXPECT_THROW((void)read_matrix_market(in), Error);  // out of bounds
  }
  {
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n");
    EXPECT_THROW((void)read_matrix_market(in), Error);  // truncated
  }
  {
    std::istringstream in(
        "%%MatrixMarket matrix coordinate complex general\n1 1 0\n");
    EXPECT_THROW((void)read_matrix_market(in), Error);  // unsupported field
  }
  {
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real symmetric\n2 3 0\n");
    EXPECT_THROW((void)read_matrix_market(in), Error);  // non-square symmetric
  }
}

// Every entry line has exactly its fields, each one whole number.
TEST(MatrixMarket, RejectsMalformedEntryLines) {
  const std::string banner = "%%MatrixMarket matrix coordinate real general\n";
  for (const char* body : {
           "2 2 1\n2 2 3.0xyz\n",          // junk after the last value
           "2 2 2\n1 1 1.0 2\n2 2 3.0\n",  // an extra column
           "2 2 2\n1 1\n1.0\n2 2 3.0\n",  // an entry split over lines
           "2 2 1 junk\n1 1 1.0\n",        // extra size-line field
           "2 2 1\n1 1 1.0\n2 2 2.0\n",    // line after the entries
           "2 2 1\n1 1 1.0\n% late\n",     // comment after the entries
           "2 2 1\n1 1 inf\n",             // not a finite value
           "2 2 1\n1 1 1e999\n",           // overflow
           "2 2 1\n1.5 1 1.0\n",           // fractional index
       }) {
    std::istringstream in(banner + body);
    EXPECT_THROW((void)read_matrix_market(in), Error) << body;
  }
}

TEST(MatrixMarket, RejectsSizesThatCannotBeBuilt) {
  const std::string banner = "%%MatrixMarket matrix coordinate real general\n";
  {
    // A count the input cannot hold fails before anything is reserved.
    std::istringstream in(banner + "2 2 4000000000000000000\n1 1 1.0\n");
    EXPECT_THROW((void)read_matrix_market(in), Error);
  }
  {
    // rows + cols overflows the vertex id range of matrix_to_bipartite.
    std::istringstream in(banner +
                          "5000000000000000000 5000000000000000000 0\n");
    EXPECT_THROW((void)read_matrix_market(in), Error);
  }
}

TEST(MatrixMarket, KeepsAcceptingSignsTabsCrlfAndBlankLines) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\r\n"
      "% comment\r\n"
      "+2\t2 +3\r\n"
      "\r\n"
      "+1 1 +1.5e0\r\n"
      "  \t\n"
      "2\t2\t-0.5\n"
      "1 2 1e-400\r\n"
      "\n");
  const SparseMatrix m = read_matrix_market(in);
  EXPECT_EQ(m.rows, 2);
  EXPECT_EQ(m.cols, 2);
  ASSERT_EQ(m.num_entries(), 3);
  EXPECT_EQ(m.values[0], 1.5);
  EXPECT_EQ(m.values[1], -0.5);
  EXPECT_EQ(m.values[2], 0.0);  // underflow reads as zero, as istream did
  EXPECT_EQ(m.col_index[2], 1);
}

TEST(MatrixMarket, DirectoryIsAnError) {
  EXPECT_THROW((void)read_matrix_market_file(::testing::TempDir()), Error);
}

TEST(MatrixMarket, WriteReadRoundTrip) {
  std::istringstream in(kGeneral);
  const SparseMatrix m = read_matrix_market(in);
  std::ostringstream out;
  write_matrix_market(out, m);
  std::istringstream in2(out.str());
  const SparseMatrix m2 = read_matrix_market(in2);
  EXPECT_EQ(m2.rows, m.rows);
  EXPECT_EQ(m2.cols, m.cols);
  EXPECT_EQ(m2.num_entries(), m.num_entries());
  for (EdgeId k = 0; k < m.num_entries(); ++k) {
    EXPECT_EQ(m2.row_index[static_cast<std::size_t>(k)],
              m.row_index[static_cast<std::size_t>(k)]);
    EXPECT_DOUBLE_EQ(m2.values[static_cast<std::size_t>(k)],
                     m.values[static_cast<std::size_t>(k)]);
  }
}

TEST(Conversions, BipartiteUsesAbsoluteValues) {
  std::istringstream in(kGeneral);
  const SparseMatrix m = read_matrix_market(in);
  BipartiteInfo info;
  const Graph g = matrix_to_bipartite(m, info);
  g.validate();
  EXPECT_EQ(info.num_left, 3);
  EXPECT_EQ(info.num_right, 4);
  EXPECT_EQ(g.num_edges(), 5);
  EXPECT_TRUE(respects_bipartition(g, info));
  // Entry (1,3) = -1.0 becomes weight |−1.0| on edge (row 0, col vertex 3+2).
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 3 + 2), 1.0);
}

TEST(Conversions, BipartiteExpandsSymmetricStorage) {
  std::istringstream in(kSymmetric);
  const SparseMatrix m = read_matrix_market(in);
  BipartiteInfo info;
  const Graph g = matrix_to_bipartite(m, info);
  // Entries: (1,1), (2,1)+(1,2), (3,1)+(1,3), (3,3) -> 6 bipartite edges.
  EXPECT_EQ(g.num_edges(), 6);
}

TEST(Conversions, AdjacencyDropsDiagonalAndSymmetrizes) {
  std::istringstream in(kSymmetric);
  const SparseMatrix m = read_matrix_market(in);
  const Graph g = matrix_to_adjacency(m);
  g.validate();
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 2);  // (0,1), (0,2); diagonal entries dropped
  EXPECT_FALSE(g.has_weights());
}

TEST(Conversions, AdjacencyRejectsRectangular) {
  std::istringstream in(kGeneral);
  const SparseMatrix m = read_matrix_market(in);
  EXPECT_THROW((void)matrix_to_adjacency(m), Error);
}

TEST(Conversions, BipartiteMatrixRoundTrip) {
  BipartiteInfo info;
  const Graph g = random_bipartite(6, 9, 25, info);
  const SparseMatrix m = bipartite_to_matrix(g, info);
  EXPECT_EQ(m.rows, 6);
  EXPECT_EQ(m.cols, 9);
  EXPECT_EQ(m.num_entries(), 25);
  BipartiteInfo info2;
  const Graph g2 = matrix_to_bipartite(m, info2);
  EXPECT_EQ(g2.num_edges(), g.num_edges());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (VertexId u : g.neighbors(v)) {
      EXPECT_DOUBLE_EQ(g2.edge_weight(v, u), g.edge_weight(v, u));
    }
  }
}

TEST(Conversions, ZeroValuedEntriesStayMatchable) {
  SparseMatrix m;
  m.rows = 1;
  m.cols = 1;
  m.row_index = {0};
  m.col_index = {0};
  m.values = {0.0};
  BipartiteInfo info;
  const Graph g = matrix_to_bipartite(m, info);
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_GT(g.edge_weight(0, 1), 0.0);
}

TEST(MatrixMarket, FileNotFoundThrows) {
  EXPECT_THROW((void)read_matrix_market_file("/nonexistent/file.mtx"), Error);
}

}  // namespace
}  // namespace pmc
