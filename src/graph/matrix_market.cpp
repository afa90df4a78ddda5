#include "graph/matrix_market.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>
#include <ostream>
#include <string_view>

#include "graph/builder.hpp"
#include "support/error.hpp"
#include "support/text.hpp"

namespace pmc {

namespace {

std::string lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

/// Parses the next field of entry k's line into `out`.
template <typename T>
void read_field(std::string_view& line, T& out, EdgeId k, EdgeId nnz,
                const char* name) {
  PMC_REQUIRE(take_number(line, out) == std::errc{},
              "entry " << k + 1 << " of " << nnz << ": "
                       << (is_blank(line) ? "missing " : "malformed ") << name
                       << " '" << peek_token(line) << "'");
}

SparseMatrix parse_matrix_market(std::string_view text) {
  std::string_view line;
  PMC_REQUIRE(next_line(text, line), "empty input");
  // Banner: %%MatrixMarket object format field symmetry. A missing word
  // reads as empty and fails its check below.
  std::string_view words[5];
  for (std::string_view& word : words) (void)next_token(line, word);
  const std::string_view banner = words[0];
  const std::string object = lower(words[1]);
  const std::string field = lower(words[3]);
  const std::string symmetry = lower(words[4]);
  PMC_REQUIRE(banner == "%%MatrixMarket", "missing MatrixMarket banner");
  PMC_REQUIRE(object == "matrix", "unsupported object '" << words[1] << "'");
  PMC_REQUIRE(lower(words[2]) == "coordinate",
              "only coordinate format is supported, got '" << words[2]
                                                           << "'");
  PMC_REQUIRE(field == "real" || field == "integer" || field == "pattern",
              "unsupported field '" << field << "'");
  PMC_REQUIRE(symmetry == "general" || symmetry == "symmetric",
              "unsupported symmetry '" << symmetry << "'");

  // Skip comments and blank lines. A line of only whitespace (or a bare \r
  // from a CRLF file) is blank, not the size line.
  std::string_view rest;
  do {
    PMC_REQUIRE(next_line(text, line), "missing size line");
    rest = skip_space(line);
  } while (rest.empty() || rest.front() == '%');

  SparseMatrix m;
  EdgeId nnz = 0;
  PMC_REQUIRE(take_number(rest, m.rows) == std::errc{} &&
                  take_number(rest, m.cols) == std::errc{} &&
                  take_number(rest, nnz) == std::errc{} && is_blank(rest) &&
                  m.rows > 0 && m.cols > 0 && nnz >= 0,
              "malformed size line '" << line << "'");
  // matrix_to_bipartite numbers rows and columns in one vertex range.
  PMC_REQUIRE(m.rows <= std::numeric_limits<VertexId>::max() - m.cols,
              "matrix dimensions " << m.rows << " x " << m.cols
                                   << " overflow the vertex id range");
  m.pattern = (field == "pattern");
  m.symmetric = (symmetry == "symmetric");
  PMC_REQUIRE(!m.symmetric || m.rows == m.cols,
              "symmetric matrix must be square");

  // Every entry takes at least one byte per field and a separator after
  // each, so the rest of the input bounds the declared count (and the
  // reservation below).
  const int fields = m.pattern ? 2 : 3;
  const auto room = static_cast<EdgeId>((text.size() + 1) / (2 * fields));
  PMC_REQUIRE(nnz <= room, "size line declares " << nnz
                               << " entries but the " << text.size()
                               << " bytes after it hold at most " << room);
  m.row_index.reserve(static_cast<std::size_t>(nnz));
  m.col_index.reserve(static_cast<std::size_t>(nnz));
  if (!m.pattern) m.values.reserve(static_cast<std::size_t>(nnz));

  // One entry per non-blank line: row, column and, unless pattern, value.
  EdgeId k = 0;
  while (next_line(text, line)) {
    rest = skip_space(line);
    if (rest.empty()) continue;
    PMC_REQUIRE(k < nnz, "line after the " << nnz << " declared entries: '"
                                           << line << "'");
    VertexId r = 0;
    VertexId c = 0;
    double v = 1.0;
    read_field(rest, r, k, nnz, "row index");
    read_field(rest, c, k, nnz, "column index");
    if (!m.pattern) read_field(rest, v, k, nnz, "value");
    PMC_REQUIRE(is_blank(rest), "entry " << k + 1 << " of " << nnz
                                         << " has more than " << fields
                                         << " fields: '" << line << "'");
    PMC_REQUIRE(r >= 1 && r <= m.rows && c >= 1 && c <= m.cols,
                "entry (" << r << ", " << c << ") out of bounds");
    m.row_index.push_back(r - 1);
    m.col_index.push_back(c - 1);
    if (!m.pattern) m.values.push_back(v);
    ++k;
  }
  PMC_REQUIRE(k == nnz, "truncated input: " << k << " of " << nnz
                                            << " declared entries");
  return m;
}

}  // namespace

SparseMatrix read_matrix_market(std::istream& in) {
  return parse_matrix_market(read_text(in));
}

SparseMatrix read_matrix_market_file(const std::string& path) {
  return parse_matrix_market(read_text_file(path, "matrix file"));
}

void write_matrix_market(std::ostream& out, const SparseMatrix& m) {
  out << "%%MatrixMarket matrix coordinate "
      << (m.pattern ? "pattern" : "real") << ' '
      << (m.symmetric ? "symmetric" : "general") << '\n';
  out << m.rows << ' ' << m.cols << ' ' << m.num_entries() << '\n';
  for (EdgeId k = 0; k < m.num_entries(); ++k) {
    out << m.row_index[static_cast<std::size_t>(k)] + 1 << ' '
        << m.col_index[static_cast<std::size_t>(k)] + 1;
    if (!m.pattern) out << ' ' << m.values[static_cast<std::size_t>(k)];
    out << '\n';
  }
}

Graph matrix_to_bipartite(const SparseMatrix& m, BipartiteInfo& info) {
  GraphBuilder builder(m.rows + m.cols, /*weighted=*/true,
                       DuplicatePolicy::kKeepMax);
  builder.reserve(m.symmetric ? 2 * m.num_entries() : m.num_entries());
  // Smallest positive weight used for structurally present but zero-valued
  // entries: keeps them matchable without letting them dominate real values.
  constexpr Weight kEpsilonWeight = 1e-12;
  for (EdgeId k = 0; k < m.num_entries(); ++k) {
    const VertexId r = m.row_index[static_cast<std::size_t>(k)];
    const VertexId c = m.col_index[static_cast<std::size_t>(k)];
    Weight w = m.pattern ? Weight{1}
                         : std::abs(m.values[static_cast<std::size_t>(k)]);
    if (w == Weight{0}) w = kEpsilonWeight;
    builder.add_edge(r, m.rows + c, w);
    if (m.symmetric && r != c) {
      builder.add_edge(c, m.rows + r, w);
    }
  }
  info = BipartiteInfo{m.rows, m.cols};
  return std::move(builder).build();
}

Graph matrix_to_adjacency(const SparseMatrix& m) {
  PMC_REQUIRE(m.rows == m.cols,
              "adjacency representation requires a square matrix");
  GraphBuilder builder(m.rows, /*weighted=*/false,
                       DuplicatePolicy::kKeepFirst);
  builder.reserve(m.num_entries());
  for (EdgeId k = 0; k < m.num_entries(); ++k) {
    const VertexId r = m.row_index[static_cast<std::size_t>(k)];
    const VertexId c = m.col_index[static_cast<std::size_t>(k)];
    if (r != c) builder.add_edge(r, c);  // builder symmetrizes + dedups
  }
  return std::move(builder).build();
}

SparseMatrix bipartite_to_matrix(const Graph& g, const BipartiteInfo& info) {
  PMC_REQUIRE(info.num_left + info.num_right == g.num_vertices(),
              "bipartite info inconsistent with graph size");
  SparseMatrix m;
  m.rows = info.num_left;
  m.cols = info.num_right;
  m.pattern = !g.has_weights();
  m.symmetric = false;
  for (VertexId r = 0; r < info.num_left; ++r) {
    const auto nbrs = g.neighbors(r);
    const auto ws = g.weights(r);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      PMC_REQUIRE(nbrs[i] >= info.num_left,
                  "edge (" << r << ", " << nbrs[i] << ") stays on left side");
      m.row_index.push_back(r);
      m.col_index.push_back(nbrs[i] - info.num_left);
      if (!m.pattern) m.values.push_back(ws[i]);
    }
  }
  return m;
}

}  // namespace pmc
