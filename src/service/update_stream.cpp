#include "service/update_stream.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>
#include <utility>

#include "graph/csr_splice.hpp"
#include "support/error.hpp"
#include "support/text.hpp"

namespace pmc {

const char* to_string(UpdateOp op) {
  switch (op) {
    case UpdateOp::kInsert: return "insert";
    case UpdateOp::kDelete: return "delete";
    case UpdateOp::kReweight: return "reweight";
  }
  PMC_FAIL("invalid UpdateOp " << static_cast<int>(op));
}

// ---- DynamicGraph ---------------------------------------------------------

namespace {

/// First arc of a sorted row whose neighbor is not below v.
auto find_arc(auto& arcs, VertexId v) {
  return std::ranges::lower_bound(arcs, v, {},
                                  &std::pair<VertexId, Weight>::first);
}

}  // namespace

DynamicGraph::DynamicGraph(const Graph& initial)
    : graph_(initial.has_weights() ? initial
                                   : reweight(initial, WeightKind::kUnit, 0)),
      m_(initial.num_edges()) {}

const DynamicGraph::Row* DynamicGraph::changed_row(VertexId v) const {
  if (const auto row = pending_.find(v); row != pending_.end()) {
    return &row->second;
  }
  if (const auto row = committed_.find(v); row != committed_.end()) {
    return &row->second;
  }
  return nullptr;
}

std::optional<Weight> DynamicGraph::find_edge(VertexId u, VertexId v) const {
  if (const Row* row = changed_row(u)) {
    const auto it = find_arc(*row, v);
    if (it == row->end() || it->first != v) return std::nullopt;
    return it->second;
  }
  const auto nbrs = graph_.neighbors(u);
  const auto it = std::ranges::lower_bound(nbrs, v);
  if (it == nbrs.end() || *it != v) return std::nullopt;
  return graph_.weights(u)[static_cast<std::size_t>(it - nbrs.begin())];
}

bool DynamicGraph::has_edge(VertexId u, VertexId v) const {
  const VertexId n = num_vertices();
  if (u < 0 || u >= n || v < 0 || v >= n) return false;
  return find_edge(u, v).has_value();
}

Weight DynamicGraph::edge_weight(VertexId u, VertexId v) const {
  const VertexId n = num_vertices();
  PMC_REQUIRE(u >= 0 && u < n && v >= 0 && v < n,
              "edge_weight endpoint out of range: (" << u << ", " << v << ")");
  const std::optional<Weight> w = find_edge(u, v);
  PMC_REQUIRE(w.has_value(), "edge (" << u << ", " << v << ") does not exist");
  return *w;
}

void DynamicGraph::require_valid_endpoints(const EdgeUpdate& update) const {
  const VertexId n = num_vertices();
  PMC_REQUIRE(update.u >= 0 && update.u < n && update.v >= 0 && update.v < n,
              to_string(update.op) << " endpoint out of range: (" << update.u
                                   << ", " << update.v << "), n = " << n);
  PMC_REQUIRE(update.u != update.v, to_string(update.op)
                                        << " is a self-loop on " << update.u);
}

void DynamicGraph::apply(const EdgeUpdate& update) {
  require_valid_endpoints(update);
  PMC_REQUIRE(update.op == UpdateOp::kDelete || std::isfinite(update.w),
              to_string(update.op) << " of (" << update.u << ", " << update.v
                                   << ") with non-finite weight "
                                   << update.w);
  // Validate before touching any row, so a rejected update changes nothing.
  const bool present = find_edge(update.u, update.v).has_value();
  switch (update.op) {
    case UpdateOp::kInsert:
      PMC_REQUIRE(!present, "insert of existing edge (" << update.u << ", "
                                                         << update.v << ")");
      ++m_;
      break;
    case UpdateOp::kDelete:
      PMC_REQUIRE(present, "delete of absent edge (" << update.u << ", "
                                                     << update.v << ")");
      --m_;
      break;
    case UpdateOp::kReweight:
      PMC_REQUIRE(present, "reweight of absent edge (" << update.u << ", "
                                                       << update.v << ")");
      break;
    default:
      PMC_FAIL("invalid UpdateOp " << static_cast<int>(update.op));
  }
  edit_row(update.u, update.v, update);
  edit_row(update.v, update.u, update);
}

void DynamicGraph::edit_row(VertexId a, VertexId b, const EdgeUpdate& update) {
  const auto [pos, first_touch] = pending_.try_emplace(a);
  Row& row = pos->second;
  if (first_touch) {
    // The committed row stays as it is until the batch commits: folded()
    // must not see the batch.
    if (const auto c = committed_.find(a); c != committed_.end()) {
      row.reserve(c->second.size() + 1);
      row = c->second;
    } else {
      const auto nbrs = graph_.neighbors(a);
      const auto ws = graph_.weights(a);
      row.reserve(nbrs.size() + 1);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        row.emplace_back(nbrs[i], ws[i]);
      }
    }
  }
  const auto it = find_arc(row, b);
  switch (update.op) {
    case UpdateOp::kInsert: row.emplace(it, b, update.w); return;
    case UpdateOp::kDelete: row.erase(it); return;
    case UpdateOp::kReweight: it->second = update.w; return;
  }
}

ChangedRows DynamicGraph::commit() {
  ChangedRows rows;
  rows.ids.reserve(pending_.size());
  rows.offsets.reserve(pending_.size() + 1);
  for (auto& [v, row] : pending_) {
    rows.ids.push_back(v);
    for (const auto& [u, w] : row) {
      rows.targets.push_back(u);
      rows.weights.push_back(w);
    }
    rows.offsets.push_back(static_cast<EdgeId>(rows.targets.size()));
    const auto [pos, fresh] = committed_.try_emplace(v);
    committed_arcs_ += static_cast<EdgeId>(row.size()) -
                       (fresh ? 0 : static_cast<EdgeId>(pos->second.size()));
    pos->second = std::move(row);
  }
  pending_.clear();
  if (committed_arcs_ >= graph_.num_arcs()) fold();
  return rows;
}

const Graph& DynamicGraph::snapshot() {
  (void)commit();
  fold();
  return graph_;
}

const Graph& DynamicGraph::folded() const {
  fold();
  return graph_;
}

void DynamicGraph::fold() const {
  if (committed_.empty()) return;
  std::vector<RowLength> rows;
  rows.reserve(committed_.size());
  for (const auto& [v, row] : committed_) {
    rows.push_back({v, static_cast<EdgeId>(row.size())});
  }
  resize_rows(graph_.offsets_, rows, graph_.adj_, graph_.weights_);
  // Changed rows land between the moved blocks; edges are never sorted.
  for (const auto& [v, row] : committed_) {
    auto out =
        static_cast<std::size_t>(graph_.offsets_[static_cast<std::size_t>(v)]);
    for (const auto& [u, w] : row) {
      graph_.adj_[out] = u;
      graph_.weights_[out] = w;
      ++out;
    }
  }
  committed_.clear();
  committed_arcs_ = 0;
}

// ---- UpdateStreamGenerator ------------------------------------------------

UpdateStreamGenerator::UpdateStreamGenerator(const Graph& initial,
                                             UpdateStreamConfig config)
    : config_(config),
      rng_(derive_seed(config.seed, 0x75706461ULL)),  // "upda"
      n_(initial.num_vertices()) {
  PMC_REQUIRE(n_ >= 2, "update streams need at least 2 vertices, got " << n_);
  PMC_REQUIRE(config_.insert_fraction >= 0 && config_.delete_fraction >= 0 &&
                  config_.insert_fraction + config_.delete_fraction <= 1.0,
              "invalid operation mix: insert " << config_.insert_fraction
                                               << ", delete "
                                               << config_.delete_fraction);
  edges_.reserve(static_cast<std::size_t>(initial.num_edges()));
  for (VertexId u = 0; u < n_; ++u) {
    for (const VertexId v : initial.neighbors(u)) {
      if (u < v) edges_.emplace_back(u, v);
    }
  }
  reindex();
}

namespace {

constexpr std::size_t kFreeSlot = std::numeric_limits<std::size_t>::max();

std::size_t edge_hash(VertexId u, VertexId v) {
  return static_cast<std::size_t>(
      splitmix64(splitmix64(static_cast<std::uint64_t>(u)) +
                 static_cast<std::uint64_t>(v)));
}

}  // namespace

std::size_t UpdateStreamGenerator::slot_of(const Edge& key) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t s = edge_hash(key.first, key.second) & mask;
  while (slots_[s] != kFreeSlot && edges_[slots_[s]] != key) {
    s = (s + 1) & mask;
  }
  return s;
}

bool UpdateStreamGenerator::contains(VertexId u, VertexId v) const {
  return slots_[slot_of({u, v})] != kFreeSlot;
}

void UpdateStreamGenerator::reindex() {
  slots_.assign(std::bit_ceil(std::max<std::size_t>(16, 2 * edges_.size())),
                kFreeSlot);
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    slots_[slot_of(edges_[i])] = i;
  }
}

void UpdateStreamGenerator::unindex(std::size_t hole) {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t j = (hole + 1) & mask; slots_[j] != kFreeSlot;
       j = (j + 1) & mask) {
    const auto [u, v] = edges_[slots_[j]];
    // The entry at j stays unless the hole lies between its home and j.
    const std::size_t home = edge_hash(u, v) & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = kFreeSlot;
}

Weight UpdateStreamGenerator::draw_weight() {
  switch (config_.weights) {
    case WeightKind::kUnit: return Weight{1};
    case WeightKind::kUniformRandom:
      // (0, 1] — matches the generators' convention (no zero weights).
      return Weight{1} - rng_.uniform_double();
    case WeightKind::kIntegral:
      return static_cast<Weight>(rng_.uniform_int(1, 1000));
  }
  PMC_FAIL("invalid WeightKind");
}

EdgeUpdate UpdateStreamGenerator::make_insert() {
  const auto max_edges = static_cast<EdgeId>(n_) * (n_ - 1) / 2;
  if (static_cast<EdgeId>(edges_.size()) == max_edges) {
    return make_delete();  // complete graph: nothing left to insert
  }
  // Rejection-sample an absent pair; on pathologically dense graphs fall
  // back to a deterministic scan from the last rejected pair.
  VertexId u = 0;
  VertexId v = 1;
  bool found = false;
  for (int attempt = 0; attempt < 64; ++attempt) {
    u = rng_.uniform_int(0, n_ - 1);
    v = rng_.uniform_int(0, n_ - 2);
    if (v >= u) ++v;
    if (u > v) std::swap(u, v);
    if (!contains(u, v)) {
      found = true;
      break;
    }
  }
  if (!found) {
    // Deterministic fallback: scan rows starting at the last rejected u.
    // The graph is not complete (checked above), so some pair is absent.
    const VertexId start = u;
    for (VertexId i = 0; i < n_ && !found; ++i) {
      const VertexId a = (start + i) % n_;
      for (VertexId b = a + 1; b < n_; ++b) {
        if (!contains(a, b)) {
          u = a;
          v = b;
          found = true;
          break;
        }
      }
    }
    PMC_CHECK(found, "no absent pair found in a non-complete graph");
  }
  return {UpdateOp::kInsert, u, v, draw_weight()};
}

EdgeUpdate UpdateStreamGenerator::make_delete() {
  if (edges_.empty()) return make_insert();  // edgeless: nothing to delete
  const auto idx = static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<std::int64_t>(edges_.size()) - 1));
  const auto [u, v] = edges_[idx];
  return {UpdateOp::kDelete, u, v, Weight{1}};
}

EdgeUpdate UpdateStreamGenerator::make_reweight() {
  if (edges_.empty()) return make_insert();  // edgeless: nothing to reweight
  const auto idx = static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<std::int64_t>(edges_.size()) - 1));
  const auto [u, v] = edges_[idx];
  return {UpdateOp::kReweight, u, v, draw_weight()};
}

void UpdateStreamGenerator::apply_to_mirror(const EdgeUpdate& update) {
  const Edge key{update.u, update.v};
  switch (update.op) {
    case UpdateOp::kInsert:
      edges_.push_back(key);
      if (2 * edges_.size() > slots_.size()) {
        reindex();
      } else {
        slots_[slot_of(key)] = edges_.size() - 1;
      }
      return;
    case UpdateOp::kDelete: {
      const std::size_t slot = slot_of(key);
      const std::size_t idx = slots_[slot];
      PMC_CHECK(idx != kFreeSlot, "delete of absent edge (" << update.u << ", "
                                                          << update.v << ")");
      unindex(slot);
      if (idx + 1 != edges_.size()) {
        slots_[slot_of(edges_.back())] = idx;
        edges_[idx] = edges_.back();
      }
      edges_.pop_back();
      return;
    }
    case UpdateOp::kReweight:
      return;  // edge-set mirror tracks presence only
  }
  PMC_FAIL("invalid UpdateOp " << static_cast<int>(update.op));
}

EdgeUpdate UpdateStreamGenerator::next() {
  const double roll = rng_.uniform_double();
  EdgeUpdate update;
  if (roll < config_.insert_fraction) {
    update = make_insert();
  } else if (roll < config_.insert_fraction + config_.delete_fraction) {
    update = make_delete();
  } else {
    update = make_reweight();
  }
  apply_to_mirror(update);
  return update;
}

std::vector<EdgeUpdate> UpdateStreamGenerator::next_batch(std::int64_t count) {
  PMC_REQUIRE(count >= 0, "negative batch size " << count);
  std::vector<EdgeUpdate> batch;
  batch.reserve(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) batch.push_back(next());
  return batch;
}

// ---- JSONL serialization --------------------------------------------------

void write_update_log(std::ostream& out,
                      const std::vector<EdgeUpdate>& updates) {
  char buf[64];
  for (const EdgeUpdate& e : updates) {
    out << R"({"op":")" << to_string(e.op) << R"(","u":)" << e.u
        << R"(,"v":)" << e.v;
    if (e.op != UpdateOp::kDelete) {
      std::snprintf(buf, sizeof buf, "%.17g", e.w);
      out << R"(,"w":)" << buf;
    }
    out << "}\n";
  }
  PMC_REQUIRE(out.good(), "failed writing update log");
}

void write_update_log(const std::string& path,
                      const std::vector<EdgeUpdate>& updates) {
  std::ofstream out(path);
  PMC_REQUIRE(out.is_open(), "cannot open '" << path << "' for writing");
  write_update_log(out, updates);
}

namespace {

/// Minimal strict parser for the fixed JSONL schema written above. Not a
/// general JSON parser: fields must appear in order, no extra whitespace
/// handling beyond spaces around tokens, and numbers go through the one
/// strict number parser the other readers share.
class LogLineParser {
 public:
  LogLineParser(const std::string& line, std::int64_t lineno)
      : line_(line), lineno_(lineno) {}

  [[nodiscard]] EdgeUpdate parse() {
    expect('{');
    const std::string op = string_field("op");
    EdgeUpdate update;
    if (op == "insert") {
      update.op = UpdateOp::kInsert;
    } else if (op == "delete") {
      update.op = UpdateOp::kDelete;
    } else if (op == "reweight") {
      update.op = UpdateOp::kReweight;
    } else {
      fail("unknown op '" + op + "'");
    }
    expect(',');
    update.u = number_field<VertexId>("u");
    expect(',');
    update.v = number_field<VertexId>("v");
    if (update.op != UpdateOp::kDelete) {
      expect(',');
      update.w = number_field<Weight>("w");
    }
    expect('}');
    skip_spaces();
    if (pos_ != line_.size()) fail("trailing garbage");
    return update;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    PMC_FAIL("update log line " << lineno_ << ": " << what << " in '" << line_
                                << "'");
  }

  void skip_spaces() {
    while (pos_ < line_.size() && line_[pos_] == ' ') ++pos_;
  }

  void expect(char c) {
    skip_spaces();
    if (pos_ >= line_.size() || line_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  void key(const char* name) {
    expect('"');
    const std::string expected = name;
    if (line_.compare(pos_, expected.size(), expected) != 0) {
      fail("expected key \"" + expected + "\"");
    }
    pos_ += expected.size();
    expect('"');
    expect(':');
  }

  [[nodiscard]] std::string string_field(const char* name) {
    key(name);
    expect('"');
    const auto end = line_.find('"', pos_);
    if (end == std::string::npos) fail("unterminated string");
    std::string value = line_.substr(pos_, end - pos_);
    pos_ = end + 1;
    return value;
  }

  /// The number after key `name`: every character up to the next ',', '}'
  /// or space, read whole by parse_number. JSON has no leading '+', and
  /// parse_number rejects the rest (NaN, infinities, hex, whitespace).
  template <typename T>
  [[nodiscard]] T number_field(const char* name) {
    key(name);
    skip_spaces();
    const std::size_t end =
        std::min(line_.find_first_of(",} ", pos_), line_.size());
    const std::string_view token(line_.data() + pos_, end - pos_);
    T value{};
    if (token.starts_with('+') || parse_number(token, value) != std::errc{}) {
      fail(std::string("bad number for \"") + name + "\"");
    }
    pos_ = end;
    return value;
  }

  const std::string& line_;
  std::int64_t lineno_;
  std::size_t pos_ = 0;
};

}  // namespace

std::vector<EdgeUpdate> read_update_log(std::istream& in) {
  std::vector<EdgeUpdate> updates;
  std::string line;
  std::int64_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    updates.push_back(LogLineParser(line, lineno).parse());
  }
  return updates;
}

std::vector<EdgeUpdate> read_update_log(const std::string& path) {
  std::ifstream in(path);
  PMC_REQUIRE(in.is_open(), "cannot open '" << path << "' for reading");
  return read_update_log(in);
}

}  // namespace pmc
