#include "support/table.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "support/error.hpp"

namespace pmc {
namespace {

/// A real in the shortest form that reads back to the same double.
std::string shortest(double value) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  PMC_CHECK(ec == std::errc{}, "cannot format " << value);
  return {buf, end};
}

/// The value as the CSV writes it, before quoting; absent is empty.
std::string plain(const Cell& c) {
  const auto& v = c.value();
  if (const auto* i = std::get_if<std::int64_t>(&v)) return std::to_string(*i);
  if (const auto* d = std::get_if<double>(&v)) return shortest(*d);
  if (const auto* s = std::get_if<std::string>(&v)) return *s;
  return {};
}

std::string render(const Cell& c, const Format& f) {
  using Style = Format::Style;
  const auto& v = c.value();
  if (std::holds_alternative<std::monostate>(v)) return "-";
  const auto* i = std::get_if<std::int64_t>(&v);
  const auto* d = std::get_if<double>(&v);
  PMC_REQUIRE(f.style == Style::kText || i != nullptr ||
                  (d != nullptr && f.style != Style::kCount),
              "a value of the wrong type for its column's format");
  double x = 0.0;
  if (i != nullptr) x = static_cast<double>(*i);
  if (d != nullptr) x = *d;
  std::string out;
  switch (f.style) {
    case Style::kText: out = plain(c); break;
    case Style::kCount: out = cell_count(*i); break;
    case Style::kFixed: out = cell(x, f.precision); break;
    case Style::kSci: out = cell_sci(x, f.precision); break;
    case Style::kPercent: out = cell(x * 100.0, f.precision); break;
  }
  return out.append(f.suffix);
}

std::string csv_quoted(const std::string& text) {
  if (text.find_first_of(",\"\n\r") == std::string::npos) return text;
  std::string out = "\"";
  for (const char ch : text) {
    if (ch == '"') out += '"';
    out += ch;
  }
  return out += '"';
}

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(ch));
      out += buf;
    } else {
      out += ch;
    }
  }
  return out += '"';
}

std::string json_value(const Cell& c) {
  const auto& v = c.value();
  if (const auto* s = std::get_if<std::string>(&v)) return json_string(*s);
  const auto* d = std::get_if<double>(&v);
  // JSON has no infinities or NaNs.
  if (std::holds_alternative<std::monostate>(v) ||
      (d != nullptr && !std::isfinite(*d))) {
    return "null";
  }
  return plain(c);
}

std::ofstream open_output(const std::string& path) {
  std::ofstream out(path);
  PMC_REQUIRE(out.is_open(), "cannot open '" << path << "' for writing");
  return out;
}

}  // namespace

TextTable::TextTable(std::string title, std::vector<Column> columns)
    : title_(std::move(title)), columns_(std::move(columns)) {
  PMC_REQUIRE(!columns_.empty(), "table must have at least one column");
  for (const Column& c : columns_) {
    PMC_REQUIRE(!c.label.empty() || !c.key.empty(),
                "a column needs a label or a key");
  }
}

void TextTable::add(std::vector<Cell> row) {
  PMC_REQUIRE(row.size() == columns_.size(),
              "row arity " << row.size() << " != column count "
                           << columns_.size());
  rows_.push_back(std::move(row));
}

TextTable TextTable::slice(std::size_t first, std::size_t last) const {
  PMC_REQUIRE(first <= last && last <= rows_.size(),
              "rows [" << first << ", " << last << ") of " << rows_.size());
  TextTable out(title_, columns_);
  out.rows_.assign(rows_.begin() + static_cast<std::ptrdiff_t>(first),
                   rows_.begin() + static_cast<std::ptrdiff_t>(last));
  return out;
}

TextTable TextTable::where(std::string_view key, const Cell& value) const {
  const std::size_t c = column_of(key);
  TextTable out(title_, columns_);
  for (const auto& row : rows_) {
    if (row[c] == value) out.rows_.push_back(row);
  }
  return out;
}

void TextTable::set_label(std::string_view key, std::string label) {
  columns_[column_of(key)].label = std::move(label);
}

std::size_t TextTable::column_of(std::string_view key) const {
  const auto it = std::ranges::find(columns_, key, &Column::key);
  PMC_REQUIRE(it != columns_.end(), "no column keyed '" << key << "'");
  return static_cast<std::size_t>(it - columns_.begin());
}

void TextTable::print(std::ostream& os) const {
  std::vector<std::size_t> shown;
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    if (!columns_[c].label.empty()) shown.push_back(c);
  }
  PMC_REQUIRE(!shown.empty(), "table has no labelled column to print");

  std::vector<std::vector<std::string>> text;
  text.reserve(rows_.size() + 1);
  text.emplace_back();
  for (const std::size_t c : shown) text.back().push_back(columns_[c].label);
  for (const auto& row : rows_) {
    text.emplace_back();
    for (const std::size_t c : shown) {
      text.back().push_back(render(row[c], columns_[c].format));
    }
  }
  std::vector<std::size_t> width(shown.size(), 0);
  for (const auto& line : text) {
    for (std::size_t i = 0; i < line.size(); ++i) {
      width[i] = std::max(width[i], line[i].size());
    }
  }

  const auto rule = [&os, &width] {
    os << '+';
    for (const std::size_t w : width) os << std::string(w + 2, '-') << '+';
    os << '\n';
  };
  const auto emit = [&](const std::vector<std::string>& line) {
    os << '|';
    for (std::size_t i = 0; i < line.size(); ++i) {
      const std::string pad(width[i] - line[i].size(), ' ');
      if (columns_[shown[i]].format.align == Align::kLeft) {
        os << ' ' << line[i] << pad << " |";
      } else {
        os << ' ' << pad << line[i] << " |";
      }
    }
    os << '\n';
  };

  if (!title_.empty()) os << title_ << '\n';
  rule();
  emit(text.front());
  rule();
  for (std::size_t r = 1; r < text.size(); ++r) emit(text[r]);
  rule();
}

std::string TextTable::to_string() const {
  std::ostringstream oss;
  print(oss);
  return oss.str();
}

void TextTable::write_csv(const std::string& path) const {
  if (path.empty()) return;
  std::ofstream out = open_output(path);
  const auto line = [&](const auto& text_of) {
    const char* sep = "";
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      if (columns_[c].key.empty()) continue;
      out << sep << csv_quoted(text_of(c));
      sep = ",";
    }
    out << '\n';
  };
  line([&](std::size_t c) { return columns_[c].key; });
  for (const auto& row : rows_) {
    line([&](std::size_t c) { return plain(row[c]); });
  }
}

void TextTable::write_json(const std::string& path,
                           const std::vector<Field>& header) const {
  if (path.empty()) return;
  std::ofstream out = open_output(path);
  out << "{\n";
  for (const Field& f : header) {
    out << "  " << json_string(f.key) << ": " << json_value(f.value)
        << ",\n";
  }
  out << "  \"rows\": [";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    out << (r == 0 ? "\n    {" : ",\n    {");
    const char* sep = "";
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      const std::string key = columns_[c].json.value_or(columns_[c].key);
      if (key.empty()) continue;
      out << sep << json_string(key) << ": " << json_value(rows_[r][c]);
      sep = ", ";
    }
    out << '}';
  }
  out << "\n  ]\n}\n";
}

std::string cell(double value, int precision) {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(precision) << value;
  return oss.str();
}

std::string cell_sci(double value, int precision) {
  std::ostringstream oss;
  oss << std::scientific << std::setprecision(precision) << std::uppercase
      << value;
  return oss.str();
}

std::string cell_count(long long value) {
  const bool negative = value < 0;
  unsigned long long magnitude =
      negative ? 0ULL - static_cast<unsigned long long>(value)
               : static_cast<unsigned long long>(value);
  std::string digits = std::to_string(magnitude);
  std::string out;
  int run = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (run != 0 && run % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++run;
  }
  if (negative) out.push_back('-');
  std::reverse(out.begin(), out.end());
  return out;
}

std::string cell_pct(double ratio, int precision) {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(precision) << ratio * 100.0 << '%';
  return oss.str();
}

}  // namespace pmc
