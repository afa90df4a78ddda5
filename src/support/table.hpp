// The row sink of the benchmark reports.
//
// A TextTable holds typed rows under named columns. The same rows print as
// a box table that mirrors the paper's artifacts, and write as CSV and as a
// JSON summary. A column names itself in the outputs it belongs to: a
// table label, a data key (the CSV header and the JSON key), or both. The
// table prints each value in its column's format; the CSV and the JSON
// write every value in full, a real in the shortest form that reads back
// to the same double.
#pragma once

#include <concepts>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace pmc {

/// Column alignment in the printed table.
enum class Align { kLeft, kRight };

/// How the printed table shows a column's values. The CSV and the JSON
/// ignore it.
struct Format {
  enum class Style {
    kText,     ///< the value as the CSV writes it
    kCount,    ///< an integer with thousands separators ("1,365,724")
    kFixed,    ///< fixed notation with `precision` decimals
    kSci,      ///< scientific notation, like the paper's axes ("3.13E-02")
    kPercent,  ///< a ratio times 100, fixed notation with `precision` decimals
  };
  Style style = Style::kText;
  int precision = 0;
  std::string_view suffix;  ///< appended to every value present ("x", "%")
  Align align = Align::kLeft;

  /// The same format under another alignment.
  [[nodiscard]] constexpr Format aligned(Align a) const {
    Format f = *this;
    f.align = a;
    return f;
  }
};

inline constexpr Format kText{};
inline constexpr Format kCount{Format::Style::kCount, 0, {}, Align::kRight};
inline constexpr Format kSci{Format::Style::kSci, 2, {}, Align::kRight};

[[nodiscard]] constexpr Format fixed(int precision,
                                     std::string_view suffix = {}) {
  return {Format::Style::kFixed, precision, suffix, Align::kRight};
}

[[nodiscard]] constexpr Format percent(int precision) {
  return {Format::Style::kPercent, precision, "%", Align::kRight};
}

/// One column: its name in each output and its printed format.
struct Column {
  std::string label;  ///< table header; empty: the column is data only
  std::string key;    ///< CSV header and JSON key; empty: table only
  Format format = kText;
  /// The JSON key where it differs from `key`; an empty string leaves the
  /// column out of the JSON.
  std::optional<std::string> json = std::nullopt;
};

/// One value of a row: an integer, a real, a text, or absent. An absent
/// value prints "-" in the table, an empty CSV field and null in the JSON.
class Cell {
 public:
  Cell() = default;
  template <std::integral T>
  Cell(T value) : value_(static_cast<std::int64_t>(value)) {}
  Cell(double value) : value_(value) {}
  Cell(std::string value) : value_(std::move(value)) {}
  Cell(const char* value) : value_(std::string(value)) {}

  [[nodiscard]] bool operator==(const Cell&) const = default;

  [[nodiscard]] const std::variant<std::monostate, std::int64_t, double,
                                   std::string>&
  value() const noexcept {
    return value_;
  }

 private:
  std::variant<std::monostate, std::int64_t, double, std::string> value_;
};

/// One entry of a JSON summary's header ("bench", "grid", ...).
struct Field {
  std::string key;
  Cell value;
};

class TextTable {
 public:
  TextTable(std::string title, std::vector<Column> columns);

  /// Appends a row: one value per column, in column order.
  void add(std::vector<Cell> row);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

  /// The table's rows [first, last), under the same title and columns.
  [[nodiscard]] TextTable slice(std::size_t first, std::size_t last) const;

  /// The rows whose value under data key `key` equals `value`.
  [[nodiscard]] TextTable where(std::string_view key, const Cell& value) const;

  void set_title(std::string title) { title_ = std::move(title); }

  /// Renames the table header of the column keyed `key`.
  void set_label(std::string_view key, std::string label);

  /// Prints the title and the labelled columns with box-drawing rules.
  void print(std::ostream& os) const;

  /// Renders to a string (convenience for tests).
  [[nodiscard]] std::string to_string() const;

  /// Writes the keyed columns as CSV: a header line, then one line per row.
  /// An empty path writes nothing.
  void write_csv(const std::string& path) const;

  /// Writes a JSON object: the `header` entries, then "rows" holding one
  /// object per row. An empty path writes nothing.
  void write_json(const std::string& path,
                  const std::vector<Field>& header) const;

 private:
  [[nodiscard]] std::size_t column_of(std::string_view key) const;

  std::string title_;
  std::vector<Column> columns_;
  std::vector<std::vector<Cell>> rows_;
};

/// Formats a double with the given precision (fixed notation).
[[nodiscard]] std::string cell(double value, int precision = 3);

/// Formats a double in scientific notation, mirroring the paper's axis labels
/// (e.g. "3.13E-02").
[[nodiscard]] std::string cell_sci(double value, int precision = 2);

/// Formats an integer with thousands separators ("1,365,724").
[[nodiscard]] std::string cell_count(long long value);

/// Formats a ratio as a percentage with the given precision ("99.36%").
[[nodiscard]] std::string cell_pct(double ratio, int precision = 2);

}  // namespace pmc
