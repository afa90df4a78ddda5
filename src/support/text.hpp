// Text input shared by the command-line options and the file readers
// (Matrix Market, METIS, partition files): a whole-input read into one
// buffer, line and whitespace-token splitting over it, and the one strict
// number parser.
//
// A number is one whole token read by std::from_chars, plus the two forms
// istream's >> accepted that from_chars does not: a leading '+', and a
// floating-point value too small for a double ("1e-400"), which reads as a
// zero of its sign. Infinities, NaNs, overflow, a lone sign and trailing
// junk are errors.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <system_error>

namespace pmc {

/// Parses all of `token` as one number into `out`. Returns std::errc{} on
/// success, std::errc::result_out_of_range when the value does not fit the
/// type and std::errc::invalid_argument for anything else; `out` is
/// unchanged on error. Instantiated for std::int64_t, int and double.
template <typename T>
[[nodiscard]] std::errc parse_number(std::string_view token, T& out) noexcept;

/// Parses the next whitespace-separated token of `line` as one number into
/// `out` and cuts it off `line`, with parse_number's results: a line of only
/// whitespace is invalid_argument. `line` and `out` are unchanged on error.
template <typename T>
[[nodiscard]] std::errc take_number(std::string_view& line, T& out) noexcept;

/// Reads `in` to its end.
[[nodiscard]] std::string read_text(std::istream& in);

/// Reads the file at `path` to its end. A path that cannot be opened or
/// read, a directory included, is a pmc::Error naming `what`.
[[nodiscard]] std::string read_text_file(const std::string& path,
                                         std::string_view what);

/// The bytes istream's >> skips: space, \t, \n, \v, \f and \r.
[[nodiscard]] constexpr bool is_space(char c) noexcept {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// Cuts the next line off the front of `text` into `line`, without its
/// '\n'; false when `text` is empty. A CRLF line keeps its '\r', which
/// next_token skips as whitespace.
[[nodiscard]] inline bool next_line(std::string_view& text,
                                    std::string_view& line) noexcept {
  if (text.empty()) return false;
  const std::size_t end = text.find('\n');
  line = text.substr(0, end);
  text.remove_prefix(end == std::string_view::npos ? text.size() : end + 1);
  return true;
}

/// `line` without its leading whitespace.
[[nodiscard]] inline std::string_view skip_space(
    std::string_view line) noexcept {
  std::size_t begin = 0;
  while (begin < line.size() && is_space(line[begin])) ++begin;
  return line.substr(begin);
}

/// True when `line` holds only whitespace.
[[nodiscard]] inline bool is_blank(std::string_view line) noexcept {
  return skip_space(line).empty();
}

/// Cuts the next whitespace-separated token off the front of `line` into
/// `token`; false when only whitespace is left.
[[nodiscard]] inline bool next_token(std::string_view& line,
                                     std::string_view& token) noexcept {
  line = skip_space(line);
  if (line.empty()) return false;
  std::size_t end = 0;
  while (end < line.size() && !is_space(line[end])) ++end;
  token = line.substr(0, end);
  line.remove_prefix(end);
  return true;
}

/// The next token of `line` without cutting it, for error messages; empty
/// when only whitespace is left.
[[nodiscard]] inline std::string_view peek_token(
    std::string_view line) noexcept {
  std::string_view token;
  (void)next_token(line, token);
  return token;
}

}  // namespace pmc
