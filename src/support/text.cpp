#include "support/text.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <istream>
#include <type_traits>

#include "support/error.hpp"

namespace pmc {

namespace {

bool is_digit(char c) noexcept { return c >= '0' && c <= '9'; }

/// For a decimal float std::from_chars reported out of range: true when its
/// magnitude is below 1, so it underflowed rather than overflowed. Both
/// bounds of a double lie hundreds of decades from 1, so the decade of the
/// leading digit decides.
bool below_one(std::string_view s) noexcept {
  std::size_t i = (!s.empty() && s[0] == '-') ? 1 : 0;
  // Decade of the leading nonzero digit, plus one.
  std::int64_t decade = 0;
  bool nonzero = false;
  for (; i < s.size() && is_digit(s[i]); ++i) {
    nonzero = nonzero || s[i] != '0';
    if (nonzero) ++decade;
  }
  if (i < s.size() && s[i] == '.') {
    for (++i; i < s.size() && is_digit(s[i]); ++i) {
      if (nonzero) continue;
      nonzero = s[i] != '0';
      if (!nonzero) --decade;
    }
  }
  std::int64_t exponent = 0;
  if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
    ++i;
    const bool negative = i < s.size() && s[i] == '-';
    if (i < s.size() && (s[i] == '-' || s[i] == '+')) ++i;
    constexpr std::int64_t kSaturate = 1'000'000'000;
    for (; i < s.size() && is_digit(s[i]); ++i) {
      exponent = std::min(exponent * 10 + (s[i] - '0'), kSaturate);
    }
    if (negative) exponent = -exponent;
  }
  return decade + exponent <= 0;
}

/// std::from_chars over the number at `first`, with a leading '+' accepted
/// (though not before a '-'), an underflow read as a zero of its sign, and
/// an infinity or NaN rejected. `out` is written only on success.
template <typename T>
std::from_chars_result scan_number(const char* first, const char* last,
                                   T& out) noexcept {
  if (last - first >= 2 && first[0] == '+' && first[1] != '-') ++first;
  T value{};
  auto result = std::from_chars(first, last, value);
  if constexpr (std::is_floating_point_v<T>) {
    if (result.ec == std::errc::result_out_of_range &&
        below_one(std::string_view(first, static_cast<std::size_t>(
                                              result.ptr - first)))) {
      value = first[0] == '-' ? -T{0} : T{0};
      result.ec = std::errc{};
    } else if (result.ec == std::errc{} && !std::isfinite(value)) {
      result.ec = std::errc::invalid_argument;
    }
  }
  if (result.ec == std::errc{}) out = value;
  return result;
}

}  // namespace

template <typename T>
std::errc parse_number(std::string_view token, T& out) noexcept {
  const char* const last = token.data() + token.size();
  T value{};
  const auto [ptr, ec] = scan_number(token.data(), last, value);
  if (ptr != last) return std::errc::invalid_argument;
  if (ec == std::errc{}) out = value;
  return ec;
}

template <typename T>
std::errc take_number(std::string_view& line, T& out) noexcept {
  const std::string_view rest = skip_space(line);
  const char* const last = rest.data() + rest.size();
  T value{};
  const auto [ptr, ec] = scan_number(rest.data(), last, value);
  // The number must fill its token: a token ends at whitespace.
  if (ptr == rest.data() || (ptr != last && !is_space(*ptr))) {
    return std::errc::invalid_argument;
  }
  if (ec != std::errc{}) return ec;
  out = value;
  line = rest.substr(static_cast<std::size_t>(ptr - rest.data()));
  return std::errc{};
}

template std::errc parse_number(std::string_view, std::int64_t&) noexcept;
template std::errc parse_number(std::string_view, int&) noexcept;
template std::errc parse_number(std::string_view, double&) noexcept;
template std::errc take_number(std::string_view&, std::int64_t&) noexcept;
template std::errc take_number(std::string_view&, int&) noexcept;
template std::errc take_number(std::string_view&, double&) noexcept;

std::string read_text(std::istream& in) {
  std::string text;
  // in_avail() only sizes the first read (a file's or a string's remaining
  // length): reading goes on to the end of input whatever it says.
  const std::streamsize hint =
      in.rdbuf() != nullptr ? in.rdbuf()->in_avail() : 0;
  if (hint > 0) text.reserve(static_cast<std::size_t>(hint) + 1);
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  while (in) {
    const std::size_t size = text.size();
    const std::size_t chunk = std::max(kChunk, text.capacity() - size);
    text.resize(size + chunk);
    in.read(text.data() + size, static_cast<std::streamsize>(chunk));
    text.resize(size + static_cast<std::size_t>(in.gcount()));
  }
  return text;
}

std::string read_text_file(const std::string& path, std::string_view what) {
  std::ifstream in(path, std::ios::binary);
  PMC_REQUIRE(in.is_open(), "cannot open " << what << " '" << path << "'");
  std::string text = read_text(in);
  PMC_REQUIRE(!in.bad(), "cannot read " << what << " '" << path << "'");
  return text;
}

}  // namespace pmc
