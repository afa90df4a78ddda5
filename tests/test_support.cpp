// Unit tests for the support library: errors, RNG, the row sink, options.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <ranges>
#include <set>
#include <sstream>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "runtime/exec/backend.hpp"
#include "support/error.hpp"
#include "support/hash_set.hpp"
#include "support/options.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "support/text.hpp"

namespace pmc {
namespace {

// ---- error macros ---------------------------------------------------------

TEST(Error, CheckThrowsWithContext) {
  try {
    PMC_CHECK(1 == 2, "math broke: " << 42);
    FAIL() << "expected pmc::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("math broke: 42"), std::string::npos);
    EXPECT_NE(what.find("test_support.cpp"), std::string::npos);
  }
}

TEST(Error, RequirePassesWhenTrue) {
  EXPECT_NO_THROW(PMC_REQUIRE(2 + 2 == 4, "fine"));
}

TEST(Error, FailAlwaysThrows) {
  EXPECT_THROW(PMC_FAIL("unreachable"), Error);
}

// ---- HashSet ---------------------------------------------------------------

// Hash order must never reach a send or a floating-point sum, so the one hash
// container in src/ cannot be walked: it has no begin() or end(), so neither
// a range-for nor a range algorithm compiles over it.
template <typename S>
concept HasBegin = requires(S& s) { s.begin(); };
template <typename S>
concept HasEnd = requires(S& s) { s.end(); };
static_assert(std::ranges::range<std::unordered_set<int>> &&
                  HasBegin<std::unordered_set<int>> &&
                  HasEnd<std::unordered_set<int>>,
              "the checks must see a hash set's iterators");
static_assert(!std::ranges::range<HashSet<int>>);
static_assert(!HasBegin<HashSet<int>>);
static_assert(!HasEnd<HashSet<int>>);

TEST(HashSet, InsertReportsFirstSight) {
  HashSet<std::uint64_t> s;
  s.reserve(4);
  EXPECT_TRUE(s.insert(7));
  EXPECT_FALSE(s.insert(7));
  EXPECT_TRUE(s.insert(8));
  EXPECT_EQ(s.size(), 2u);
}

// ---- RNG -------------------------------------------------------------------

TEST(Rng, SplitMixIsDeterministic) {
  EXPECT_EQ(splitmix64(42), splitmix64(42));
  EXPECT_NE(splitmix64(42), splitmix64(43));
}

TEST(Rng, XoshiroSameSeedSameStream) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, XoshiroDifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformIntStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const auto x = rng.uniform_int(-5, 17);
    EXPECT_GE(x, -5);
    EXPECT_LE(x, 17);
  }
}

TEST(Rng, UniformIntSingletonRange) {
  Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rng.uniform_int(9, 9), 9);
  }
}

TEST(Rng, UniformIntRejectsEmptyRange) {
  Rng rng(3);
  EXPECT_THROW((void)rng.uniform_int(3, 2), Error);
}

TEST(Rng, UniformIntCoversAllValues) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(rng.uniform_int(0, 7));
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, DeriveSeedSeparatesStreams) {
  EXPECT_NE(derive_seed(1, 0), derive_seed(1, 1));
  EXPECT_NE(derive_seed(1, 0), derive_seed(2, 0));
  EXPECT_EQ(derive_seed(9, 4), derive_seed(9, 4));
}

// ---- tables ------------------------------------------------------------------

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/pmc_table_" + name;
}

TEST(Table, RendersAlignedCells) {
  TextTable t("", {{"name", "name"}, {"value", "value", kCount}});
  t.add({"alpha", 1});
  t.add({"b", 12345});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("| alpha |"), std::string::npos);
  EXPECT_NE(out.find("| 12,345 |"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsArityMismatch) {
  TextTable t("", {{"a", "a"}, {"b", "b"}});
  EXPECT_THROW(t.add({"only-one"}), Error);
  EXPECT_THROW(TextTable("", {{"", ""}}), Error);
}

TEST(Table, CellFormatters) {
  EXPECT_EQ(cell(1.5, 2), "1.50");
  EXPECT_EQ(cell_count(1365724), "1,365,724");
  EXPECT_EQ(cell_count(-42), "-42");
  EXPECT_EQ(cell_count(0), "0");
  EXPECT_EQ(cell_pct(0.9936, 2), "99.36%");
  // Note: 0.03125 is a round-half tie and would round to even ("3.12E-02");
  // use an unambiguous value.
  EXPECT_EQ(cell_sci(0.0313, 2), "3.13E-02");
}

TEST(Table, ColumnFormatsMatchTheCellFormatters) {
  TextTable t("title", {{"n", "", kCount},
                        {"f", "", fixed(2, "x")},
                        {"s", "", kSci},
                        {"p", "", percent(1)}});
  t.add({1365724, 1.254, 0.0313, 0.71327});
  EXPECT_EQ(t.to_string(),
            "title\n"
            "+-----------+-------+----------+-------+\n"
            "|         n |     f |        s |     p |\n"
            "+-----------+-------+----------+-------+\n"
            "| 1,365,724 | 1.25x | 3.13E-02 | 71.3% |\n"
            "+-----------+-------+----------+-------+\n");
}

TEST(TableSink, TextWithCommaQuoteAndNewlineIsQuotedAndEscaped) {
  TextTable t("", {{"name", "name"}, {"n", "n", kCount}});
  t.add({"a,b \"c\"\nd", 7});
  const std::string csv = temp_path("quote.csv");
  const std::string json = temp_path("quote.json");
  t.write_csv(csv);
  t.write_json(json, {{"bench", "quote"}});
  EXPECT_EQ(slurp(csv), "name,n\n\"a,b \"\"c\"\"\nd\",7\n");
  EXPECT_EQ(slurp(json),
            "{\n"
            "  \"bench\": \"quote\",\n"
            "  \"rows\": [\n"
            "    {\"name\": \"a,b \\\"c\\\"\\u000ad\", \"n\": 7}\n"
            "  ]\n"
            "}\n");
}

TEST(TableSink, TableOnlyColumnIsAbsentFromCsvAndJson) {
  TextTable t("", {{"procs", "ranks", kCount}, {"speedup", "", fixed(2)}});
  t.add({16, 1.5});
  const std::string csv = temp_path("table_only.csv");
  const std::string json = temp_path("table_only.json");
  t.write_csv(csv);
  t.write_json(json, {});
  EXPECT_EQ(slurp(csv), "ranks\n16\n");
  EXPECT_EQ(slurp(json), "{\n  \"rows\": [\n    {\"ranks\": 16}\n  ]\n}\n");
  EXPECT_NE(t.to_string().find("| speedup |"), std::string::npos);
}

TEST(TableSink, DataOnlyColumnIsAbsentFromTable) {
  TextTable t("", {{"procs", "ranks", kCount}, {"", "bytes"}});
  t.add({16, 987654321});
  const std::string out = t.to_string();
  EXPECT_EQ(out.find("bytes"), std::string::npos);
  EXPECT_EQ(out.find("987654321"), std::string::npos);
  const std::string csv = temp_path("data_only.csv");
  t.write_csv(csv);
  EXPECT_EQ(slurp(csv), "ranks,bytes\n16,987654321\n");
}

TEST(TableSink, AbsentValuePrintsDashEmptyFieldAndNull) {
  TextTable t("", {{"algorithm", "algorithm"},
                   {"retries", "retries", kCount},
                   {"sim (s)", "sim_seconds", kSci}});
  t.add({"coloring", Cell{}, 0.5});
  EXPECT_NE(t.to_string().find("| coloring  |       - | 5.00E-01 |"),
            std::string::npos);
  const std::string csv = temp_path("absent.csv");
  const std::string json = temp_path("absent.json");
  t.write_csv(csv);
  t.write_json(json, {});
  EXPECT_EQ(slurp(csv), "algorithm,retries,sim_seconds\ncoloring,,0.5\n");
  EXPECT_NE(slurp(json).find("\"retries\": null"), std::string::npos);
}

TEST(TableSink, JsonKeyRenamesOrDropsAColumn) {
  TextTable t("", {{"algorithm", "algorithm", kText, "workload"},
                   {"", "messages", kText, ""},
                   {"sim (s)", "sim_seconds", kSci}});
  t.add({"matching", 118, 0.25});
  const std::string csv = temp_path("json_key.csv");
  const std::string json = temp_path("json_key.json");
  t.write_csv(csv);
  t.write_json(json, {});
  EXPECT_EQ(slurp(csv), "algorithm,messages,sim_seconds\nmatching,118,0.25\n");
  EXPECT_NE(slurp(json).find(
                "{\"workload\": \"matching\", \"sim_seconds\": 0.25}"),
            std::string::npos);
}

TEST(TableSink, RealsReadBackExactly) {
  // std::to_string's six fixed decimals would read back 0.000054 or 0 for
  // most of these.
  const std::vector<double> reals = {
      1.0 / 3.0,         5.4123456789e-05, 0.1,     7.672340000000234e-05,
      1e300,             5e-324,           -2.5e-17, 123456.789,
      0.000035123456789, 1.0,              -0.0,    88231.73714309075};
  TextTable t("", {{"", "i"}, {"", "x"}});
  for (std::size_t i = 0; i < reals.size(); ++i) t.add({i, reals[i]});
  const std::string csv = temp_path("reals.csv");
  const std::string json = temp_path("reals.json");
  t.write_csv(csv);
  t.write_json(json, {});
  const auto hex = [](double v) {
    std::ostringstream oss;
    oss << std::hexfloat << v;
    return oss.str();
  };

  std::istringstream lines(slurp(csv));
  std::string line;
  std::getline(lines, line);
  EXPECT_EQ(line, "i,x");
  for (const double want : reals) {
    ASSERT_TRUE(std::getline(lines, line));
    const std::string field = line.substr(line.find(',') + 1);
    EXPECT_EQ(hex(std::strtod(field.c_str(), nullptr)), hex(want)) << field;
  }

  const std::string doc = slurp(json);
  std::size_t at = 0;
  for (const double want : reals) {
    at = doc.find("\"x\": ", at);
    ASSERT_NE(at, std::string::npos);
    at += 5;
    EXPECT_EQ(hex(std::strtod(doc.c_str() + at, nullptr)), hex(want));
  }
}

TEST(TableSink, SliceWhereAndRelabelCopyTheColumns) {
  TextTable t("all", {{"", "problem"}, {"value", "extra", kCount}});
  t.add({"matching", 1});
  t.add({"coloring", 2});
  t.add({"matching", 3});
  const TextTable m = t.where("problem", "matching");
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(t.slice(1, 3).rows(), 2u);
  EXPECT_THROW((void)t.slice(2, 4), Error);
  EXPECT_THROW((void)t.where("missing", 1), Error);
  TextTable c = t.where("problem", "coloring");
  c.set_title("colors");
  c.set_label("extra", "colors");
  EXPECT_EQ(c.to_string(),
            "colors\n"
            "+--------+\n"
            "| colors |\n"
            "+--------+\n"
            "|      2 |\n"
            "+--------+\n");
}

TEST(TableSink, EmptyPathWritesNothing) {
  TextTable t("", {{"a", "a"}});
  t.add({1});
  EXPECT_NO_THROW(t.write_csv(""));
  EXPECT_NO_THROW(t.write_json("", {}));
  EXPECT_THROW(t.write_csv(temp_path("no/such/dir/x.csv")), Error);
}

// ---- options -------------------------------------------------------------------

// ---- number parsing and text splitting -------------------------------------

TEST(ParseNumber, AcceptsWhatIstreamAccepted) {
  std::int64_t i = 0;
  EXPECT_EQ(parse_number("+7", i), std::errc{});
  EXPECT_EQ(i, 7);
  EXPECT_EQ(parse_number("-0042", i), std::errc{});
  EXPECT_EQ(i, -42);
  double d = 0.0;
  EXPECT_EQ(parse_number("+2.5e1", d), std::errc{});
  EXPECT_EQ(d, 25.0);
  EXPECT_EQ(parse_number(".5", d), std::errc{});
  EXPECT_EQ(d, 0.5);
  EXPECT_EQ(parse_number("1e-310", d), std::errc{});  // subnormal
  EXPECT_GT(d, 0.0);
}

TEST(ParseNumber, ReadsUnderflowAsSignedZero) {
  double d = 1.0;
  EXPECT_EQ(parse_number("1e-400", d), std::errc{});
  EXPECT_EQ(d, 0.0);
  EXPECT_FALSE(std::signbit(d));
  EXPECT_EQ(parse_number("-0.0000000000000000000000000000000000000000000"
                         "000000000000000000000000000000000000000000000"
                         "000000000000000000000000000000000000000000000"
                         "000000000000000000000000000000000000000000000"
                         "000000000000000000000000000000000000000000000"
                         "000000000000000000000000000000000000000000000"
                         "000000000000000000000000000000000000000000000"
                         "000000000000000000000000000000000000000000000"
                         "1",
                         d),
            std::errc{});
  EXPECT_EQ(d, 0.0);
  EXPECT_TRUE(std::signbit(d));
}

TEST(ParseNumber, RejectsOverflowInfinityNanAndJunk) {
  double d = 3.0;
  EXPECT_EQ(parse_number("1e999", d), std::errc::result_out_of_range);
  EXPECT_EQ(parse_number("-1e999", d), std::errc::result_out_of_range);
  EXPECT_EQ(parse_number(std::string(400, '9'), d),
            std::errc::result_out_of_range);
  for (const char* bad : {"inf", "-inf", "nan", "infinity", "", "+", "-",
                          "+-1", "++1", "1.5x", " 1", "1 ", "0x10", "1e"}) {
    EXPECT_EQ(parse_number(bad, d), std::errc::invalid_argument) << bad;
  }
  EXPECT_EQ(d, 3.0);  // untouched on error
  std::int64_t i = 5;
  EXPECT_EQ(parse_number("99999999999999999999", i),
            std::errc::result_out_of_range);
  EXPECT_EQ(parse_number("3abc", i), std::errc::invalid_argument);
  EXPECT_EQ(parse_number("1.0", i), std::errc::invalid_argument);
  EXPECT_EQ(i, 5);
  int small = 0;
  EXPECT_EQ(parse_number("2147483648", small), std::errc::result_out_of_range);
}

TEST(ParseNumber, TakeNumberSplitsAtWhitespaceOnly) {
  std::string_view line = " \t12 +3.5\r";
  std::int64_t i = 0;
  double d = 0.0;
  EXPECT_EQ(take_number(line, i), std::errc{});
  EXPECT_EQ(i, 12);
  EXPECT_EQ(take_number(line, d), std::errc{});
  EXPECT_EQ(d, 3.5);
  EXPECT_TRUE(is_blank(line));
  EXPECT_EQ(take_number(line, d), std::errc::invalid_argument);  // no token

  std::string_view junk = "3.0xyz 4";
  EXPECT_EQ(take_number(junk, d), std::errc::invalid_argument);
  EXPECT_EQ(junk, "3.0xyz 4");  // untouched on error
  EXPECT_EQ(peek_token(junk), "3.0xyz");
}

TEST(ParseNumber, NextLineKeepsEmptyLinesAndCarriageReturns) {
  std::string_view text = "a\r\n\nb";
  std::string_view line;
  ASSERT_TRUE(next_line(text, line));
  EXPECT_EQ(line, "a\r");
  ASSERT_TRUE(next_line(text, line));
  EXPECT_EQ(line, "");
  ASSERT_TRUE(next_line(text, line));
  EXPECT_EQ(line, "b");
  EXPECT_FALSE(next_line(text, line));
}

TEST(Options, ParsesAllForms) {
  Options opts;
  opts.add("ranks", "4", "rank count");
  opts.add("scale", "1.0", "scale factor");
  opts.add_flag("verbose", "chatty");
  const char* argv[] = {"prog", "--ranks=16", "--scale", "2.5", "--verbose"};
  const auto positional = opts.parse(5, argv);
  EXPECT_TRUE(positional.empty());
  EXPECT_EQ(opts.get_int("ranks"), 16);
  EXPECT_DOUBLE_EQ(opts.get_double("scale"), 2.5);
  EXPECT_TRUE(opts.get_flag("verbose"));
  EXPECT_TRUE(opts.supplied("ranks"));
}

TEST(Options, DefaultsApplyWhenAbsent) {
  Options opts;
  opts.add("ranks", "4", "rank count");
  opts.add_flag("verbose", "chatty");
  const char* argv[] = {"prog"};
  (void)opts.parse(1, argv);
  EXPECT_EQ(opts.get_int("ranks"), 4);
  EXPECT_FALSE(opts.get_flag("verbose"));
  EXPECT_FALSE(opts.supplied("ranks"));
}

TEST(Options, RejectsUnknownAndMalformed) {
  Options opts;
  opts.add("ranks", "4", "rank count");
  const char* bad1[] = {"prog", "--bogus=1"};
  EXPECT_THROW((void)opts.parse(2, bad1), Error);
  const char* bad2[] = {"prog", "--ranks", "not-a-number"};
  (void)opts.parse(3, bad2);
  EXPECT_THROW((void)opts.get_int("ranks"), Error);
}

// Parses one option named "x" with the given textual value.
Options opts_with(const char* value) {
  Options opts;
  opts.add("x", "0", "numeric option");
  const char* argv[] = {"prog", "--x", value};
  (void)opts.parse(3, argv);
  return opts;
}

TEST(Options, IntAcceptsSignsAndBounds) {
  EXPECT_EQ(opts_with("+7").get_int("x"), 7);
  EXPECT_EQ(opts_with("-42").get_int("x"), -42);
  EXPECT_EQ(opts_with("9223372036854775807").get_int("x"),
            std::numeric_limits<std::int64_t>::max());
}

TEST(Options, IntRejectsTrailingGarbage) {
  EXPECT_THROW((void)opts_with("12x").get_int("x"), Error);
  EXPECT_THROW((void)opts_with("1.5").get_int("x"), Error);
  EXPECT_THROW((void)opts_with("").get_int("x"), Error);
  EXPECT_THROW((void)opts_with("+").get_int("x"), Error);
}

TEST(Options, IntReportsOutOfRangeDistinctly) {
  try {
    (void)opts_with("99999999999999999999").get_int("x");
    FAIL() << "expected pmc::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos);
  }
}

TEST(Options, TypedIntRejectsWhatDoesNotFitItsType) {
  // Callers used to cast get_int's int64 themselves, so --ranks=4294967298
  // ran on 2 ranks and a negative seed wrapped.
  const auto as_int32 = [](const Options& o) {
    return o.get_int<std::int32_t>("x");
  };
  const auto as_uint64 = [](const Options& o) {
    return o.get_int<std::uint64_t>("x");
  };
  const auto expect_rejected = [](const auto& get, const char* value) {
    try {
      (void)get(opts_with(value));
      FAIL() << "expected pmc::Error for '" << value << "'";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("option --x is out of range"),
                std::string::npos)
          << value;
    }
  };
  expect_rejected(as_int32, "2147483648");
  expect_rejected(as_int32, "-2147483649");
  expect_rejected(as_uint64, "-1");
  EXPECT_EQ(as_int32(opts_with("2147483647")),
            std::numeric_limits<std::int32_t>::max());
  EXPECT_EQ(as_int32(opts_with("-2147483648")),
            std::numeric_limits<std::int32_t>::min());
  EXPECT_EQ(as_uint64(opts_with("0")), 0u);
  EXPECT_EQ(as_uint64(opts_with("9223372036854775807")),
            std::uint64_t{9223372036854775807u});
}

TEST(Options, DoubleAcceptsCommonForms) {
  EXPECT_DOUBLE_EQ(opts_with("+2.5").get_double("x"), 2.5);
  EXPECT_DOUBLE_EQ(opts_with("-1e3").get_double("x"), -1000.0);
  EXPECT_DOUBLE_EQ(opts_with(".5").get_double("x"), 0.5);
}

TEST(Options, DoubleRejectsTrailingGarbage) {
  EXPECT_THROW((void)opts_with("1.5x").get_double("x"), Error);
  EXPECT_THROW((void)opts_with("nope").get_double("x"), Error);
  EXPECT_THROW((void)opts_with("").get_double("x"), Error);
  EXPECT_THROW((void)opts_with("+").get_double("x"), Error);
  EXPECT_THROW((void)opts_with("2.5 ").get_double("x"), Error);
}

TEST(Options, DoubleReportsOutOfRangeDistinctly) {
  // std::stod threw std::out_of_range here, which the old catch swallowed
  // as std::logic_error and misreported as "expects a number".
  try {
    (void)opts_with("1e999").get_double("x");
    FAIL() << "expected pmc::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos);
  }
}

TEST(Options, IntListParsesPositiveEntries) {
  EXPECT_EQ(opts_with("2,8,32").get_int_list("x"),
            (std::vector<int>{2, 8, 32}));
  EXPECT_EQ(opts_with("+4").get_int_list("x"), (std::vector<int>{4}));
}

TEST(Options, IntListRejectsGarbageNonPositiveAndEmpty) {
  // Each failure names the flag (the bare std::stoi loop it replaces
  // silently ran "2x,8junk" as 2 and 8).
  for (const char* bad : {"2x,8junk", "2,8junk", "1.5", "2,,8", "2,", ",2",
                          "0", "4,-1", "", "2147483648"}) {
    try {
      (void)opts_with(bad).get_int_list("x");
      FAIL() << "expected pmc::Error for '" << bad << "'";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("option --x"), std::string::npos)
          << bad;
    }
  }
}

TEST(Options, DoubleListParsesEveryEntry) {
  EXPECT_EQ(opts_with("0,0.05,1e-3").get_double_list("x"),
            (std::vector<double>{0.0, 0.05, 1e-3}));
  EXPECT_EQ(opts_with("+2.5").get_double_list("x"),
            (std::vector<double>{2.5}));
}

TEST(Options, DoubleListRejectsGarbageEmptyAndOutOfRange) {
  // Each failure names the flag and the entry (the bare std::stod loop it
  // replaces ran "0.05x" as 0.05 and failed on "abc" with only "stod").
  const std::pair<const char*, const char*> cases[] = {
      {"0.05x", "'0.05x'"},   {"abc", "'abc'"},   {"0,,0.1", "''"},
      {"0.1,", "''"},         {",0.1", "''"},     {"", "''"},
      {"0,1e999", "'1e999'"}, {"0,nan", "'nan'"}, {"0.1 ", "'0.1 '"}};
  for (const auto& [bad, entry] : cases) {
    try {
      (void)opts_with(bad).get_double_list("x");
      FAIL() << "expected pmc::Error for '" << bad << "'";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("option --x"), std::string::npos) << bad;
      EXPECT_NE(what.find(entry), std::string::npos) << bad << ": " << what;
    }
  }
  try {
    (void)opts_with("0,1e999").get_double_list("x");
    FAIL() << "expected pmc::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos);
  }
}

TEST(Options, CollectsPositionalArguments) {
  Options opts;
  const char* argv[] = {"prog", "input.mtx", "more"};
  const auto positional = opts.parse(3, argv);
  ASSERT_EQ(positional.size(), 2u);
  EXPECT_EQ(positional[0], "input.mtx");
}

TEST(Options, HelpListsDeclaredOptions) {
  Options opts;
  opts.add("ranks", "4", "rank count");
  const std::string h = opts.help("prog");
  EXPECT_NE(h.find("--ranks"), std::string::npos);
  EXPECT_NE(h.find("rank count"), std::string::npos);
}

// Restores (or clears) an environment variable when the test ends.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (saved_.has_value()) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

Options threads_opts(const char* supplied) {
  Options opts;
  opts.add("threads", "", "execution backend threads");
  if (supplied == nullptr) {
    const char* argv[] = {"prog"};
    (void)opts.parse(1, argv);
  } else {
    const char* argv[] = {"prog", "--threads", supplied};
    (void)opts.parse(3, argv);
  }
  return opts;
}

TEST(Options, ThreadsParsesValidCounts) {
  ScopedEnv env("PMC_THREADS", nullptr);
  EXPECT_EQ(threads_opts("1").get_threads(), 1);
  EXPECT_EQ(threads_opts("2").get_threads(), 2);
  EXPECT_EQ(threads_opts("+2").get_threads(), 2);
  EXPECT_EQ(threads_opts(nullptr).get_threads(), 1);  // empty default -> 1
  EXPECT_EQ(threads_opts(std::to_string(max_thread_count()).c_str())
                .get_threads(),
            max_thread_count());
}

TEST(Options, ThreadsRejectsZeroAndTooLargeDistinctly) {
  ScopedEnv env("PMC_THREADS", nullptr);
  try {
    (void)threads_opts("0").get_threads();
    FAIL() << "expected pmc::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("at least 1 thread"),
              std::string::npos);
  }
  EXPECT_THROW((void)threads_opts("-3").get_threads(), Error);
  try {
    (void)threads_opts(std::to_string(max_thread_count() + 1).c_str())
        .get_threads();
    FAIL() << "expected pmc::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds 4x the hardware"),
              std::string::npos);
  }
}

TEST(Options, ThreadsRejectsNonIntegersAndOverflow) {
  ScopedEnv env("PMC_THREADS", nullptr);
  for (const char* bad : {"", "x", "2.5", "4x", "+"}) {
    try {
      (void)threads_opts(bad).get_threads();
      FAIL() << "expected pmc::Error for '" << bad << "'";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("expects an integer"),
                std::string::npos)
          << bad;
    }
  }
  try {
    (void)threads_opts("99999999999999999999").get_threads();
    FAIL() << "expected pmc::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos);
  }
}

TEST(Options, ThreadsEnvFallbackAndPrecedence) {
  {
    ScopedEnv env("PMC_THREADS", "2");
    // Unsupplied option defers to the environment...
    EXPECT_EQ(threads_opts(nullptr).get_threads(), 2);
    // ...but an explicit --threads wins over it.
    EXPECT_EQ(threads_opts("1").get_threads(), 1);
  }
  {
    ScopedEnv env("PMC_THREADS", "");
    EXPECT_EQ(threads_opts(nullptr).get_threads(), 1);  // empty env ignored
  }
  {
    ScopedEnv env("PMC_THREADS", "bogus");
    try {
      (void)threads_opts(nullptr).get_threads();
      FAIL() << "expected pmc::Error";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("PMC_THREADS"), std::string::npos);
    }
  }
  {
    ScopedEnv env("PMC_THREADS", "3");
    EXPECT_EQ(exec_config_from_env().threads, 3);
  }
  {
    ScopedEnv env("PMC_THREADS", nullptr);
    EXPECT_EQ(exec_config_from_env().threads, 1);
  }
}

}  // namespace
}  // namespace pmc
