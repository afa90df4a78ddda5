// Seeded mutation fuzzing of the text readers (Matrix Market and METIS
// .graph files, JSONL update logs, and command lines through Options) and of
// the wire-frame decode loop.
//
// Small generated texts are mutated a few bytes at a time: a byte flipped,
// deleted or duplicated; whitespace, '%', '+', 'e' or junk inserted; the text
// truncated; a number inflated to 20 digits. Frames of every record kind,
// under both codecs, get their payload mutated the same way (a byte flipped,
// deleted or duplicated; a 0x80 or 0xFF continuation byte inserted; the
// payload truncated) or their record count bumped, and are then re-sealed
// with a valid length and checksum so the mutant reaches the decode loop.
// Every mutant must end in a value or a pmc::Error, never another exception
// or a crash (the ASan stage runs this suite), and every value must write
// and re-read to itself. The budget is fixed, so the suite needs no external
// fuzzer and stays fast.
#include <gtest/gtest.h>

#include <iomanip>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "graph/generators.hpp"
#include "graph/matrix_market.hpp"
#include "graph/metis_io.hpp"
#include "matching/match_process.hpp"
#include "matching/parallel_verify.hpp"
#include "runtime/fabric.hpp"
#include "runtime/serialize.hpp"
#include "service/incremental_match.hpp"
#include "service/update_stream.hpp"
#include "support/error.hpp"
#include "support/options.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace pmc {
namespace {

constexpr int kMutantsPerReader = 3000;
constexpr int kMutantsPerDecoder = 3000;

std::string matrix_text(const SparseMatrix& m) {
  std::ostringstream out;
  out << std::setprecision(17);
  write_matrix_market(out, m);
  return out.str();
}

std::string metis_text(const Graph& g) {
  std::ostringstream out;
  out << std::setprecision(17);
  write_metis_graph(out, g);
  return out.str();
}

std::vector<std::string> matrix_market_seeds() {
  std::vector<std::string> seeds;
  BipartiteInfo info;
  SparseMatrix real =
      bipartite_to_matrix(random_bipartite(4, 5, 9, info), info);
  seeds.push_back(matrix_text(real));
  real.symmetric = true;
  real.cols = real.rows = 5;
  seeds.push_back(matrix_text(real));
  SparseMatrix pattern = bipartite_to_matrix(
      random_bipartite(3, 3, 5, info, WeightKind::kUnit), info);
  pattern.pattern = true;
  pattern.values.clear();
  seeds.push_back(matrix_text(pattern));
  seeds.push_back(
      "%%MatrixMarket matrix coordinate integer general\r\n"
      "% a comment\r\n"
      "\r\n"
      "3 3 4\r\n"
      "1 1 +7\r\n"
      "\t2 3 -2\r\n"
      "3 1 1e2\r\n"
      "3 3 0.5\r\n");
  return seeds;
}

std::vector<std::string> metis_seeds() {
  std::vector<std::string> seeds;
  seeds.push_back(metis_text(erdos_renyi(7, 9, WeightKind::kIntegral, 3)));
  seeds.push_back(metis_text(erdos_renyi(6, 7, WeightKind::kUniformRandom, 4)));
  seeds.push_back(
      "% a comment\n"
      "5 4\n"
      "2 3\n"
      "1 3\n"
      "1 2 4\n"
      "% vertex 4 next\n"
      "3\n"
      "\n");
  seeds.push_back("3 2 1\r\n2 +5 3 7\r\n1 5\r\n1\t7\r\n");
  return seeds;
}

/// `text` with one random mutation applied.
std::string mutate(std::string text, Rng& rng) {
  auto pos = [&](std::size_t extra) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(text.size() + extra) - 1));
  };
  static constexpr std::string_view kInserts(" \t\r\n%+e-.x0\x7f\0", 13);
  switch (text.empty() ? 3 : rng.uniform_int(0, 6)) {
    case 0: {  // flip one bit of a byte
      const std::size_t at = pos(0);
      text[at] = static_cast<char>(text[at] ^ (1 << rng.uniform_int(0, 7)));
      break;
    }
    case 1:
      text.erase(pos(0), 1);
      break;
    case 2: {
      const std::size_t at = pos(0);
      text.insert(at, 1, text[at]);
      break;
    }
    case 3:
    case 4:
      text.insert(pos(1), 1,
                  kInserts[static_cast<std::size_t>(rng.uniform_int(
                      0, static_cast<std::int64_t>(kInserts.size()) - 1))]);
      break;
    case 5:
      text.resize(pos(1));
      break;
    default: {  // inflate the number around a digit to 20 digits
      const std::size_t at = text.find_first_of("0123456789", pos(0));
      if (at == std::string::npos) break;
      std::size_t end = at;
      while (end < text.size() && text[end] >= '0' && text[end] <= '9') ++end;
      std::string digits(20, '0');
      for (char& d : digits) d = static_cast<char>('0' + rng.uniform_int(0, 9));
      digits[0] = static_cast<char>('1' + rng.uniform_int(0, 8));
      text.replace(at, end - at, digits);
      break;
    }
  }
  return text;
}

/// Calls visit(mutant) for a fixed, seeded budget: every seed unmutated,
/// then `budget` mutants of one to three mutations each.
template <typename T, typename Mutate, typename Visit>
void for_each_mutant(const std::vector<T>& seeds, std::uint64_t seed,
                     int budget, Mutate mutate, Visit visit) {
  for (const T& s : seeds) visit(s);
  Rng rng(seed);
  for (int i = 0; i < budget; ++i) {
    T item = seeds[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(seeds.size()) - 1))];
    const std::int64_t mutations = rng.uniform_int(1, 3);
    for (std::int64_t k = 0; k < mutations; ++k) item = mutate(item, rng);
    visit(item);
  }
}

/// Parses `text` with `read` and returns its canonical text, or nullopt
/// when the reader throws pmc::Error. Any other exception escapes and fails
/// the test.
template <typename Read, typename Write>
std::optional<std::string> parse_or_reject(const std::string& text, Read read,
                                           Write write) {
  std::istringstream in(text);
  try {
    return write(read(in));
  } catch (const Error&) {
    return std::nullopt;
  }
}

/// Fuzzes one reader: every accepted mutant re-reads to itself.
template <typename Read, typename Write>
void fuzz_reader(const std::vector<std::string>& seeds, std::uint64_t seed,
                 Read read, Write write) {
  int accepted = 0;
  int rejected = 0;
  for_each_mutant(seeds, seed, kMutantsPerReader, mutate,
                  [&](const std::string& text) {
    const std::optional<std::string> canonical =
        parse_or_reject(text, read, write);
    if (!canonical) {
      ++rejected;
      return;
    }
    ++accepted;
    EXPECT_EQ(parse_or_reject(*canonical, read, write), canonical)
        << "mutant:\n" << text;
  });
  testing::Test::RecordProperty("accepted", accepted);
  testing::Test::RecordProperty("rejected", rejected);
  // The budget must exercise both outcomes to mean anything.
  EXPECT_GT(accepted, kMutantsPerReader / 20);
  EXPECT_GT(rejected, kMutantsPerReader / 5);
}

TEST(ReaderFuzz, MatrixMarket) {
  fuzz_reader(
      matrix_market_seeds(), 0x3A7,
      [](std::istream& in) { return read_matrix_market(in); },
      matrix_text);
}

TEST(ReaderFuzz, Metis) {
  fuzz_reader(
      metis_seeds(), 0x3E7,
      [](std::istream& in) {
        Graph g = read_metis_graph(in);
        g.validate();
        return g;
      },
      metis_text);
}

std::string update_log_text(const std::vector<EdgeUpdate>& updates) {
  std::ostringstream out;
  write_update_log(out, updates);
  return out.str();
}

std::vector<std::string> update_log_seeds() {
  UpdateStreamConfig mixed;
  mixed.seed = 5;
  UpdateStreamConfig integral;
  integral.weights = WeightKind::kIntegral;
  integral.seed = 6;
  const Graph g = erdos_renyi(12, 20, WeightKind::kUniformRandom, 7);
  return {update_log_text(UpdateStreamGenerator(g, mixed).next_batch(6)),
          update_log_text(UpdateStreamGenerator(g, integral).next_batch(4)),
          "\n" R"({"op":"reweight", "u": 3 ,"v":-0,"w":1e-400})" "\n\n"};
}

TEST(ReaderFuzz, UpdateLog) {
  fuzz_reader(
      update_log_seeds(), 0x1D6,
      [](std::istream& in) { return read_update_log(in); }, update_log_text);
}

// A command line is fuzzed as text with one argument per line, so the byte
// mutations also split, merge and drop arguments. Its value is what every
// getter kind reads from a fixed option set, written back as a command
// line that names each option explicitly.
struct ParsedOptions {
  std::vector<std::string> positional;
  std::vector<int> ranks;
  std::int64_t seed = 0;
  double drop = 0.0;
  std::string name;
  bool verbose = false;
  int threads = 0;
};

ParsedOptions read_options(std::istream& in) {
  std::vector<std::string> args{"fuzz"};
  for (std::string arg; std::getline(in, arg);) args.push_back(arg);
  std::vector<const char*> argv;
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  Options opts;
  opts.add("ranks", "2,8", "int list");
  opts.add("seed", "1", "int");
  opts.add("drop", "0.05", "double");
  opts.add("name", "grid", "string");
  opts.add_flag("verbose", "flag");
  opts.add("threads", "1", "thread count");
  ParsedOptions parsed;
  parsed.positional = opts.parse(static_cast<int>(argv.size()), argv.data());
  parsed.ranks = opts.get_int_list("ranks");
  parsed.seed = opts.get_int("seed");
  parsed.drop = opts.get_double("drop");
  parsed.name = opts.get("name");
  parsed.verbose = opts.get_flag("verbose");
  parsed.threads = opts.get_threads();
  return parsed;
}

std::string options_text(const ParsedOptions& parsed) {
  std::ostringstream out;
  out << std::setprecision(17);
  for (const std::string& arg : parsed.positional) out << arg << '\n';
  out << "--ranks=";
  for (std::size_t i = 0; i < parsed.ranks.size(); ++i) {
    out << (i == 0 ? "" : ",") << parsed.ranks[i];
  }
  out << "\n--seed=" << parsed.seed << "\n--drop=" << parsed.drop
      << "\n--name=" << parsed.name
      << "\n--verbose=" << (parsed.verbose ? "true" : "false")
      << "\n--threads=" << parsed.threads << '\n';
  return out.str();
}

TEST(ReaderFuzz, Options) {
  fuzz_reader(
      {"--ranks=2,8,32\n--seed\n7\n--drop=0.05\n--name=grid\n--verbose\n"
       "--threads=1\ninput.mtx\n",
       "--ranks\n+4\n--drop\n1e-3\n--verbose=false\n--seed=-3\n",
       "input.mtx\n\n--name=\n--threads\n1\n--drop=-0\n"},
      0x0B7, read_options, options_text);
}

// ---- wire frames ------------------------------------------------------------

using Request = MatchProcess::Request;
using Succeeded = MatchProcess::Succeeded;
using Failed = MatchProcess::Failed;
using Invalidate = IncrementalMatchProcess::Invalidate;

/// `parts` with one random payload mutation, or its record count bumped.
test::FrameParts mutate_frame(test::FrameParts parts, Rng& rng) {
  std::vector<std::byte>& p = parts.payload;
  auto pos = [&](std::size_t extra) {
    return static_cast<std::ptrdiff_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(p.size() + extra) - 1));
  };
  switch (p.empty() ? 3 : rng.uniform_int(0, 6)) {
    case 0: {  // flip one bit of a byte
      const auto at = static_cast<std::size_t>(pos(0));
      p[at] ^= std::byte{1} << rng.uniform_int(0, 7);
      break;
    }
    case 1:
      p.erase(p.begin() + pos(0));
      break;
    case 2: {
      const auto at = p.begin() + pos(0);
      const std::byte copy = *at;
      p.insert(at, copy);
      break;
    }
    case 3:
    case 4:  // a continuation byte: no data (0x80) or all-ones data (0xFF)
      p.insert(p.begin() + pos(1),
               rng.uniform_int(0, 1) == 0 ? std::byte{0x80} : std::byte{0xFF});
      break;
    case 5:
      p.resize(static_cast<std::size_t>(pos(1)));
      break;
    default:
      if (parts.records == 0 || rng.uniform_int(0, 1) == 0) {
        ++parts.records;
      } else {
        --parts.records;
      }
      break;
  }
  return parts;
}

/// Seed frames of the kinds R... under both codecs: `sets` lists each
/// frame's records.
template <typename... R>
std::vector<test::FrameParts> frame_seeds(
    const std::vector<std::vector<std::variant<R...>>>& sets) {
  std::vector<test::FrameParts> seeds;
  for (const WireCodec codec : {WireCodec::kFixed, WireCodec::kCompact}) {
    for (const auto& records : sets) {
      FrameWriter w(codec);
      for (const auto& r : records) {
        std::visit([&](const auto& record) { w.put(record); }, r);
      }
      seeds.push_back(test::take_parts(w));
    }
  }
  return seeds;
}

/// Decodes a frame's records of kinds R..., or throws pmc::Error.
template <typename... R>
std::vector<std::variant<R...>> decode_frame(std::span<const std::byte> frame) {
  std::vector<std::variant<R...>> out;
  for_each_record<R...>(frame,
                        [&](const auto& record) { out.emplace_back(record); });
  return out;
}

template <typename... R>
bool same_records(const std::vector<std::variant<R...>>& a,
                  const std::vector<std::variant<R...>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].index() != b[i].index()) return false;
    const bool same = std::visit(
        [&](const auto& x) {
          using Kind = std::decay_t<decltype(x)>;
          return test::same_record(x, std::get<Kind>(b[i]));
        },
        a[i]);
    if (!same) return false;
  }
  return true;
}

/// Fuzzes the decode loop over kinds R...: every accepted mutant's records
/// re-encode and decode back to themselves.
template <typename... R>
void fuzz_frames(const std::vector<test::FrameParts>& seeds,
                 std::uint64_t seed) {
  int accepted = 0;
  int rejected = 0;
  for_each_mutant(
      seeds, seed, kMutantsPerDecoder, mutate_frame,
      [&](const test::FrameParts& parts) {
        std::vector<std::variant<R...>> records;
        try {
          records = decode_frame<R...>(test::seal_frame(parts));
        } catch (const Error&) {
          ++rejected;
          return;
        }
        ++accepted;
        FrameWriter w(parts.codec);
        for (const auto& r : records) {
          std::visit([&](const auto& record) { w.put(record); }, r);
        }
        EXPECT_TRUE(same_records(decode_frame<R...>(w.take()), records));
      });
  testing::Test::RecordProperty("accepted", accepted);
  testing::Test::RecordProperty("rejected", rejected);
  EXPECT_GT(accepted, kMutantsPerDecoder / 20);
  EXPECT_GT(rejected, kMutantsPerDecoder / 5);
}

TEST(FrameFuzz, ColorRecord) {
  fuzz_frames<ColorRecord>(
      frame_seeds<ColorRecord>({{ColorRecord{1000, 3},
                                 ColorRecord{998, kNoColor},
                                 ColorRecord{kNoVertex, 17}},
                                {ColorRecord{5, 0}, ColorRecord{6, 4000}}}),
      0xC01);
}

TEST(FrameFuzz, MateRecord) {
  fuzz_frames<MateRecord>(
      frame_seeds<MateRecord>({{MateRecord{42, 43}, MateRecord{40, kNoVertex},
                                MateRecord{5000000000, 4999999999}},
                               {MateRecord{7, 3}}}),
      0x3A7E);
}

TEST(FrameFuzz, MatchingRecords) {
  fuzz_frames<Request, Succeeded, Failed, Invalidate>(
      frame_seeds<Request, Succeeded, Failed, Invalidate>(
          {{Request{7, 12}, Succeeded{9, 8}, Failed{100}, Invalidate{5}},
           {Request{3, 1}, Request{kNoVertex, 2}},
           {Succeeded{2, 1000000}, Failed{kNoVertex}, Invalidate{12}}}),
      0x3A7C);
}

}  // namespace
}  // namespace pmc
