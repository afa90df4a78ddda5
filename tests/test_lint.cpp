// Fixture suite for pmc-lint (tools/pmc-lint): every rule (D1-D3) must both
// fire on its violation fixture and stay silent on the conforming one, and
// the path-based rule scoping must carve out the sanctioned homes (the
// HashSet header for hash containers, rng/timer for entropy, serialize for
// raw bytes) and follow the repo root, wherever the checkout lives. A whole
// run must list the library's files and scope each by its path.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "lint.hpp"

namespace {

using pmc_lint::Diagnostic;

std::string fixture(const std::string& name) {
  return std::string(PMC_LINT_FIXTURE_DIR) + "/" + name;
}

std::vector<Diagnostic> lint_fixture(const std::string& name) {
  return pmc_lint::analyze_file(fixture(name), pmc_lint::all_rules());
}

std::string read_fixture(const std::string& name) {
  std::ifstream in(fixture(name), std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::vector<Diagnostic> with_rule(const std::vector<Diagnostic>& diags,
                                  const std::string& rule) {
  std::vector<Diagnostic> out;
  for (const auto& d : diags) {
    if (d.rule == rule) out.push_back(d);
  }
  return out;
}

// ---- D1: hash containers outside the HashSet header ------------------------

TEST(LintD1, FiresOnEveryUnorderedContainerName) {
  const auto d1 = with_rule(lint_fixture("d1_violation.cpp"), "D1");
  ASSERT_EQ(d1.size(), 4u);
  // Both includes, the map and the multiset.
  const std::vector<int> lines = {4, 5, 11, 12};
  for (std::size_t i = 0; i < d1.size(); ++i) {
    EXPECT_EQ(d1[i].line, lines[i]);
    EXPECT_NE(d1[i].message.find("pmc::HashSet"), std::string::npos);
  }
  EXPECT_NE(d1[3].message.find("'unordered_multiset'"), std::string::npos);
}

TEST(LintD1, SilentOnHashSetAndOrderedContainers) {
  EXPECT_TRUE(with_rule(lint_fixture("d1_clean.cpp"), "D1").empty());
}

// ---- D2: hidden entropy ---------------------------------------------------

TEST(LintD2, FiresOnEveryEntropySource) {
  const auto d2 = with_rule(lint_fixture("d2_violation.cpp"), "D2");
  // srand, rand, time, random_device, system_clock.
  EXPECT_EQ(d2.size(), 5u);
}

TEST(LintD2, SilentOnMemberTimeAndSteadyClock) {
  EXPECT_TRUE(with_rule(lint_fixture("d2_clean.cpp"), "D2").empty());
}

// ---- D3: raw serialization ------------------------------------------------

TEST(LintD3, FiresOnMemcpyAndReinterpretCast) {
  const auto d3 = with_rule(lint_fixture("d3_violation.cpp"), "D3");
  ASSERT_EQ(d3.size(), 2u);
  EXPECT_NE(d3[0].message.find("memcpy"), std::string::npos);
  EXPECT_NE(d3[1].message.find("reinterpret_cast"), std::string::npos);
}

TEST(LintD3, SilentOnFrameCodecUsage) {
  EXPECT_TRUE(with_rule(lint_fixture("d3_clean.cpp"), "D3").empty());
}

// ---- rule scoping ----------------------------------------------------------

TEST(LintScope, SanctionedHomesAreExempt) {
  // Hash containers may live in the HashSet header; entropy in the RNG and
  // the wall timer; raw bytes in the codec.
  EXPECT_FALSE(pmc_lint::scope_for_path("src/support/hash_set.hpp").d1);
  EXPECT_TRUE(pmc_lint::scope_for_path("src/support/hash_set.cpp").d1);
  EXPECT_FALSE(pmc_lint::scope_for_path("src/support/rng.hpp").d2);
  EXPECT_FALSE(pmc_lint::scope_for_path("src/support/rng.cpp").d2);
  EXPECT_FALSE(pmc_lint::scope_for_path("src/support/timer.hpp").d2);
  EXPECT_TRUE(pmc_lint::scope_for_path("src/support/options.cpp").d2);
  EXPECT_FALSE(pmc_lint::scope_for_path("src/runtime/serialize.hpp").d3);
  EXPECT_FALSE(pmc_lint::scope_for_path("src/runtime/serialize.cpp").d3);
  EXPECT_TRUE(pmc_lint::scope_for_path("src/runtime/fabric.hpp").d3);
}

TEST(LintScope, RulesBindToSrcOnly) {
  for (const char* path : {"src/graph/algorithms.cpp",
                           "src/matching/parallel.cpp", "src/runtime/x.hpp"}) {
    const auto scope = pmc_lint::scope_for_path(path);
    EXPECT_TRUE(scope.d1 && scope.d2 && scope.d3) << path;
  }
  for (const char* path : {"tests/test_lint.cpp", "tools/pmc-lint/lint.cpp",
                           "bench/src/x.cpp", "/elsewhere/src/x.cpp"}) {
    const auto scope = pmc_lint::scope_for_path(path);
    EXPECT_FALSE(scope.d1 || scope.d2 || scope.d3) << path;
  }
  // Absolute paths scope by their place under the root.
  EXPECT_EQ(pmc_lint::root_relative("/work/repo/src/matching/parallel.cpp",
                                    "/work/repo"),
            "src/matching/parallel.cpp");
  EXPECT_EQ(pmc_lint::root_relative("/work/repo/./src/../src/a.cpp",
                                    "/work/repo/"),
            "src/a.cpp");
  EXPECT_EQ(pmc_lint::root_relative("/elsewhere/src/x.cpp", "/work/repo"),
            "/elsewhere/src/x.cpp");
}

TEST(LintScope, PathScopingChangesTheFindings) {
  const std::string text = read_fixture("d1_violation.cpp");
  ASSERT_FALSE(text.empty());
  const auto scoped = [&](const std::string& path) {
    return with_rule(
        pmc_lint::analyze_source(path, text, pmc_lint::scope_for_path(path)),
        "D1");
  };
  EXPECT_EQ(scoped("src/runtime/x.cpp").size(), 4u);
  EXPECT_EQ(scoped("src/graph/x.cpp").size(), 4u);
  EXPECT_TRUE(scoped("src/support/hash_set.hpp").empty());
  EXPECT_TRUE(scoped("tests/x.cpp").empty());
}

// ---- drivers ---------------------------------------------------------------

TEST(LintDriver, LibraryFilesAndScopesFollowTheRoot) {
  // A checkout inside a directory that is itself named src: only the
  // root's own src/ is library code, only its .cpp and .hpp files are
  // listed, and a test file gets no rule.
  namespace fs = std::filesystem;
  const fs::path outer = fs::path(testing::TempDir()) / "pmc_lint_root";
  const fs::path root = outer / "src" / "pmc";
  const std::string violation = "#include <unordered_set>\nint r = rand();\n";
  for (const fs::path& f :
       {root / "src/a.cpp", root / "src/runtime/h.hpp",
        root / "src/CMakeLists.txt", root / "tests/x.cpp",
        root / "tools/pmc-lint/lint.cpp", root / "bench/b.hpp",
        outer / "src/other.cpp"}) {
    fs::create_directories(f.parent_path());
    std::ofstream(f, std::ios::binary) << violation;
  }
  const auto files = pmc_lint::library_sources(root.string());
  EXPECT_EQ(files, (std::vector<std::string>{
                       (root / "src/a.cpp").string(),
                       (root / "src/runtime/h.hpp").string()}));
  // A root without src/ is an error, not a clean run over no files.
  EXPECT_THROW((void)pmc_lint::library_sources((root / "tests").string()),
               std::runtime_error);

  const auto report = pmc_lint::analyze_program_paths(
      {(root / "src/a.cpp").string(), (root / "tests/x.cpp").string()},
      root.string(), {});
  ASSERT_EQ(report.diagnostics.size(), 2u);
  for (const auto& d : report.diagnostics) EXPECT_EQ(d.file, "src/a.cpp");
  EXPECT_EQ(with_rule(report.diagnostics, "D1").size(), 1u);
  EXPECT_EQ(with_rule(report.diagnostics, "D2").size(), 1u);
  fs::remove_all(outer);
}

}  // namespace
