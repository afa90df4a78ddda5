// Fixture suite for pmc-lint (tools/pmc-lint): every determinism rule
// (D1-D3, D5) must both fire on its violation fixture and stay silent on
// the conforming one, the allow() suppression path must work (and demand a
// justification), and the path-based rule scoping must carve out the
// sanctioned homes (rng/timer for entropy, serialize for raw bytes).
//
// The v2 whole-program analysis gets the same treatment: the D10
// stale-suppression audit, D1-D5 propagation through one level of helper
// indirection, and the JSON report plumbing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
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

/// Whole-program run over on-disk fixtures, every rule live (the fixtures
/// do not live under src/, so path scoping would blank them out).
pmc_lint::ProgramReport program_fixture(const std::vector<std::string>& names,
                                        bool audit = true) {
  std::vector<std::string> paths;
  paths.reserve(names.size());
  for (const auto& n : names) paths.push_back(fixture(n));
  pmc_lint::ProgramOptions opts;
  opts.all_rules = true;
  opts.audit_suppressions = audit;
  return pmc_lint::analyze_program_paths(paths, opts);
}

std::vector<Diagnostic> with_rule(const std::vector<Diagnostic>& diags,
                                  const std::string& rule) {
  std::vector<Diagnostic> out;
  for (const auto& d : diags) {
    if (d.rule == rule) out.push_back(d);
  }
  return out;
}

// ---- D1: unordered iteration in message-producing code --------------------

TEST(LintD1, FiresOnUnorderedRangeIterationFeedingSends) {
  const auto d1 = with_rule(lint_fixture("d1_violation.cpp"), "D1");
  ASSERT_EQ(d1.size(), 1u);
  EXPECT_FALSE(d1[0].suppressed);
  EXPECT_EQ(d1[0].line, 12);
  EXPECT_NE(d1[0].message.find("sorted_keys"), std::string::npos);
}

TEST(LintD1, SilentOnSortedSnapshotAndPlainVectors) {
  EXPECT_TRUE(with_rule(lint_fixture("d1_clean.cpp"), "D1").empty());
}

TEST(LintD1, SuppressionNeedsAJustification) {
  const auto d1 = with_rule(lint_fixture("d1_suppressed.cpp"), "D1");
  ASSERT_EQ(d1.size(), 2u);
  // First hit: justified allow() on the line above — suppressed.
  EXPECT_TRUE(d1[0].suppressed);
  EXPECT_EQ(d1[0].justification, "order-independent integer sum, no sends");
  // Second hit: allow() without a justification — still counts.
  EXPECT_FALSE(d1[1].suppressed);
  EXPECT_NE(d1[1].message.find("no justification"), std::string::npos);
}

// ---- D2: hidden entropy ---------------------------------------------------

TEST(LintD2, FiresOnEveryEntropySource) {
  const auto d2 = with_rule(lint_fixture("d2_violation.cpp"), "D2");
  // srand, rand, time, random_device, system_clock.
  EXPECT_EQ(d2.size(), 5u);
  for (const auto& d : d2) EXPECT_FALSE(d.suppressed);
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

// ---- D5: FP reduction in hash order ----------------------------------------

TEST(LintD5, FiresOnFloatAccumulationUnderUnorderedIteration) {
  const auto d5 = with_rule(lint_fixture("d5_violation.cpp"), "D5");
  ASSERT_EQ(d5.size(), 1u);
  EXPECT_NE(d5[0].message.find("order-sensitive"), std::string::npos);
}

TEST(LintD5, SilentOnIntegerFoldsAndSortedSnapshots) {
  EXPECT_TRUE(with_rule(lint_fixture("d5_clean.cpp"), "D5").empty());
}

// ---- rule scoping ----------------------------------------------------------

TEST(LintScope, SanctionedHomesAreExempt) {
  // Entropy may live in the RNG and the wall timer; raw bytes in the codec.
  EXPECT_FALSE(pmc_lint::scope_for_path("src/support/rng.hpp").d2);
  EXPECT_FALSE(pmc_lint::scope_for_path("src/support/rng.cpp").d2);
  EXPECT_FALSE(pmc_lint::scope_for_path("src/support/timer.hpp").d2);
  EXPECT_TRUE(pmc_lint::scope_for_path("src/support/options.cpp").d2);
  EXPECT_FALSE(pmc_lint::scope_for_path("src/runtime/serialize.hpp").d3);
  EXPECT_FALSE(pmc_lint::scope_for_path("src/runtime/serialize.cpp").d3);
  EXPECT_TRUE(pmc_lint::scope_for_path("src/runtime/fabric.hpp").d3);
}

TEST(LintScope, D1BindsToMessageProducingDirectories) {
  EXPECT_TRUE(pmc_lint::scope_for_path("src/matching/parallel.cpp").d1);
  EXPECT_TRUE(pmc_lint::scope_for_path("src/coloring/parallel.cpp").d1);
  EXPECT_TRUE(pmc_lint::scope_for_path("src/runtime/fabric.hpp").d1);
  // Sequential/graph code orders nothing on the wire; D5 still applies.
  const auto graph = pmc_lint::scope_for_path("src/graph/algorithms.cpp");
  EXPECT_FALSE(graph.d1);
  EXPECT_TRUE(graph.d5);
  // Absolute build paths normalize to the repo-relative form.
  EXPECT_TRUE(
      pmc_lint::scope_for_path("/root/repo/src/matching/parallel.cpp").d1);
}

TEST(LintScope, PathScopingChangesTheFindings) {
  std::ifstream in(fixture("d1_violation.cpp"), std::ios::binary);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const auto in_runtime = pmc_lint::analyze_source(
      "src/runtime/x.cpp", text,
      pmc_lint::scope_for_path("src/runtime/x.cpp"));
  EXPECT_EQ(with_rule(in_runtime, "D1").size(), 1u);
  const auto in_graph = pmc_lint::analyze_source(
      "src/graph/x.cpp", text, pmc_lint::scope_for_path("src/graph/x.cpp"));
  EXPECT_TRUE(with_rule(in_graph, "D1").empty());
}

// ---- D10: stale-suppression audit -------------------------------------------

TEST(LintD10, FiresOnStaleAllow) {
  const auto report = program_fixture({"d10_violation.cpp"});
  const auto d10 = with_rule(report.diagnostics, "D10");
  ASSERT_EQ(d10.size(), 1u);
  EXPECT_EQ(d10[0].line, 5);
  EXPECT_NE(d10[0].message.find("stale suppression: allow(D1)"),
            std::string::npos);
}

TEST(LintD10, SilentWhenAllowsAreConsumed) {
  const auto report = program_fixture({"d10_clean.cpp"});
  EXPECT_TRUE(with_rule(report.diagnostics, "D10").empty());
  const auto d1 = with_rule(report.diagnostics, "D1");
  ASSERT_EQ(d1.size(), 1u);
  EXPECT_TRUE(d1[0].suppressed);
  EXPECT_EQ(pmc_lint::failing_count(report), 0u);
}

TEST(LintD10, ParkedLedgerEntrySuppressibleWithAllowD10) {
  const auto report = program_fixture({"d10_suppressed.cpp"});
  const auto d10 = with_rule(report.diagnostics, "D10");
  ASSERT_EQ(d10.size(), 2u);
  for (const auto& d : d10) {
    EXPECT_TRUE(d.suppressed);
    EXPECT_EQ(d.justification,
              "ledger entry parked while the frontier migration lands");
  }
  EXPECT_EQ(pmc_lint::failing_count(report), 0u);
}

TEST(LintD10, AuditCanBeTurnedOff) {
  const auto report =
      program_fixture({"d10_violation.cpp"}, /*audit=*/false);
  EXPECT_TRUE(with_rule(report.diagnostics, "D10").empty());
}

// ---- D1-D5 propagation through helper indirection ---------------------------

TEST(LintPropagation, ScopeHiddenHelperTaintsLiveCallSitesOnly) {
  // The helper's own file (src/graph) is outside D1's scope, so the hash-
  // order loop hides there; the call from message-producing code inherits
  // the finding, the call from another src/graph file does not.
  const std::vector<pmc_lint::SourceFile> srcs = {
      {"src/graph/bucket_sum.cpp",
       "#include <unordered_map>\n"
       "namespace pmc {\n"
       "long bucket_sum(const std::unordered_map<int, long>& m) {\n"
       "  long total = 0;\n"
       "  for (const auto& [k, v] : m) total += v;\n"
       "  return total;\n"
       "}\n"
       "}  // namespace pmc\n"},
      {"src/matching/ship_totals.cpp",
       "#include <unordered_map>\n"
       "namespace pmc {\n"
       "struct RankCtx { void send(int, long, long); };\n"
       "void ship_totals(RankCtx& ctx,\n"
       "                 const std::unordered_map<int, long>& m) {\n"
       "  ctx.send(0, bucket_sum(m), 1);\n"
       "}\n"
       "}  // namespace pmc\n"},
      {"src/graph/grand_total.cpp",
       "#include <unordered_map>\n"
       "namespace pmc {\n"
       "long grand_total(const std::unordered_map<int, long>& m) {\n"
       "  return bucket_sum(m);\n"
       "}\n"
       "}  // namespace pmc\n"}};
  const auto report = pmc_lint::analyze_program(srcs, {});
  const auto d1 = with_rule(report.diagnostics, "D1");
  ASSERT_EQ(d1.size(), 1u);
  EXPECT_EQ(d1[0].file, "src/matching/ship_totals.cpp");
  EXPECT_NE(d1[0].message.find("bucket_sum"), std::string::npos);
  EXPECT_NE(d1[0].message.find("scope hides"), std::string::npos);
}

// ---- drivers ---------------------------------------------------------------

TEST(LintDriver, CompileCommandsFilesParsesAndDeduplicates) {
  const std::string path = testing::TempDir() + "pmc_lint_cc.json";
  {
    std::ofstream out(path, std::ios::binary);
    out << R"([
      {"directory": "/b", "command": "c++ -c a.cpp", "file": "/r/src/a.cpp"},
      {"directory": "/b", "command": "c++ -c b.cpp", "file": "/r/src/b.cpp"},
      {"directory": "/b", "command": "c++ -c a.cpp", "file": "/r/src/a.cpp"}
    ])";
  }
  const auto files = pmc_lint::compile_commands_files(path);
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0], "/r/src/a.cpp");
  EXPECT_EQ(files[1], "/r/src/b.cpp");
  std::remove(path.c_str());
  EXPECT_THROW(pmc_lint::compile_commands_files("/nonexistent/cc.json"),
               std::runtime_error);
}

TEST(LintDriver, RelativeEntriesResolveAgainstDirectoryAndJsonParent) {
  namespace fs = std::filesystem;
  const fs::path base = fs::path(testing::TempDir()) / "pmc_lint_cc_rel";
  fs::create_directories(base / "bld");
  const std::string path = (base / "bld" / "compile_commands.json").string();
  {
    std::ofstream out(path, std::ios::binary);
    out << "[\n"
        << "  {\"directory\": \".\", \"command\": \"c++ -c ../src/a.cpp\", "
           "\"file\": \"../src/a.cpp\"},\n"
        << "  {\"directory\": \"" << base.string()
        << "\", \"file\": \"src/b.cpp\"},\n"
        << "  {\"directory\": \"ignored\", \"file\": \"/abs/src/c.cpp\"}\n"
        << "]\n";
  }
  const auto files = pmc_lint::compile_commands_files(path);
  ASSERT_EQ(files.size(), 3u);
  // Relative file against relative directory against the JSON's parent.
  EXPECT_EQ(files[0], (base / "src" / "a.cpp").lexically_normal().string());
  // Relative file against an absolute directory.
  EXPECT_EQ(files[1], (base / "src" / "b.cpp").lexically_normal().string());
  // Absolute file wins regardless of directory.
  EXPECT_EQ(files[2], "/abs/src/c.cpp");
  fs::remove_all(base);
}

TEST(LintDriver, MultiConfigSourcesDeduplicateAcrossDatabases) {
  const std::string j1 = testing::TempDir() + "pmc_lint_cc1.json";
  const std::string j2 = testing::TempDir() + "pmc_lint_cc2.json";
  {
    std::ofstream out(j1, std::ios::binary);
    out << R"([
      {"directory": "/b1", "file": "/r/src/a.cpp"},
      {"directory": "/b1", "file": "/r/src/./b.cpp"}
    ])";
  }
  {
    std::ofstream out(j2, std::ios::binary);
    out << R"([
      {"directory": "/b2", "file": "/r/src/b.cpp"},
      {"directory": "/b2", "file": "/r/src/c.cpp"}
    ])";
  }
  const auto files = pmc_lint::compile_commands_sources({j1, j2});
  // b.cpp appears in both databases (one spelling denormalized) but is
  // linted once; order is first appearance.
  ASSERT_EQ(files.size(), 3u);
  EXPECT_EQ(files[0], "/r/src/a.cpp");
  EXPECT_EQ(files[1], "/r/src/b.cpp");
  EXPECT_EQ(files[2], "/r/src/c.cpp");
  std::remove(j1.c_str());
  std::remove(j2.c_str());
}

TEST(LintDriver, JsonReportCountsSuppressedAndUnsuppressed) {
  auto diags = lint_fixture("d1_suppressed.cpp");
  const std::string json = pmc_lint::to_json(diags, 1);
  EXPECT_NE(json.find("\"tool\": \"pmc-lint\""), std::string::npos);
  EXPECT_NE(json.find("\"files_scanned\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"suppressed\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"unsuppressed\": 1"), std::string::npos);
  EXPECT_NE(json.find("order-independent integer sum"), std::string::npos);
}

}  // namespace
