// pmc-lint — the project's determinism & protocol static-analysis pass.
//
// A token scanner over the C++ sources that enforces invariants the
// runtime's reproducibility guarantees rest on (DESIGN.md §7). It is not a
// compiler: rules are implemented over a comment/string-stripped token view
// of each file, and every rule looks at one file at a time. There are no
// in-source suppressions: the one place a file is exempted from a rule is
// scope_for_path, which names each rule's sanctioned homes.
//
// Four former rules are enforced by types instead: wire records have one
// field list that FrameWriter::put and for_each_record both walk, the one
// decode loop checks done() itself, post_send_at() takes only a
// CommFabric::SendTime, which only Lane::begin_send() can make, and the one
// hash container in src/ (pmc::HashSet) cannot be iterated, so hash order
// can reach neither a send nor a floating-point sum. D1 keeps that type the
// only hash container there.
//
// Rules (scopes are predicates on the path relative to the repo root):
//
//   D1  no std::unordered_map/unordered_set/unordered_multimap/
//       unordered_multiset anywhere in src/ except src/support/hash_set.hpp,
//       the home of pmc::HashSet — hash order is a property of the standard
//       library's bucket layout, not of the protocol.
//   D2  no hidden entropy: rand, srand, std::random_device, time(),
//       std::chrono::system_clock anywhere in src/ outside
//       src/support/rng.* and src/support/timer.hpp. All randomness flows
//       through pmc::Rng; all wall time through WallTimer.
//   D3  no raw memcpy / reinterpret_cast serialization in src/ outside
//       src/runtime/serialize.* — wire traffic goes through the versioned,
//       checksummed frame codec.
#pragma once

#include <string>
#include <vector>

namespace pmc_lint {

/// One finding; every finding fails the run.
struct Diagnostic {
  std::string rule;     ///< "D1".."D3".
  std::string file;     ///< Path as given to the analysis.
  int line = 0;         ///< 1-based.
  std::string message;  ///< Human-readable explanation.
};

/// Which rules apply to a file, derived from its path.
struct RuleScope {
  bool d1 = false;  ///< All of src/ except the HashSet header.
  bool d2 = false;  ///< src/ except the entropy allowlist.
  bool d3 = false;  ///< src/ except serialize.*.
};

/// `path` relative to `root`, both made absolute and lexically normal
/// ("src/runtime/fabric.hpp"). A path outside `root` comes back absolute,
/// and so gets no rule.
[[nodiscard]] std::string root_relative(const std::string& path,
                                        const std::string& root);

/// Scope for a path relative to the repo root (see root_relative).
[[nodiscard]] RuleScope scope_for_path(const std::string& path);

/// Scope with every rule enabled — what the fixture tests use, so each rule
/// can be exercised regardless of where the fixture file lives.
[[nodiscard]] RuleScope all_rules();

/// Runs every in-scope rule over one file's contents. `path` is used for
/// diagnostics only; scoping is the caller's job (scope_for_path).
[[nodiscard]] std::vector<Diagnostic> analyze_source(
    const std::string& path, const std::string& contents,
    const RuleScope& scope);

/// analyze_source over the file at `path` (throws std::runtime_error when
/// unreadable).
[[nodiscard]] std::vector<Diagnostic> analyze_file(const std::string& path,
                                                   const RuleScope& scope);

// ---- a whole run -----------------------------------------------------------

/// One file handed to analyze_program. `path` is relative to the repo root;
/// it drives scoping (scope_for_path) and diagnostics and does not need to
/// exist on disk, so tests can fabricate src/-shaped paths for in-memory
/// sources.
struct SourceFile {
  std::string path;
  std::string contents;
};

struct ProgramOptions {
  /// Every rule on for every file (fixture mode) instead of scope_for_path.
  bool all_rules = false;
};

struct ProgramReport {
  std::vector<Diagnostic> diagnostics;  ///< Sorted by file, line, rule.
  std::size_t files_scanned = 0;
};

/// The rules over every file.
[[nodiscard]] ProgramReport analyze_program(
    const std::vector<SourceFile>& sources, const ProgramOptions& opts);

/// analyze_program over on-disk files, each scoped and reported by its path
/// relative to `root` (throws std::runtime_error when one is unreadable).
[[nodiscard]] ProgramReport analyze_program_paths(
    const std::vector<std::string>& paths, const std::string& root,
    const ProgramOptions& opts);

/// The library's files: every .cpp and .hpp under root/src, sorted. Every
/// rule binds to src/, so nothing outside it needs listing. Throws
/// std::runtime_error when root/src is not a directory.
[[nodiscard]] std::vector<std::string> library_sources(
    const std::string& root);

}  // namespace pmc_lint
