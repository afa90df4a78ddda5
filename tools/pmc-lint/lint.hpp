// pmc-lint — the project's determinism & protocol static-analysis pass.
//
// A token/AST-lite analyzer over the C++ sources that enforces invariants the
// runtime's reproducibility guarantees rest on (DESIGN.md §7). It is not a
// compiler: rules are implemented over a comment/string-stripped token view
// of each translation unit, tuned to this codebase's idiom, and every
// diagnostic can be suppressed in place with a justification:
//
//     // pmc-lint: allow(D1): order-independent integer sum, no sends
//
// on the diagnostic's line or the line directly above it. A suppression
// without a justification text does not count.
//
// v2 runs in two passes. Pass 1 indexes every function definition in the
// scanned sources (name, file:line, body). Pass 2 runs the per-file rules
// D1-D3 and D5, lets them propagate through one level of helper
// indirection via the call graph (a helper whose own file hides a banned
// pattern from its scope taints every call site where the rule is live),
// and finally runs the D10 audit over everything reported.
//
// Three former rules are enforced by types instead: wire records have one
// field list that FrameWriter::put and for_each_record both walk, the one
// decode loop checks done() itself, and post_send_at() takes only a
// CommFabric::SendTime, which only Lane::begin_send() can make.
//
// Rules (scopes are path predicates relative to the repo root):
//
//   D1  no unordered_map/unordered_set range-iteration in message-producing
//       code (src/matching, src/coloring, src/runtime) — hash-order
//       traversals would tie send sequences to the standard library's
//       bucket layout. Use the sorted-snapshot helpers (support/sorted.hpp).
//   D2  no hidden entropy: rand, srand, std::random_device, time(),
//       std::chrono::system_clock anywhere outside src/support/rng.* and
//       src/support/timer.hpp. All randomness flows through pmc::Rng; all
//       wall time through WallTimer.
//   D3  no raw memcpy / reinterpret_cast serialization outside
//       src/runtime/serialize.* — wire traffic goes through the versioned,
//       checksummed frame codec.
//   D5  no float/double accumulation inside an unordered-container
//       range-iteration anywhere in src/ — FP addition is order-sensitive,
//       so a hash-order reduction is silently nondeterministic.
//   D10 stale-suppression audit (whole run): an allow() comment that no
//       longer suppresses any diagnostic fails the build, keeping the
//       suppression ledger honest.
#pragma once

#include <string>
#include <vector>

namespace pmc_lint {

/// One finding. `suppressed` is true when a well-formed allow() comment with
/// a justification covers the line.
struct Diagnostic {
  std::string rule;     ///< "D1".."D5", "D10".
  std::string file;     ///< Path as given to analyze_file.
  int line = 0;         ///< 1-based.
  std::string message;  ///< Human-readable explanation.
  bool suppressed = false;
  std::string justification;  ///< allow() comment text when suppressed.
  /// Line of the allow() comment that matched this diagnostic's rule (even
  /// when rejected for a missing justification); 0 when none did. The D10
  /// audit reads consumption off this field.
  int allow_line = 0;
};

/// Which rule families apply to a file, derived from its path. D10 is a
/// run-level audit, not a per-file rule, so it has no entry here.
struct RuleScope {
  bool d1 = false;  ///< Message-producing code (matching/coloring/runtime).
  bool d2 = false;  ///< Everything except the entropy allowlist.
  bool d3 = false;  ///< Everything except serialize.*.
  bool d5 = false;  ///< All of src/.
};

/// Scope for a path as the CI lint run uses it: `path` is normalized to the
/// repo-relative form before the src/-based predicates are applied.
[[nodiscard]] RuleScope scope_for_path(const std::string& path);

/// Scope with every rule enabled — what the fixture tests use, so each rule
/// can be exercised regardless of where the fixture file lives.
[[nodiscard]] RuleScope all_rules();

/// Runs every in-scope *per-file* rule (D1-D3, D5) over one file's
/// contents. `path` is used for diagnostics only; scoping is the caller's
/// job (scope_for_path). Helper propagation and the D10 audit need the
/// whole-program view: use analyze_program.
[[nodiscard]] std::vector<Diagnostic> analyze_source(
    const std::string& path, const std::string& contents,
    const RuleScope& scope);

/// analyze_source over the file at `path` (throws std::runtime_error when
/// unreadable), scoped by scope_for_path unless `scope` is provided.
[[nodiscard]] std::vector<Diagnostic> analyze_file(const std::string& path);
[[nodiscard]] std::vector<Diagnostic> analyze_file(const std::string& path,
                                                   const RuleScope& scope);

// ---- whole-program analysis ------------------------------------------------

/// One translation unit handed to analyze_program. `path` drives scoping
/// (scope_for_path) and diagnostics; it does not need to exist on disk, so
/// tests can fabricate src/-shaped paths for in-memory sources.
struct SourceFile {
  std::string path;
  std::string contents;
};

struct ProgramOptions {
  /// Every rule on for every file (fixture mode) instead of scope_for_path.
  bool all_rules = false;
  /// Run the D10 stale-suppression audit (on for CI; fixture tests that
  /// deliberately carry non-matching allows turn it off).
  bool audit_suppressions = true;
};

struct ProgramReport {
  std::vector<Diagnostic> diagnostics;  ///< Sorted by file, line, rule.
  std::size_t files_scanned = 0;
};

/// The two-pass analysis: per-file rules, then one-level helper
/// propagation over the whole-program index, then the D10 suppression
/// audit.
[[nodiscard]] ProgramReport analyze_program(
    const std::vector<SourceFile>& sources, const ProgramOptions& opts);

/// analyze_program over on-disk files (throws std::runtime_error when one
/// is unreadable).
[[nodiscard]] ProgramReport analyze_program_paths(
    const std::vector<std::string>& paths, const ProgramOptions& opts);

// ---- compile_commands ------------------------------------------------------

/// Extracts the source files of a compile_commands.json, deduplicated, in
/// first-appearance order. Relative "file" entries are resolved against the
/// entry's "directory"; a relative "directory" is resolved against the JSON
/// file's own parent directory. Paths are lexically normalized so the same
/// source listed under multiple build configs collapses to one entry.
/// Tolerant of formatting; throws on unreadable input.
[[nodiscard]] std::vector<std::string> compile_commands_files(
    const std::string& json_path);

/// Union of compile_commands_files over several databases (build/,
/// build-asan/, build-tsan/, ...), deduplicated across all of them.
[[nodiscard]] std::vector<std::string> compile_commands_sources(
    const std::vector<std::string>& json_paths);

// ---- reports ---------------------------------------------------------------

/// Serializes a run's findings as the machine-readable JSON report.
[[nodiscard]] std::string to_json(const std::vector<Diagnostic>& diags,
                                  std::size_t files_scanned);

/// Unsuppressed findings — the run fails when nonzero.
[[nodiscard]] std::size_t failing_count(const ProgramReport& report);

}  // namespace pmc_lint
