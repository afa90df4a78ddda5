// pmc-lint internals shared between the per-file rule pass (lint.cpp), the
// whole-program indexer (index.cpp) and the cross-TU rules (global.cpp).
// Nothing here is API: tests and the CLI go through lint.hpp.
#pragma once

#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "lint.hpp"

namespace pmc_lint::internal {

// ---- source view ----------------------------------------------------------

/// One suppression comment: which rules it allows and the justification.
struct Allow {
  std::set<std::string> rules;
  std::string justification;
};

/// The comment/string-stripped view of a translation unit plus the
/// allow() suppressions found while stripping.
struct SourceView {
  std::string code;  ///< Same length/lines as the input; literals blanked.
  /// Suppressions keyed by the line their comment starts on (1-based).
  std::unordered_map<int, Allow> allows;
};

[[nodiscard]] SourceView strip(const std::string& text);

// ---- tokens ---------------------------------------------------------------

struct Token {
  std::string text;
  int line = 0;
  bool is_ident = false;
};

[[nodiscard]] std::vector<Token> tokenize(const std::string& code);

/// Repo-relative normalization: ".../repo/src/x.cpp" -> "src/x.cpp".
[[nodiscard]] std::string normalize_path(const std::string& path);

// ---- per-file rule pass ----------------------------------------------------

/// Runs the single-file rules D1-D5 over a pre-stripped, pre-tokenized view.
[[nodiscard]] std::vector<Diagnostic> file_rules(const std::string& path,
                                                 const SourceView& view,
                                                 const std::vector<Token>& toks,
                                                 const RuleScope& scope);

/// Applies the file's allow() comments to one diagnostic (the same matching
/// the per-file rules use: the diagnostic's line or the line above, rule
/// must be listed, justification mandatory). Sets allow_line whenever a
/// matching comment exists, suppressed only when it is justified.
void apply_allows(Diagnostic& d,
                  const std::unordered_map<int, Allow>& allows);

// ---- whole-program index (pass 1) -----------------------------------------

/// One indexed function definition. Lambdas and local classes inside a body
/// belong to the enclosing function; the token range covers the body only.
struct FunctionInfo {
  std::string name;       ///< Unqualified name ("flush").
  std::string qualified;  ///< As written ("MatchProcess::flush").
  int line = 0;           ///< Line of the name token.
  int end_line = 0;       ///< Line of the body's closing brace.
  std::size_t header_begin = 0;  ///< Token index of the name.
  std::size_t body_begin = 0;    ///< Token index just past the opening '{'.
  std::size_t body_end = 0;      ///< Token index of the closing '}'.
};

struct FileIndex {
  std::string path;
  SourceView view;
  std::vector<Token> tokens;
  std::vector<FunctionInfo> functions;
};

struct ProgramIndex {
  std::vector<FileIndex> files;
  /// Function name -> (file index, function index) of every definition.
  std::map<std::string, std::vector<std::pair<std::size_t, std::size_t>>>
      by_name;
};

[[nodiscard]] ProgramIndex build_index(const std::vector<SourceFile>& sources);

/// Pass 2: helper-indirection propagation for D1-D5 plus the D10
/// stale-suppression audit over `diags` (every diagnostic already produced,
/// including the per-file pass — allow consumption is read off allow_line).
/// Appends its findings to `diags`.
void global_rules(const ProgramIndex& index, const ProgramOptions& opts,
                  std::vector<Diagnostic>& diags);

}  // namespace pmc_lint::internal
