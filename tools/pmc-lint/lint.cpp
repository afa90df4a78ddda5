#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

namespace pmc_lint {
namespace {

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
  std::map<int, Allow> allows;
};

struct Token {
  std::string text;
  int line = 0;
  bool is_ident = false;
};

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

/// Parses "pmc-lint: allow(D1,D2): reason" out of one comment's text.
void parse_marker(const std::string& comment, int line, SourceView& view) {
  const std::size_t tag = comment.find("pmc-lint:");
  if (tag == std::string::npos) return;
  std::size_t p = comment.find("allow(", tag);
  if (p == std::string::npos) return;
  p += 6;
  const std::size_t close = comment.find(')', p);
  if (close == std::string::npos) return;
  Allow allow;
  std::stringstream rules(comment.substr(p, close - p));
  std::string rule;
  while (std::getline(rules, rule, ',')) {
    rule = trim(rule);
    if (!rule.empty()) allow.rules.insert(rule);
  }
  std::string rest = trim(comment.substr(close + 1));
  if (!rest.empty() && rest.front() == ':') rest = trim(rest.substr(1));
  allow.justification = rest;
  if (!allow.rules.empty()) view.allows[line] = allow;
}

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Blanks comments and string/char literals (preserving newlines so line
/// numbers survive) and records pmc-lint allow() comments.
SourceView strip(const std::string& text) {
  SourceView view;
  view.code.reserve(text.size());
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  int line = 1;
  int comment_line = 1;
  std::string comment;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          comment_line = line;
          comment.clear();
          view.code += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          comment_line = line;
          comment.clear();
          view.code += "  ";
          ++i;
        } else if (c == '"') {
          state = State::kString;
          view.code += ' ';
        } else if (c == '\'') {
          state = State::kChar;
          view.code += ' ';
        } else {
          view.code += c;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          parse_marker(comment, comment_line, view);
          state = State::kCode;
          view.code += '\n';
        } else {
          comment += c;
          view.code += ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          parse_marker(comment, comment_line, view);
          state = State::kCode;
          view.code += "  ";
          ++i;
        } else {
          comment += c;
          view.code += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::kString:
        if (c == '\\' && next != '\0') {
          view.code += "  ";
          ++i;
        } else if (c == '"') {
          state = State::kCode;
          view.code += ' ';
        } else {
          view.code += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::kChar:
        if (c == '\\' && next != '\0') {
          view.code += "  ";
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
          view.code += ' ';
        } else {
          view.code += c == '\n' ? '\n' : ' ';
        }
        break;
    }
    if (c == '\n') ++line;
  }
  if (state == State::kLineComment || state == State::kBlockComment) {
    parse_marker(comment, comment_line, view);
  }
  return view;
}

std::vector<Token> tokenize(const std::string& code) {
  std::vector<Token> out;
  int line = 1;
  for (std::size_t i = 0; i < code.size();) {
    const char c = code[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (ident_start(c)) {
      std::size_t j = i + 1;
      while (j < code.size() && ident_char(code[j])) ++j;
      out.push_back({code.substr(i, j - i), line, true});
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t j = i + 1;
      while (j < code.size() &&
             (ident_char(code[j]) || code[j] == '.' || code[j] == '\'')) {
        ++j;
      }
      out.push_back({code.substr(i, j - i), line, false});
      i = j;
      continue;
    }
    // The two multi-char operators the rules read (qualification and member
    // access); everything else is emitted one char at a time.
    const char next = i + 1 < code.size() ? code[i + 1] : '\0';
    if ((c == ':' && next == ':') || (c == '-' && next == '>')) {
      out.push_back({std::string{c, next}, line, false});
      i += 2;
      continue;
    }
    out.push_back({std::string(1, c), line, false});
    ++i;
  }
  return out;
}

/// Applies the file's allow() comments to one diagnostic.
void apply_allows(Diagnostic& d, const std::map<int, Allow>& allows) {
  // A well-formed allow() on the diagnostic's line or the line above it
  // suppresses — but only with a justification. A matching comment without
  // one is still recorded (allow_line) so the D10 audit does not call a
  // malformed-but-matching comment stale on top of the unsuppressed finding.
  for (const int l : {d.line, d.line - 1}) {
    const auto it = allows.find(l);
    if (it == allows.end()) continue;
    if (it->second.rules.count(d.rule) == 0) continue;
    d.allow_line = l;
    if (it->second.justification.empty()) {
      d.message += " [allow() found but has no justification]";
      continue;
    }
    d.suppressed = true;
    d.justification = it->second.justification;
    break;
  }
}

// ---- per-file rule engine --------------------------------------------------

class Analyzer {
 public:
  Analyzer(std::string path, const SourceView& view,
           const std::vector<Token>& tokens, const RuleScope& scope)
      : path_(std::move(path)),
        scope_(scope),
        allows_(view.allows),
        tokens_(tokens) {}

  std::vector<Diagnostic> run() {
    for (std::size_t i = 0; i < tokens_.size(); ++i) {
      if (tokens_[i].is_ident) check_token(i);
    }
    return diags_;
  }

 private:
  const Token& tok(std::size_t i) const {
    static const Token kEnd{"", 0, false};
    return i < tokens_.size() ? tokens_[i] : kEnd;
  }

  void report(const std::string& rule, int line, std::string message) {
    Diagnostic d;
    d.rule = rule;
    d.file = path_;
    d.line = line;
    d.message = std::move(message);
    apply_allows(d, allows_);
    diags_.push_back(std::move(d));
  }

  /// D1 (hash containers), D2 (hidden entropy), D3 (raw serialization) on
  /// the identifier tokens_[i].
  void check_token(std::size_t i) {
    const Token& t = tokens_[i];
    const std::string& prev = i > 0 ? tokens_[i - 1].text : std::string();
    const bool member = prev == "." || prev == "->";
    // "chrono" counts as a std qualifier so std::chrono::system_clock is
    // caught; foo::time() in some other namespace is not ours to police.
    const bool qualified_non_std =
        prev == "::" && i >= 2 && tokens_[i - 2].text != "std" &&
        tokens_[i - 2].text != "chrono";
    if (scope_.d1 &&
        (t.text == "unordered_map" || t.text == "unordered_set" ||
         t.text == "unordered_multimap" || t.text == "unordered_multiset")) {
      report("D1", t.line,
             "'" + t.text +
                 "' — hash order is not a protocol order; use pmc::HashSet "
                 "(src/support/hash_set.hpp) for membership, a sorted vector "
                 "or std::map for anything walked");
    }
    if (scope_.d2) {
      if ((t.text == "rand" || t.text == "srand" || t.text == "time") &&
          tok(i + 1).text == "(") {
        // Skip member calls (engine.time()), non-std qualified names, and
        // declarations (`double time() const` — preceded by a type name).
        const bool declaration =
            i > 0 && tokens_[i - 1].is_ident && !call_context_word(prev);
        if (!member && !qualified_non_std && !declaration) {
          report("D2", t.line,
                 "call to '" + t.text +
                     "' — hidden entropy; all randomness must flow "
                     "through pmc::Rng (src/support/rng.hpp) and wall "
                     "time through WallTimer");
        }
      } else if (t.text == "random_device" || t.text == "system_clock") {
        if (!member && !qualified_non_std) {
          report("D2", t.line,
                 "use of 'std::" + t.text +
                     "' — nondeterministic source; use pmc::Rng / "
                     "WallTimer (steady_clock) instead");
        }
      }
    }
    if (scope_.d3) {
      if (t.text == "memcpy" && tok(i + 1).text == "(" && !member &&
          !qualified_non_std) {
        report("D3", t.line,
               "raw memcpy — wire traffic must go through the "
               "serialize.hpp frame codec, not byte copies of structs");
      } else if (t.text == "reinterpret_cast") {
        report("D3", t.line,
               "reinterpret_cast — wire traffic must go through the "
               "serialize.hpp frame codec, not type punning");
      }
    }
  }

  /// Words that make a following identifier a call, not a declaration.
  static bool call_context_word(const std::string& w) {
    return w == "return" || w == "co_return" || w == "case" || w == "throw";
  }

  std::string path_;
  RuleScope scope_;
  const std::map<int, Allow>& allows_;
  const std::vector<Token>& tokens_;
  std::vector<Diagnostic> diags_;
};

/// The per-file rules over one file, then, when `audit` is set, the D10
/// audit of its allow() comments: one that no diagnostic of the file
/// matched is stale.
std::vector<Diagnostic> lint_file(const std::string& path,
                                  const std::string& contents,
                                  const RuleScope& scope, bool audit) {
  const SourceView view = strip(contents);
  const std::vector<Token> tokens = tokenize(view.code);
  std::vector<Diagnostic> diags = Analyzer(path, view, tokens, scope).run();
  if (!audit) return diags;
  std::set<int> consumed;
  for (const Diagnostic& d : diags) consumed.insert(d.allow_line);
  for (const auto& [line, allow] : view.allows) {
    if (consumed.count(line) != 0) continue;
    std::string rules;
    for (const std::string& r : allow.rules) {
      rules += (rules.empty() ? "" : ",") + r;
    }
    Diagnostic d;
    d.rule = "D10";
    d.file = path;
    d.line = line;
    d.message = "stale suppression: allow(" + rules +
                ") no longer matches any diagnostic — delete it so the "
                "suppression ledger stays honest";
    apply_allows(d, view.allows);
    diags.push_back(std::move(d));
  }
  return diags;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) throw std::runtime_error("pmc-lint: cannot read " + path);
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

}  // namespace

std::string root_relative(const std::string& path, const std::string& root) {
  namespace fs = std::filesystem;
  const fs::path abs = fs::absolute(path).lexically_normal();
  const fs::path rel =
      abs.lexically_relative(fs::absolute(root).lexically_normal());
  if (rel.empty() || *rel.begin() == "..") return abs.generic_string();
  return rel.generic_string();
}

RuleScope scope_for_path(const std::string& path) {
  RuleScope scope;
  if (!starts_with(path, "src/")) return scope;
  scope.d1 = path != "src/support/hash_set.hpp";
  scope.d2 = !(starts_with(path, "src/support/rng.") ||
               path == "src/support/timer.hpp");
  scope.d3 = !starts_with(path, "src/runtime/serialize.");
  return scope;
}

RuleScope all_rules() {
  return RuleScope{true, true, true};
}

std::vector<Diagnostic> analyze_source(const std::string& path,
                                       const std::string& contents,
                                       const RuleScope& scope) {
  return lint_file(path, contents, scope, /*audit=*/false);
}

std::vector<Diagnostic> analyze_file(const std::string& path,
                                     const RuleScope& scope) {
  return analyze_source(path, slurp(path), scope);
}

ProgramReport analyze_program(const std::vector<SourceFile>& sources,
                              const ProgramOptions& opts) {
  ProgramReport report;
  report.files_scanned = sources.size();
  for (const SourceFile& f : sources) {
    const RuleScope scope =
        opts.all_rules ? all_rules() : scope_for_path(f.path);
    for (Diagnostic& d :
         lint_file(f.path, f.contents, scope, opts.audit_suppressions)) {
      report.diagnostics.push_back(std::move(d));
    }
  }
  std::sort(report.diagnostics.begin(), report.diagnostics.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return report;
}

ProgramReport analyze_program_paths(const std::vector<std::string>& paths,
                                    const std::string& root,
                                    const ProgramOptions& opts) {
  std::vector<SourceFile> sources;
  sources.reserve(paths.size());
  for (const std::string& p : paths) {
    sources.push_back({root_relative(p, root), slurp(p)});
  }
  return analyze_program(sources, opts);
}

std::vector<std::string> library_sources(const std::string& root) {
  namespace fs = std::filesystem;
  const fs::path src = fs::path(root) / "src";
  if (!fs::is_directory(src)) {
    throw std::runtime_error("pmc-lint: no directory " + src.string());
  }
  std::vector<std::string> files;
  for (const auto& entry : fs::recursive_directory_iterator(src)) {
    const fs::path ext = entry.path().extension();
    if (entry.is_regular_file() && (ext == ".cpp" || ext == ".hpp")) {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

namespace {
std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}
}  // namespace

std::string to_json(const std::vector<Diagnostic>& diags,
                    std::size_t files_scanned) {
  std::size_t suppressed = 0;
  for (const auto& d : diags) suppressed += d.suppressed ? 1 : 0;
  std::ostringstream os;
  os << "{\n  \"tool\": \"pmc-lint\",\n  \"version\": 2,\n"
     << "  \"files_scanned\": " << files_scanned << ",\n"
     << "  \"total\": " << diags.size() << ",\n"
     << "  \"suppressed\": " << suppressed << ",\n"
     << "  \"unsuppressed\": " << diags.size() - suppressed << ",\n"
     << "  \"diagnostics\": [";
  for (std::size_t i = 0; i < diags.size(); ++i) {
    const Diagnostic& d = diags[i];
    os << (i == 0 ? "" : ",") << "\n    {\"rule\": \"" << json_escape(d.rule)
       << "\", \"file\": \"" << json_escape(d.file)
       << "\", \"line\": " << d.line << ", \"suppressed\": "
       << (d.suppressed ? "true" : "false") << ", \"justification\": \""
       << json_escape(d.justification) << "\", \"message\": \""
       << json_escape(d.message) << "\"}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

std::size_t failing_count(const ProgramReport& report) {
  std::size_t n = 0;
  for (const Diagnostic& d : report.diagnostics) {
    if (!d.suppressed) ++n;
  }
  return n;
}

}  // namespace pmc_lint
