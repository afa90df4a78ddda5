#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "internal.hpp"

namespace pmc_lint {
namespace internal {
namespace {

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

}  // namespace

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
    // Multi-char operators the rules care about; everything else is emitted
    // one char at a time (deliberately including > > so template-angle
    // balancing never sees a fused >>).
    const char next = i + 1 < code.size() ? code[i + 1] : '\0';
    if ((c == ':' && next == ':') || (c == '-' && next == '>') ||
        (c == '+' && next == '=') || (c == '-' && next == '=') ||
        (c == '*' && next == '=') || (c == '/' && next == '=')) {
      out.push_back({std::string{c, next}, line, false});
      i += 2;
      continue;
    }
    out.push_back({std::string(1, c), line, false});
    ++i;
  }
  return out;
}

std::string normalize_path(const std::string& path) {
  std::string p = path;
  const std::size_t src = p.rfind("/src/");
  if (src != std::string::npos) {
    p = p.substr(src + 1);
  } else if (p.rfind("./", 0) == 0) {
    p = p.substr(2);
  }
  return p;
}

void apply_allows(Diagnostic& d,
                  const std::unordered_map<int, Allow>& allows) {
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

namespace {

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
    collect_declared_vars();
    check_banned_calls();
    check_range_loops();
    std::sort(diags_.begin(), diags_.end(),
              [](const Diagnostic& a, const Diagnostic& b) {
                if (a.line != b.line) return a.line < b.line;
                return a.rule < b.rule;
              });
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

  /// Balances template angle brackets starting at tokens_[i] == "<";
  /// returns the index just past the matching ">".
  std::size_t skip_angles(std::size_t i) {
    int depth = 0;
    while (i < tokens_.size()) {
      const std::string& t = tokens_[i].text;
      if (t == "<") ++depth;
      if (t == ">" && --depth == 0) return i + 1;
      // A template argument list never contains ; or { — bail on malformed
      // input instead of eating the rest of the file.
      if (t == ";" || t == "{") return i;
      ++i;
    }
    return i;
  }

  /// Variable names declared with an unordered container type, and names
  /// declared float/double (for the D5 accumulation check).
  void collect_declared_vars() {
    for (std::size_t i = 0; i < tokens_.size(); ++i) {
      const Token& t = tokens_[i];
      if (!t.is_ident) continue;
      if (t.text == "unordered_map" || t.text == "unordered_set" ||
          t.text == "unordered_multimap" || t.text == "unordered_multiset") {
        std::size_t j = i + 1;
        if (tok(j).text != "<") continue;  // e.g. #include <unordered_map>
        j = skip_angles(j);
        // Close any enclosing template (vector<unordered_set<T>> lost) and
        // skip ref/pointer decorations before the declared name.
        while (tok(j).text == ">" || tok(j).text == "&" ||
               tok(j).text == "*" || tok(j).text == "const") {
          ++j;
        }
        if (tok(j).is_ident) unordered_vars_.insert(tok(j).text);
      } else if (t.text == "double" || t.text == "float") {
        if (tok(i + 1).is_ident) float_vars_.insert(tok(i + 1).text);
      }
    }
  }

  /// D2 (hidden entropy), D3 (raw serialization).
  void check_banned_calls() {
    for (std::size_t i = 0; i < tokens_.size(); ++i) {
      const Token& t = tokens_[i];
      if (!t.is_ident) continue;
      const std::string& prev = i > 0 ? tokens_[i - 1].text : std::string();
      const bool member = prev == "." || prev == "->";
      // "chrono" counts as a std qualifier so std::chrono::system_clock is
      // caught; foo::time() in some other namespace is not ours to police.
      const bool qualified_non_std =
          prev == "::" && i >= 2 && tokens_[i - 2].text != "std" &&
          tokens_[i - 2].text != "chrono";
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
  }

  /// Words that make a following identifier a call, not a declaration.
  static bool call_context_word(const std::string& w) {
    return w == "return" || w == "co_return" || w == "case" || w == "throw";
  }

  /// D1 (unordered range-iteration in message-producing code) and D5
  /// (floating-point accumulation under an unordered iteration).
  void check_range_loops() {
    for (std::size_t i = 0; i + 1 < tokens_.size(); ++i) {
      if (!(tokens_[i].is_ident && tokens_[i].text == "for")) continue;
      if (tok(i + 1).text != "(") continue;
      // Find the matching ')' and a top-level ':' (range-for separator; '::'
      // is a single token, so a lone ':' is unambiguous).
      std::size_t colon = 0, close = 0;
      int depth = 0;
      for (std::size_t j = i + 1; j < tokens_.size(); ++j) {
        const std::string& t = tokens_[j].text;
        if (t == "(") ++depth;
        if (t == ")" && --depth == 0) {
          close = j;
          break;
        }
        if (t == ":" && depth == 1 && colon == 0) colon = j;
      }
      if (close == 0 || colon == 0) continue;
      bool unordered = false;
      bool blessed = false;
      for (std::size_t j = colon + 1; j < close; ++j) {
        if (!tokens_[j].is_ident) continue;
        // The sorted-snapshot helpers take the unordered container as an
        // argument; iterating their result is the sanctioned pattern.
        if (tokens_[j].text == "sorted_keys" ||
            tokens_[j].text == "sorted_items") {
          blessed = true;
          break;
        }
        if (unordered_vars_.count(tokens_[j].text) != 0 ||
            tokens_[j].text == "unordered_map" ||
            tokens_[j].text == "unordered_set") {
          unordered = true;
        }
      }
      if (blessed || !unordered) continue;
      if (scope_.d1) {
        report("D1", tokens_[i].line,
               "range-iteration over an unordered container in "
               "message-producing code — hash order is not a protocol "
               "order; snapshot with sorted_keys()/sorted_items() "
               "(support/sorted.hpp)");
      }
      if (scope_.d5) check_float_accumulation(close);
    }
  }

  /// Scans the loop body that starts after tokens_[close] == ")" for a
  /// `x +=` / `x -=` on a float/double variable.
  void check_float_accumulation(std::size_t close) {
    std::size_t begin = close + 1;
    std::size_t end;
    if (tok(begin).text == "{") {
      int depth = 0;
      end = begin;
      while (end < tokens_.size()) {
        if (tokens_[end].text == "{") ++depth;
        if (tokens_[end].text == "}" && --depth == 0) break;
        ++end;
      }
    } else {  // single-statement body
      end = begin;
      while (end < tokens_.size() && tokens_[end].text != ";") ++end;
    }
    for (std::size_t j = begin; j < end; ++j) {
      if ((tokens_[j].text == "+=" || tokens_[j].text == "-=") && j > 0 &&
          tokens_[j - 1].is_ident &&
          float_vars_.count(tokens_[j - 1].text) != 0) {
        report("D5", tokens_[j].line,
               "floating-point accumulation into '" + tokens_[j - 1].text +
                   "' inside an unordered-container iteration — FP "
                   "addition is order-sensitive; reduce over a sorted "
                   "snapshot instead");
      }
    }
  }

  std::string path_;
  RuleScope scope_;
  const std::unordered_map<int, Allow>& allows_;
  const std::vector<Token>& tokens_;
  std::unordered_set<std::string> unordered_vars_;
  std::unordered_set<std::string> float_vars_;
  std::vector<Diagnostic> diags_;
};

}  // namespace

std::vector<Diagnostic> file_rules(const std::string& path,
                                   const SourceView& view,
                                   const std::vector<Token>& toks,
                                   const RuleScope& scope) {
  return Analyzer(path, view, toks, scope).run();
}

}  // namespace internal

namespace {

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

}  // namespace

RuleScope scope_for_path(const std::string& path) {
  const std::string p = internal::normalize_path(path);
  RuleScope scope;
  if (!starts_with(p, "src/")) return scope;
  scope.d5 = true;
  scope.d2 = !(starts_with(p, "src/support/rng.") ||
               p == "src/support/timer.hpp");
  scope.d3 = !starts_with(p, "src/runtime/serialize.");
  scope.d1 = starts_with(p, "src/matching/") ||
             starts_with(p, "src/coloring/") ||
             starts_with(p, "src/runtime/");
  return scope;
}

RuleScope all_rules() {
  return RuleScope{true, true, true, true};
}

std::vector<Diagnostic> analyze_source(const std::string& path,
                                       const std::string& contents,
                                       const RuleScope& scope) {
  const internal::SourceView view = internal::strip(contents);
  const std::vector<internal::Token> toks = internal::tokenize(view.code);
  return internal::file_rules(path, view, toks, scope);
}

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) throw std::runtime_error("pmc-lint: cannot read " + path);
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

}  // namespace

std::vector<Diagnostic> analyze_file(const std::string& path,
                                     const RuleScope& scope) {
  return analyze_source(path, slurp(path), scope);
}

std::vector<Diagnostic> analyze_file(const std::string& path) {
  return analyze_file(path, scope_for_path(path));
}

ProgramReport analyze_program_paths(const std::vector<std::string>& paths,
                                    const ProgramOptions& opts) {
  std::vector<SourceFile> sources;
  sources.reserve(paths.size());
  for (const std::string& p : paths) sources.push_back({p, slurp(p)});
  return analyze_program(sources, opts);
}

namespace {

/// One compile_commands entry's "directory" and "file" values, resolved to
/// a normalized absolute-ish path. `base` is the JSON file's parent, the
/// anchor for a relative "directory".
std::string resolve_entry(const std::string& directory, const std::string& file,
                          const std::string& base) {
  namespace fs = std::filesystem;
  fs::path f(file);
  if (!f.is_absolute()) {
    fs::path d(directory);
    if (!d.is_absolute() && !base.empty()) d = fs::path(base) / d;
    f = d / f;
  }
  return f.lexically_normal().string();
}

/// Extracts a "key": "value" string from one JSON object span. Tolerant:
/// returns "" when absent.
std::string object_string_value(const std::string& text, std::size_t begin,
                                std::size_t end, const std::string& key) {
  const std::string quoted = "\"" + key + "\"";
  std::size_t pos = text.find(quoted, begin);
  if (pos == std::string::npos || pos >= end) return "";
  std::size_t q = text.find('"', text.find(':', pos + quoted.size()));
  if (q == std::string::npos || q >= end) return "";
  std::string value;
  for (++q; q < end && text[q] != '"'; ++q) {
    if (text[q] == '\\' && q + 1 < end) ++q;
    value += text[q];
  }
  return value;
}

void collect_compile_commands(const std::string& json_path,
                              std::vector<std::string>& files,
                              std::unordered_set<std::string>& seen) {
  const std::string text = slurp(json_path);
  const std::string base =
      std::filesystem::path(json_path).parent_path().string();
  // Walk the top-level array's object spans, skipping braces inside string
  // values (command lines routinely contain them).
  std::size_t i = 0;
  while (i < text.size()) {
    if (text[i] == '"') {  // skip a string
      for (++i; i < text.size() && text[i] != '"'; ++i) {
        if (text[i] == '\\' && i + 1 < text.size()) ++i;
      }
      ++i;
      continue;
    }
    if (text[i] != '{') {
      ++i;
      continue;
    }
    // Entry span: from this '{' to its matching '}' (entries do not nest).
    std::size_t j = i + 1;
    int depth = 1;
    while (j < text.size() && depth > 0) {
      if (text[j] == '"') {
        for (++j; j < text.size() && text[j] != '"'; ++j) {
          if (text[j] == '\\' && j + 1 < text.size()) ++j;
        }
      } else if (text[j] == '{') {
        ++depth;
      } else if (text[j] == '}') {
        --depth;
      }
      ++j;
    }
    const std::string file = object_string_value(text, i, j, "file");
    if (!file.empty()) {
      const std::string dir = object_string_value(text, i, j, "directory");
      const std::string resolved = resolve_entry(dir, file, base);
      if (seen.insert(resolved).second) files.push_back(resolved);
    }
    i = j;
  }
}

}  // namespace

std::vector<std::string> compile_commands_files(const std::string& json_path) {
  std::vector<std::string> files;
  std::unordered_set<std::string> seen;
  collect_compile_commands(json_path, files, seen);
  return files;
}

std::vector<std::string> compile_commands_sources(
    const std::vector<std::string>& json_paths) {
  std::vector<std::string> files;
  std::unordered_set<std::string> seen;
  for (const std::string& p : json_paths) {
    collect_compile_commands(p, files, seen);
  }
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
