#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace pmc_lint {
namespace {

// ---- source view ----------------------------------------------------------

struct Token {
  std::string text;
  int line = 0;
  bool is_ident = false;
};

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Blanks comments and string/char literals, preserving newlines so line
/// numbers survive.
std::string strip(const std::string& text) {
  std::string code;
  code.reserve(text.size());
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          code += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          code += "  ";
          ++i;
        } else if (c == '"') {
          state = State::kString;
          code += ' ';
        } else if (c == '\'') {
          state = State::kChar;
          code += ' ';
        } else {
          code += c;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
          code += '\n';
        } else {
          code += ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          code += "  ";
          ++i;
        } else {
          code += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::kString:
        if (c == '\\' && next != '\0') {
          code += "  ";
          ++i;
        } else if (c == '"') {
          state = State::kCode;
          code += ' ';
        } else {
          code += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::kChar:
        if (c == '\\' && next != '\0') {
          code += "  ";
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
          code += ' ';
        } else {
          code += c == '\n' ? '\n' : ' ';
        }
        break;
    }
  }
  return code;
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

// ---- per-file rule engine --------------------------------------------------

class Analyzer {
 public:
  Analyzer(std::string path, const std::vector<Token>& tokens,
           const RuleScope& scope)
      : path_(std::move(path)), scope_(scope), tokens_(tokens) {}

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
  const std::vector<Token>& tokens_;
  std::vector<Diagnostic> diags_;
};

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
  const std::vector<Token> tokens = tokenize(strip(contents));
  return Analyzer(path, tokens, scope).run();
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
    for (Diagnostic& d : analyze_source(f.path, f.contents, scope)) {
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

}  // namespace pmc_lint
