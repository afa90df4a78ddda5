// pmc-lint pass 1: the whole-program index. Walks every source's token
// stream and records function definitions (name, lines, body token range).
// The cross-TU rules in global.cpp consume this; nothing here reports.
#include <algorithm>
#include <unordered_set>

#include "internal.hpp"

namespace pmc_lint::internal {
namespace {

/// Identifiers that look like `name(...)` heads but never start a function
/// definition.
const std::unordered_set<std::string>& non_function_words() {
  static const std::unordered_set<std::string> kWords{
      "if",       "for",     "while",   "switch",        "catch",
      "return",   "sizeof",  "alignof", "decltype",      "noexcept",
      "co_return", "throw",  "new",     "delete",        "static_assert",
      "alignas",  "assert",  "defined", "co_await",      "co_yield",
  };
  return kWords;
}

struct Cursor {
  const std::vector<Token>& toks;
  const Token& at(std::size_t i) const {
    static const Token kEnd{"", 0, false};
    return i < toks.size() ? toks[i] : kEnd;
  }
};

/// Index just past the ')' matching toks[open] == "(".
std::size_t match_paren(const Cursor& c, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < c.toks.size(); ++i) {
    const std::string& t = c.toks[i].text;
    if (t == "(") ++depth;
    if (t == ")" && --depth == 0) return i + 1;
  }
  return c.toks.size();
}

/// Index of the '}' matching toks[open] == "{" (or end).
std::size_t match_brace(const Cursor& c, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < c.toks.size(); ++i) {
    const std::string& t = c.toks[i].text;
    if (t == "{") ++depth;
    if (t == "}" && --depth == 0) return i;
  }
  return c.toks.size();
}

/// After the parameter list of a would-be definition: skips qualifiers,
/// trailing return types, and constructor init lists. Returns the index of
/// the body's '{', or 0 when this is a declaration / not a definition.
std::size_t find_body_open(const Cursor& c, std::size_t i) {
  while (i < c.toks.size()) {
    const std::string& t = c.at(i).text;
    if (t == "{") return i;
    if (t == ";" || t == "=") return 0;  // declaration / = default / = delete
    if (t == "const" || t == "noexcept" || t == "override" || t == "final" ||
        t == "mutable" || t == "&" || t == "&&") {
      ++i;
      continue;
    }
    if (t == "(") {  // noexcept(...) / attribute arguments
      i = match_paren(c, i);
      continue;
    }
    if (t == "->") {  // trailing return type
      ++i;
      while (i < c.toks.size() && c.at(i).text != "{" && c.at(i).text != ";") {
        ++i;
      }
      continue;
    }
    if (t == ":") {  // constructor init list
      ++i;
      while (i < c.toks.size()) {
        const std::string& u = c.at(i).text;
        if (u == "(") {
          i = match_paren(c, i);
          continue;
        }
        if (u == "{") {
          // A member's braced init is preceded by its name; the body's
          // brace follows a ')' or '}' of the previous initializer.
          if (i > 0 && c.toks[i - 1].is_ident) {
            i = match_brace(c, i) + 1;
            continue;
          }
          return i;
        }
        if (u == ";") return 0;
        ++i;
      }
      return 0;
    }
    return 0;  // anything else: not a function definition
  }
  return 0;
}

void collect_functions(const Cursor& c, FileIndex& fi) {
  const std::unordered_set<std::string>& skip = non_function_words();
  for (std::size_t i = 0; i < c.toks.size(); ++i) {
    const Token& t = c.toks[i];
    if (!t.is_ident || skip.count(t.text) != 0) continue;
    if (c.at(i + 1).text != "(") continue;
    const std::string& prev = i > 0 ? c.toks[i - 1].text : std::string();
    if (prev == "." || prev == "->") continue;  // member access expression
    const std::size_t after_params = match_paren(c, i + 1);
    const std::size_t body_open = find_body_open(c, after_params);
    if (body_open == 0) continue;
    const std::size_t body_close = match_brace(c, body_open);
    FunctionInfo fn;
    fn.name = t.text;
    // Qualified name: walk back over `A::B::name`.
    fn.qualified = t.text;
    for (std::size_t q = i; q >= 2 && c.toks[q - 1].text == "::" &&
                            c.toks[q - 2].is_ident;
         q -= 2) {
      fn.qualified = c.toks[q - 2].text + "::" + fn.qualified;
    }
    fn.line = t.line;
    fn.end_line = body_close < c.toks.size() ? c.toks[body_close].line
                                             : c.toks.back().line;
    fn.header_begin = i;
    fn.body_begin = body_open + 1;
    fn.body_end = body_close;
    fi.functions.push_back(std::move(fn));
    i = body_close;  // lambdas and local classes belong to this function
  }
}

}  // namespace

ProgramIndex build_index(const std::vector<SourceFile>& sources) {
  ProgramIndex index;
  index.files.reserve(sources.size());
  for (const SourceFile& s : sources) {
    FileIndex fi;
    fi.path = s.path;
    fi.view = strip(s.contents);
    fi.tokens = tokenize(fi.view.code);
    const Cursor c{fi.tokens};
    collect_functions(c, fi);
    index.files.push_back(std::move(fi));
  }
  for (std::size_t f = 0; f < index.files.size(); ++f) {
    // Functions sorted by position so "containing function" lookups and
    // reference-encoder choices are deterministic.
    std::sort(index.files[f].functions.begin(), index.files[f].functions.end(),
              [](const FunctionInfo& a, const FunctionInfo& b) {
                return a.header_begin < b.header_begin;
              });
    for (std::size_t g = 0; g < index.files[f].functions.size(); ++g) {
      index.by_name[index.files[f].functions[g].name].push_back({f, g});
    }
  }
  return index;
}

}  // namespace pmc_lint::internal
