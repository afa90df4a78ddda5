// pmc-lint pass 2: the cross-TU rules over the whole-program index.
//
//   D1-D5 helper propagation — a helper whose own file hides a banned core
//       pattern from the rule's scope taints every call site where the
//       rule is live (one level deep).
//   D10 stale-suppression audit — allow() comments that match nothing fail
//       the build.
#include <algorithm>
#include <map>
#include <set>

#include "internal.hpp"

namespace pmc_lint {
namespace internal {
namespace {

const Token& at(const std::vector<Token>& toks, std::size_t i) {
  static const Token kEnd{"", 0, false};
  return i < toks.size() ? toks[i] : kEnd;
}

struct GlobalPass {
  const ProgramIndex& index;
  const ProgramOptions& opts;
  std::vector<Diagnostic>& diags;
  std::vector<RuleScope> scopes;

  GlobalPass(const ProgramIndex& idx, const ProgramOptions& o,
             std::vector<Diagnostic>& d)
      : index(idx), opts(o), diags(d) {
    scopes.reserve(index.files.size());
    for (std::size_t f = 0; f < index.files.size(); ++f) {
      scopes.push_back(opts.all_rules ? all_rules()
                                      : scope_for_path(index.files[f].path));
    }
  }

  void emit(const std::string& rule, std::size_t file_idx, int line,
            std::string message) {
    Diagnostic d;
    d.rule = rule;
    d.file = index.files[file_idx].path;
    d.line = line;
    d.message = std::move(message);
    apply_allows(d, index.files[file_idx].view.allows);
    diags.push_back(std::move(d));
  }

  // ---- D1-D5 helper propagation -------------------------------------------

  void propagate_file_rules(const std::set<std::string>& direct_keys) {
    // Taints: unsuppressed core-pattern hits that the helper's own file
    // scope (path predicate) hides.
    struct Taint {
      std::set<std::string> rules;
      std::map<std::string, std::pair<int, std::string>> exemplar;
    };
    std::map<const FunctionInfo*, Taint> taints;
    const RuleScope everything = all_rules();
    for (std::size_t f = 0; f < index.files.size(); ++f) {
      const FileIndex& fi = index.files[f];
      const std::vector<Diagnostic> potential =
          file_rules(fi.path, fi.view, fi.tokens, everything);
      for (const Diagnostic& d : potential) {
        if (d.suppressed) continue;
        const std::string key =
            d.rule + "|" + d.file + "|" + std::to_string(d.line);
        if (direct_keys.count(key) != 0) continue;  // already reported
        for (const FunctionInfo& fn : fi.functions) {
          if (fn.line <= d.line && d.line <= fn.end_line) {
            Taint& t = taints[&fn];
            t.rules.insert(d.rule);
            t.exemplar.emplace(d.rule, std::make_pair(d.line, d.message));
            break;
          }
        }
      }
    }
    if (taints.empty()) return;

    auto rule_enabled = [&](std::size_t f, const std::string& r) {
      const RuleScope& s = scopes[f];
      if (r == "D1") return s.d1;
      if (r == "D2") return s.d2;
      if (r == "D3") return s.d3;
      if (r == "D5") return s.d5;
      return false;
    };

    for (std::size_t f = 0; f < index.files.size(); ++f) {
      const std::vector<Token>& toks = index.files[f].tokens;
      for (const FunctionInfo& fn : index.files[f].functions) {
        for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
          const Token& t = toks[i];
          if (!t.is_ident || at(toks, i + 1).text != "(") continue;
          const std::string& prev =
              i > 0 ? toks[i - 1].text : std::string();
          if (prev == "." || prev == "->" || prev == "::") continue;
          if (t.text == fn.name) continue;
          const auto defs = index.by_name.find(t.text);
          if (defs == index.by_name.end() || defs->second.size() != 1) {
            continue;  // unknown or ambiguous target: no propagation
          }
          const auto [cf, cg] = defs->second.front();
          const FunctionInfo& callee = index.files[cf].functions[cg];
          const auto taint = taints.find(&callee);
          if (taint == taints.end()) continue;
          for (const std::string& rule : taint->second.rules) {
            if (!rule_enabled(f, rule)) continue;
            const auto& [line, msg] = taint->second.exemplar.at(rule);
            emit(rule, f, t.line,
                 "call to helper '" + callee.qualified + "' (" +
                     internal::normalize_path(index.files[cf].path) + ":" +
                     std::to_string(line) + ") reaches a " + rule +
                     " violation its own file's scope hides: " + msg);
          }
        }
      }
    }
  }

  // ---- D10 -----------------------------------------------------------------

  void audit_suppressions() {
    std::set<std::pair<std::string, int>> consumed;
    for (const Diagnostic& d : diags) {
      if (d.allow_line != 0) consumed.insert({d.file, d.allow_line});
    }
    for (std::size_t f = 0; f < index.files.size(); ++f) {
      const FileIndex& fi = index.files[f];
      // Deterministic order over the unordered allow map.
      std::vector<int> lines;
      lines.reserve(fi.view.allows.size());
      for (const auto& [line, allow] : fi.view.allows) lines.push_back(line);
      std::sort(lines.begin(), lines.end());
      for (const int line : lines) {
        if (consumed.count({fi.path, line}) != 0) continue;
        const Allow& allow = fi.view.allows.at(line);
        std::string rules;
        for (const std::string& r : allow.rules) {
          rules += (rules.empty() ? "" : ",") + r;
        }
        emit("D10", f, line,
             "stale suppression: allow(" + rules +
                 ") no longer matches any diagnostic — delete it so the "
                 "suppression ledger stays honest");
      }
    }
  }
};

}  // namespace

void global_rules(const ProgramIndex& index, const ProgramOptions& opts,
                  std::vector<Diagnostic>& diags) {
  GlobalPass pass(index, opts, diags);
  std::set<std::string> direct_keys;
  for (const Diagnostic& d : diags) {
    direct_keys.insert(d.rule + "|" + d.file + "|" + std::to_string(d.line));
  }
  pass.propagate_file_rules(direct_keys);
  if (opts.audit_suppressions) pass.audit_suppressions();
}

}  // namespace internal

ProgramReport analyze_program(const std::vector<SourceFile>& sources,
                              const ProgramOptions& opts) {
  const internal::ProgramIndex index = internal::build_index(sources);
  ProgramReport report;
  report.files_scanned = sources.size();
  for (std::size_t f = 0; f < index.files.size(); ++f) {
    const internal::FileIndex& fi = index.files[f];
    const RuleScope scope =
        opts.all_rules ? all_rules() : scope_for_path(fi.path);
    std::vector<Diagnostic> diags =
        internal::file_rules(fi.path, fi.view, fi.tokens, scope);
    for (Diagnostic& d : diags) {
      report.diagnostics.push_back(std::move(d));
    }
  }
  internal::global_rules(index, opts, report.diagnostics);
  std::sort(report.diagnostics.begin(), report.diagnostics.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return report;
}

}  // namespace pmc_lint
