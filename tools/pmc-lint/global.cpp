// pmc-lint pass 2: the cross-TU rules over the whole-program index.
//
//   D8  encode/decode schema symmetry — per message kind (or per named
//       schema() binding), every encoder's put_* record sequence and every
//       decoder's read_* sequence must agree in type and order.
//   D9  cost-accounting completeness — begin_send results must be recorded
//       or forwarded, and post_send_at must be priced at a begin_send-
//       derived time, so no send is invisible to CommStats / the α–β model.
//   D1-D5 helper propagation — a helper whose own file hides a banned core
//       pattern from the rule's scope taints every call site where the
//       rule is live (one level deep).
//   D10 stale-suppression audit — allow()/schema() comments that match
//       nothing fail the build.
#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "internal.hpp"

namespace pmc_lint {
namespace internal {
namespace {

const Token& at(const std::vector<Token>& toks, std::size_t i) {
  static const Token kEnd{"", 0, false};
  return i < toks.size() ? toks[i] : kEnd;
}

std::size_t match_paren_fwd(const std::vector<Token>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].text == "(") ++depth;
    if (toks[i].text == ")" && --depth == 0) return i;
  }
  return toks.size();
}

std::size_t match_brace_fwd(const std::vector<Token>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].text == "{") ++depth;
    if (toks[i].text == "}" && --depth == 0) return i;
  }
  return toks.size();
}

/// Maps put_*/read_* member names to the wire type they move.
const char* accessor_type(const std::string& name) {
  if (name == "put_u8" || name == "read_u8") return "u8";
  if (name == "put_id" || name == "read_id") return "id";
  if (name == "put_id_rel" || name == "read_id_rel") return "id_rel";
  if (name == "put_color" || name == "read_color") return "color";
  return nullptr;
}

bool is_member_call(const std::vector<Token>& toks, std::size_t i) {
  if (!toks[i].is_ident || at(toks, i + 1).text != "(") return false;
  const std::string& prev = i > 0 ? toks[i - 1].text : std::string();
  return prev == "." || prev == "->";
}

/// A mention of message-kind constant `kinds[name]` at token i: enum kinds
/// must be qualified by their enum's name (so VState::kFailed is not
/// RecordType::kFailed); bare constants must appear unqualified.
bool kind_mention_at(const std::vector<Token>& toks, std::size_t i,
                     const ProgramIndex& idx, std::string* name_out) {
  if (!toks[i].is_ident) return false;
  const auto it = idx.kinds.find(toks[i].text);
  if (it == idx.kinds.end()) return false;
  const bool qualified = i >= 2 && toks[i - 1].text == "::";
  if (it->second.enum_name.empty()) {
    if (qualified) return false;
  } else {
    if (!qualified || toks[i - 2].text != it->second.enum_name) return false;
  }
  if (name_out != nullptr) *name_out = toks[i].text;
  return true;
}

/// Display key for a kind ("RecordType::kRequest" / "kInvalidateRecord").
std::string kind_key(const ProgramIndex& idx, const std::string& name) {
  const auto it = idx.kinds.find(name);
  if (it != idx.kinds.end() && !it->second.enum_name.empty()) {
    return it->second.enum_name + "::" + name;
  }
  return name;
}

std::string seq_str(const std::vector<std::string>& seq) {
  std::string out = "[";
  for (std::size_t i = 0; i < seq.size(); ++i) {
    out += (i == 0 ? "" : ", ") + seq[i];
  }
  return out + "]";
}

// ---- D8: schema extraction -------------------------------------------------

struct SeqSite {
  std::size_t file = 0;  ///< Index into ProgramIndex::files.
  int line = 0;          ///< First accessor of the sequence.
  std::string fn;        ///< Qualified function name, for messages.
  std::vector<std::string> seq;
  bool is_encoder = false;
};

/// Accessor sequences one function contributes, keyed by message kind or
/// schema name.
struct FnSchemas {
  std::map<std::string, std::vector<SeqSite>> enc;  ///< Records written.
  std::map<std::string, SeqSite> dec;               ///< Flat read order.
  bool any_events = false;
  bool u8_only = true;  ///< Tag-dispatch shim: only moves the kind byte.
  bool unbound = false;
  int first_event_line = 0;
};

/// One active kind filter while walking a function body.
struct KindFilter {
  enum class Mode { kOnly, kExcept, kSwitchCase };
  Mode mode = Mode::kOnly;
  std::set<std::string> kinds;
  std::size_t begin = 0, end = 0;  ///< Token span where active.
  bool events_since_label = false;
};

FnSchemas extract_schemas(const ProgramIndex& idx, std::size_t file_idx,
                          const FunctionInfo& fn) {
  const std::vector<Token>& toks = idx.files[file_idx].tokens;
  FnSchemas out;

  // Kind universe: every kind the function's body mentions.
  std::set<std::string> universe;
  for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
    std::string k;
    if (kind_mention_at(toks, i, idx, &k)) universe.insert(k);
  }
  const bool schema_bound = !fn.schema.empty();

  std::vector<KindFilter> scopes;
  std::map<std::string, std::vector<std::string>> enc_current;
  std::map<std::string, int> enc_line;

  auto flush_enc = [&](const std::string& key) {
    auto it = enc_current.find(key);
    if (it == enc_current.end() || it->second.empty()) return;
    out.enc[key].push_back(
        {file_idx, enc_line[key], fn.qualified, it->second, true});
    it->second.clear();
  };

  auto effective_keys = [&](std::size_t i) -> std::set<std::string> {
    if (schema_bound) return {fn.schema};
    if (universe.empty()) {
      out.unbound = true;
      return {std::string()};
    }
    std::set<std::string> ks = universe;
    for (const KindFilter& f : scopes) {
      if (i < f.begin || i >= f.end) continue;
      std::set<std::string> next;
      if (f.mode == KindFilter::Mode::kExcept) {
        for (const std::string& k : ks) {
          if (f.kinds.count(k) == 0) next.insert(k);
        }
      } else {  // kOnly and kSwitchCase both intersect
        for (const std::string& k : ks) {
          if (f.kinds.count(k) != 0) next.insert(k);
        }
      }
      ks = std::move(next);
    }
    return ks;
  };

  auto innermost_switch = [&](std::size_t i) -> KindFilter* {
    for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
      if (it->mode == KindFilter::Mode::kSwitchCase && it->begin <= i &&
          i < it->end) {
        return &*it;
      }
    }
    return nullptr;
  };

  for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
    while (!scopes.empty() && scopes.back().end <= i) scopes.pop_back();
    const Token& t = toks[i];
    if (!t.is_ident) continue;

    if (t.text == "switch" && at(toks, i + 1).text == "(") {
      const std::size_t close = match_paren_fwd(toks, i + 1);
      std::size_t open = close + 1;
      while (open < fn.body_end && toks[open].text != "{") ++open;
      if (open >= fn.body_end) continue;
      const std::size_t end = match_brace_fwd(toks, open);
      // Only a switch that dispatches on kinds filters events; any other
      // switch (bundling policy, state machine) is transparent.
      bool kind_switch = false;
      for (std::size_t j = open + 1; j < end && !kind_switch; ++j) {
        if (!toks[j].is_ident || toks[j].text != "case") continue;
        for (std::size_t k = j + 1; k < end && toks[k].text != ":"; ++k) {
          if (kind_mention_at(toks, k, idx, nullptr)) {
            kind_switch = true;
            break;
          }
        }
      }
      if (kind_switch) {
        KindFilter f;
        f.mode = KindFilter::Mode::kSwitchCase;
        f.begin = open + 1;
        f.end = end;
        scopes.push_back(f);
      }
      continue;
    }

    if (t.text == "case") {
      KindFilter* sw = innermost_switch(i);
      if (sw != nullptr) {
        if (sw->events_since_label) {
          sw->kinds.clear();
          sw->events_since_label = false;
        }
        for (std::size_t k = i + 1;
             k < fn.body_end && toks[k].text != ":"; ++k) {
          std::string name;
          if (kind_mention_at(toks, k, idx, &name)) sw->kinds.insert(name);
        }
      }
      continue;
    }
    if (t.text == "default" && at(toks, i + 1).text == ":") {
      KindFilter* sw = innermost_switch(i);
      if (sw != nullptr) {
        sw->kinds.clear();
        sw->events_since_label = false;
      }
      continue;
    }

    if (t.text == "if" && at(toks, i + 1).text == "(") {
      const std::size_t close = match_paren_fwd(toks, i + 1);
      std::set<std::string> cond_kinds;
      bool eq = false, ne = false;
      for (std::size_t k = i + 2; k < close; ++k) {
        std::string name;
        if (kind_mention_at(toks, k, idx, &name)) cond_kinds.insert(name);
        if (toks[k].text == "=" && at(toks, k + 1).text == "=") eq = true;
        if (toks[k].text == "!" && at(toks, k + 1).text == "=") ne = true;
      }
      if (cond_kinds.size() == 1 && (eq != ne)) {
        KindFilter f;
        f.mode =
            eq ? KindFilter::Mode::kOnly : KindFilter::Mode::kExcept;
        f.kinds = cond_kinds;
        if (at(toks, close + 1).text == "{") {
          f.begin = close + 2;
          f.end = match_brace_fwd(toks, close + 1);
        } else {  // single-statement then-branch
          f.begin = close + 1;
          std::size_t j = close + 1;
          int depth = 0;
          while (j < fn.body_end) {
            const std::string& u = toks[j].text;
            if (u == "(" || u == "{") ++depth;
            if (u == ")" || u == "}") --depth;
            if (u == ";" && depth == 0) break;
            ++j;
          }
          f.end = j + 1;
        }
        scopes.push_back(f);
      }
      continue;
    }

    if (!is_member_call(toks, i)) continue;
    const bool is_begin_record = t.text == "begin_record";
    const char* type = accessor_type(t.text);
    if (type == nullptr && !is_begin_record) continue;

    out.any_events = true;
    if (out.first_event_line == 0) out.first_event_line = t.line;
    if (!is_begin_record && std::string(type) != "u8") out.u8_only = false;
    if (KindFilter* sw = innermost_switch(i)) sw->events_since_label = true;

    for (const std::string& key : effective_keys(i)) {
      if (is_begin_record) {
        flush_enc(key);
        if (enc_line.count(key) == 0) enc_line[key] = t.line;
        continue;
      }
      if (t.text.rfind("put_", 0) == 0) {
        if (enc_current[key].empty()) enc_line[key] = t.line;
        enc_current[key].push_back(type);
      } else {
        SeqSite& d = out.dec[key];
        if (d.seq.empty()) {
          d.file = file_idx;
          d.line = t.line;
          d.fn = fn.qualified;
          d.is_encoder = false;
        }
        d.seq.push_back(type);
      }
    }
  }
  for (auto& [key, cur] : enc_current) {
    (void)cur;
    flush_enc(key);
  }
  return out;
}

// ---- D9: cost accounting ---------------------------------------------------

/// Walks a member-call chain backwards from the call's name token; returns
/// the index of the chain's first token (`engine_->fabric_.begin_send` ->
/// the `engine_` token).
std::size_t chain_start(const std::vector<Token>& toks, std::size_t i,
                        std::size_t floor) {
  std::size_t p = i;
  while (p >= floor + 2 &&
         (toks[p - 1].text == "." || toks[p - 1].text == "->")) {
    if (toks[p - 2].is_ident) {
      p -= 2;
    } else if (toks[p - 2].text == ")") {
      // Chain through a call: lane().begin_send(...).
      int depth = 0;
      std::size_t q = p - 2;
      while (q > floor) {
        if (toks[q].text == ")") ++depth;
        if (toks[q].text == "(" && --depth == 0) break;
        --q;
      }
      if (q > floor && toks[q - 1].is_ident) {
        p = q - 1;
      } else {
        return q;
      }
    } else {
      break;
    }
  }
  return p;
}

/// Top-level comma split of a call's argument list; returns token spans.
std::vector<std::pair<std::size_t, std::size_t>> split_args(
    const std::vector<Token>& toks, std::size_t open) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  const std::size_t close = match_paren_fwd(toks, open);
  if (close >= toks.size() || close == open + 1) return spans;
  int depth = 0;
  std::size_t b = open + 1;
  for (std::size_t i = open; i <= close; ++i) {
    const std::string& t = toks[i].text;
    if (t == "(" || t == "[" || t == "{") ++depth;
    if (t == ")" || t == "]" || t == "}") --depth;
    if ((t == "," && depth == 1) || (i == close && depth == 0)) {
      spans.emplace_back(b, i);
      b = i + 1;
    }
  }
  return spans;
}

struct CostCtx {
  std::set<std::string> send_time_vars;
  const FunctionInfo* fn = nullptr;
};

bool contains_time_ident(const std::string& s) {
  return s.find("time") != std::string::npos ||
         s.find("Time") != std::string::npos;
}

/// Is the token span a begin_send-derived time? Accepts recorded *time*
/// fields/parameters/locals, variables assigned from begin_send, and a
/// direct begin_send call.
bool time_arg_ok(const std::vector<Token>& toks, std::size_t b, std::size_t e,
                 const CostCtx& ctx, bool* has_now) {
  bool ok = false;
  for (std::size_t i = b; i < e; ++i) {
    const Token& t = toks[i];
    if (!t.is_ident) continue;
    if (t.text == "now" && at(toks, i + 1).text == "(") {
      if (has_now != nullptr) *has_now = true;
      continue;
    }
    if (t.text == "begin_send") ok = true;
    if (ctx.send_time_vars.count(t.text) != 0) ok = true;
    if (contains_time_ident(t.text)) ok = true;
  }
  return ok;
}

/// Helpers that price a send at one of their own *time* parameters; the
/// call-site argument in that position inherits the D9 check.
struct Forwarder {
  std::size_t param_index = 0;
  std::string param_name;
};

}  // namespace

// ---- the whole pass --------------------------------------------------------

namespace {

struct GlobalPass {
  const ProgramIndex& index;
  const ProgramOptions& opts;
  std::vector<Diagnostic>& diags;
  std::vector<RuleScope> scopes;
  /// (file path, line) of schema() comments that bound a live function.
  std::set<std::pair<std::string, int>> used_schemas;

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

  // ---- D8 ------------------------------------------------------------------

  void check_schemas() {
    std::map<std::string, std::vector<SeqSite>> table;
    std::map<std::string, bool> is_kind_key;
    for (std::size_t f = 0; f < index.files.size(); ++f) {
      if (!scopes[f].d8) continue;
      for (const FunctionInfo& fn : index.files[f].functions) {
        FnSchemas fs = extract_schemas(index, f, fn);
        if (!fn.schema.empty() && fs.any_events) {
          used_schemas.insert({index.files[f].path, fn.schema_line});
        }
        if (fs.unbound && !fs.u8_only) {
          emit("D8", f, fs.first_event_line,
               "typed accessor sequence in '" + fn.qualified +
                   "' is not tied to any message kind — bind it with "
                   "// pmc-lint: schema(Name) so encode/decode symmetry "
                   "can be checked cross-TU");
          continue;
        }
        for (auto& [key, sites] : fs.enc) {
          if (key.empty()) continue;
          is_kind_key[key] = index.kinds.count(key) != 0;
          for (SeqSite& s : sites) table[key].push_back(std::move(s));
        }
        for (auto& [key, site] : fs.dec) {
          if (key.empty() || site.seq.empty()) continue;
          is_kind_key[key] = index.kinds.count(key) != 0;
          table[key].push_back(std::move(site));
        }
      }
    }
    for (auto& [key, sites] : table) {
      // For tagged kinds the encoder writes the kind byte itself while the
      // decoder's dispatcher usually consumed it — compare modulo one
      // leading u8 on either side.
      if (is_kind_key[key]) {
        for (SeqSite& s : sites) {
          if (!s.seq.empty() && s.seq.front() == "u8") {
            s.seq.erase(s.seq.begin());
          }
        }
      }
      std::stable_sort(sites.begin(), sites.end(),
                       [this](const SeqSite& a, const SeqSite& b) {
                         if (a.is_encoder != b.is_encoder) return a.is_encoder;
                         const std::string& fa = index.files[a.file].path;
                         const std::string& fb = index.files[b.file].path;
                         if (fa != fb) return fa < fb;
                         return a.line < b.line;
                       });
      const SeqSite& ref = sites.front();
      const std::string display =
          index.kinds.count(key) != 0 ? kind_key(index, key) : key;
      for (std::size_t s = 1; s < sites.size(); ++s) {
        const SeqSite& cur = sites[s];
        if (cur.seq == ref.seq) continue;
        emit("D8", cur.file, cur.line,
             std::string(cur.is_encoder ? "encoder" : "decoder") + " '" +
                 cur.fn + "' for '" + display + "' " +
                 (cur.is_encoder ? "writes " : "reads ") + seq_str(cur.seq) +
                 " but " + (ref.is_encoder ? "encoder '" : "decoder '") +
                 ref.fn + "' (" +
                 internal::normalize_path(index.files[ref.file].path) + ":" +
                 std::to_string(ref.line) + ") " +
                 (ref.is_encoder ? "writes " : "reads ") + seq_str(ref.seq) +
                 " — encode/decode schema asymmetry");
      }
    }
  }

  // ---- D9 ------------------------------------------------------------------

  std::map<std::string, Forwarder> forwarders;

  CostCtx cost_ctx(std::size_t f, const FunctionInfo& fn) {
    const std::vector<Token>& toks = index.files[f].tokens;
    CostCtx ctx;
    ctx.fn = &fn;
    for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
      if (toks[i].text != "begin_send" || !is_member_call(toks, i)) continue;
      const std::size_t start = chain_start(toks, i, fn.body_begin);
      const std::string& before =
          start > fn.body_begin ? toks[start - 1].text : std::string("{");
      if (before != "=") continue;
      // LHS of the assignment: a plain variable records the send time.
      bool field = false;
      for (std::size_t j = start - 2; j > fn.body_begin; --j) {
        const std::string& u = toks[j].text;
        if (u == ";" || u == "{" || u == "}") break;
        if (u == "." || u == "->") field = true;
      }
      if (!field && start >= 2 && toks[start - 2].is_ident) {
        ctx.send_time_vars.insert(toks[start - 2].text);
      }
    }
    return ctx;
  }

  void find_forwarders() {
    for (std::size_t f = 0; f < index.files.size(); ++f) {
      if (!scopes[f].d9) continue;
      const std::vector<Token>& toks = index.files[f].tokens;
      for (const FunctionInfo& fn : index.files[f].functions) {
        for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
          if (toks[i].text != "post_send_at" || !toks[i].is_ident ||
              at(toks, i + 1).text != "(") {
            continue;
          }
          const auto args = split_args(toks, i + 1);
          if (args.size() < 5) continue;
          for (std::size_t p = 0; p < fn.params.size(); ++p) {
            if (!contains_time_ident(fn.params[p])) continue;
            for (std::size_t k = args[4].first; k < args[4].second; ++k) {
              const std::string& prev =
                  k > 0 ? toks[k - 1].text : std::string();
              if (toks[k].is_ident && toks[k].text == fn.params[p] &&
                  prev != "." && prev != "->") {
                forwarders.emplace(fn.name, Forwarder{p, fn.params[p]});
              }
            }
          }
        }
      }
    }
  }

  void check_cost_accounting() {
    find_forwarders();
    for (std::size_t f = 0; f < index.files.size(); ++f) {
      if (!scopes[f].d9) continue;
      const std::vector<Token>& toks = index.files[f].tokens;
      for (const FunctionInfo& fn : index.files[f].functions) {
        const CostCtx ctx = cost_ctx(f, fn);
        for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
          if (!toks[i].is_ident) continue;

          // begin_send result hygiene.
          if (toks[i].text == "begin_send" && is_member_call(toks, i)) {
            const std::size_t start = chain_start(toks, i, fn.body_begin);
            const std::string& before =
                start > fn.body_begin ? toks[start - 1].text
                                      : std::string("{");
            if (before == "return" || before == "?" || before == ":" ||
                before == "(" || before == ",") {
              continue;  // forwarded or consumed directly
            }
            if (before == "=") {
              // Field stores are the deferred-record idiom; a plain local
              // must reach a later use or the send time is lost.
              bool field = false;
              for (std::size_t j = start - 2; j > fn.body_begin; --j) {
                const std::string& u = toks[j].text;
                if (u == ";" || u == "{" || u == "}") break;
                if (u == "." || u == "->") field = true;
              }
              if (field) continue;
              if (start < 2 || !toks[start - 2].is_ident) continue;
              const std::string var = toks[start - 2].text;
              const std::size_t after = match_paren_fwd(toks, i + 1);
              bool used = false;
              for (std::size_t j = after + 1; j < fn.body_end; ++j) {
                if (toks[j].is_ident && toks[j].text == var) {
                  used = true;
                  break;
                }
              }
              if (!used) {
                emit("D9", f, toks[i].line,
                     "send time from begin_send() recorded in '" + var +
                         "' but never used — the overhead charge is paid "
                         "but the send it priced can never be posted at "
                         "that time (cost model drift)");
              }
              continue;
            }
            emit("D9", f, toks[i].line,
                 "begin_send() result discarded in '" + fn.qualified +
                     "' — the sender-side overhead is charged but the "
                     "returned send time is lost, so the matching "
                     "post_send_at cannot be priced correctly");
            continue;
          }

          // post_send_at must be priced at a begin_send-derived time.
          if (toks[i].text == "post_send_at" &&
              at(toks, i + 1).text == "(") {
            const auto args = split_args(toks, i + 1);
            if (args.size() < 5) continue;
            bool has_now = false;
            if (!time_arg_ok(toks, args[4].first, args[4].second, ctx,
                             &has_now)) {
              emit("D9", f, toks[i].line,
                   std::string("post_send_at in '") + fn.qualified +
                       "' priced at " +
                       (has_now ? "a live now() read"
                                : "a value not derived from begin_send()") +
                       " — the send bypasses the recorded send-time "
                       "discipline and is invisible to the alpha-beta "
                       "cost model's sender-overhead accounting");
            }
            continue;
          }

          // Calls to time-forwarding helpers inherit the pricing check.
          const auto fw = forwarders.find(toks[i].text);
          if (fw != forwarders.end() && at(toks, i + 1).text == "(" &&
              !is_member_call(toks, i) && toks[i].text != fn.name) {
            const auto args = split_args(toks, i + 1);
            if (args.size() <= fw->second.param_index) continue;
            const auto& span = args[fw->second.param_index];
            bool has_now = false;
            if (!time_arg_ok(toks, span.first, span.second, ctx, &has_now)) {
              emit("D9", f, toks[i].line,
                   "'" + toks[i].text + "' prices a send at its '" +
                       fw->second.param_name + "' parameter; this call " +
                       (has_now ? "passes a live now() read"
                                : "passes a value not derived from "
                                  "begin_send()") +
                       " — an uncharged send one helper deep");
            }
          }
        }
      }
    }
  }

  // ---- D1-D5 helper propagation -------------------------------------------

  void propagate_file_rules(const std::set<std::string>& direct_keys) {
    // Taints: unsuppressed core-pattern hits that the helper's own file
    // scope (path predicate) hides. D4 is scope-global and decode-local, so
    // it never taints.
    struct Taint {
      std::set<std::string> rules;
      std::map<std::string, std::pair<int, std::string>> exemplar;
    };
    std::map<const FunctionInfo*, Taint> taints;
    RuleScope everything;
    everything.d1 = everything.d2 = everything.d3 = everything.d5 = true;
    everything.d4 = false;
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
      std::vector<int> schema_lines;
      schema_lines.reserve(fi.view.schemas.size());
      for (const auto& [line, name] : fi.view.schemas) {
        schema_lines.push_back(line);
      }
      std::sort(schema_lines.begin(), schema_lines.end());
      for (const int line : schema_lines) {
        if (used_schemas.count({fi.path, line}) != 0) continue;
        emit("D10", f, line,
             "stale schema annotation: schema(" + fi.view.schemas.at(line) +
                 ") binds no function with typed accessor calls");
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
  pass.check_schemas();
  pass.check_cost_accounting();
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
