#include "tools/ckr_lint.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "common/parallel.h"
#include "common/string_util.h"

namespace ckr {
namespace lint {
namespace {

// ---------------------------------------------------------------------
// Token stream. Comments, string literals, and character literals are
// stripped during scanning (their content can never violate a rule), but
// comment text is inspected for ckr-lint suppression directives before
// being dropped.
// ---------------------------------------------------------------------

enum class TokKind { kIdent, kPunct };

struct Tok {
  TokKind kind;
  std::string text;
  int line;
};

/// Per-file suppression state gathered from ckr-lint comments, plus the
/// lock-order declarations found in this file's comments.
struct Suppressions {
  std::set<std::string> file_rules;                ///< allow-file(...)
  std::map<int, std::set<std::string>> line_rules; ///< line -> rules
  /// (first, second) pairs from lock-order declaration comments.
  std::vector<std::pair<std::string, std::string>> lock_edges;

  bool Allows(const std::string& rule, int line) const {
    if (file_rules.count(rule) != 0) return true;
    auto it = line_rules.find(line);
    return it != line_rules.end() && it->second.count(rule) != 0;
  }
};

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Parses an identifier chain "a < b < c" from a lock-order declaration
/// comment. Identifiers collected before the first malformed position
/// still count (a trailing rationale is tolerated); a chain needs at
/// least two names to declare anything.
void ParseLockOrderChain(std::string_view chain, Suppressions* sup) {
  std::vector<std::string> names;
  size_t p = 0;
  const size_t n = chain.size();
  auto skip_ws = [&] {
    while (p < n && (chain[p] == ' ' || chain[p] == '\t')) ++p;
  };
  while (true) {
    skip_ws();
    size_t s = p;
    while (p < n && IsIdentChar(chain[p])) ++p;
    if (p == s) break;
    names.emplace_back(chain.substr(s, p - s));
    skip_ws();
    if (p >= n || chain[p] != '<') break;
    ++p;
  }
  for (size_t i = 0; i + 1 < names.size(); ++i) {
    sup->lock_edges.emplace_back(names[i], names[i + 1]);
  }
}

/// Parses one comment body for a ckr-lint directive or a lock-order
/// declaration. `standalone` is true when the comment is the first thing
/// on its line, in which case the suppression also covers the following
/// line (annotation-above style).
void ParseDirective(std::string_view comment, int line, bool standalone,
                    Suppressions* sup) {
  size_t lo = comment.find("ckr-lock-order:");
  if (lo != std::string_view::npos) {
    ParseLockOrderChain(comment.substr(lo + 15), sup);
    return;
  }
  size_t at = comment.find("ckr-lint:");
  if (at == std::string_view::npos) return;
  std::string_view rest = comment.substr(at + 9);

  auto add_rules = [&](std::string_view list, bool whole_file) {
    for (const std::string& rule : SplitString(list, ", \t")) {
      if (whole_file) {
        sup->file_rules.insert(rule);
      } else {
        sup->line_rules[line].insert(rule);
        if (standalone) sup->line_rules[line + 1].insert(rule);
      }
    }
  };
  auto allow_one = [&](const char* rule) {
    sup->line_rules[line].insert(rule);
    if (standalone) sup->line_rules[line + 1].insert(rule);
  };

  size_t open;
  if ((open = rest.find("allow-file(")) != std::string_view::npos) {
    size_t close = rest.find(')', open);
    if (close != std::string_view::npos) {
      add_rules(rest.substr(open + 11, close - open - 11), true);
    }
  } else if ((open = rest.find("allow(")) != std::string_view::npos) {
    size_t close = rest.find(')', open);
    if (close != std::string_view::npos) {
      add_rules(rest.substr(open + 6, close - open - 6), false);
    }
  } else if ((open = rest.find("unguarded")) != std::string_view::npos) {
    // The waiver demands a justification: an absent or empty reason
    // leaves R6 in force, so "unguarded" can never be cargo-culted.
    size_t paren = rest.find('(', open);
    size_t close = rest.rfind(')');
    if (paren != std::string_view::npos && close != std::string_view::npos &&
        close > paren) {
      std::string_view reason = rest.substr(paren + 1, close - paren - 1);
      size_t a = reason.find_first_not_of(" \t");
      if (a != std::string_view::npos) allow_one("R6");
    }
  } else if (rest.find("seqcst") != std::string_view::npos) {
    allow_one("R7");
  } else if (rest.find("ordered") != std::string_view::npos) {
    allow_one("R4");
  }
}

/// Tokenizes C++ source. Multi-char punctuators that matter to the rules
/// ("::", "->", "[[", "]]") come out as single tokens; everything else is
/// one punct token per character.
std::vector<Tok> Tokenize(std::string_view src, Suppressions* sup) {
  std::vector<Tok> toks;
  int line = 1;
  size_t i = 0;
  const size_t n = src.size();
  // Tracks whether any token has been emitted on the current line, so a
  // directive comment knows if it stands alone.
  int last_tok_line = 0;

  while (i < n) {
    char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    // Line comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      size_t end = src.find('\n', i);
      if (end == std::string_view::npos) end = n;
      ParseDirective(src.substr(i, end - i), line,
                     /*standalone=*/last_tok_line != line, sup);
      i = end;
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      size_t end = src.find("*/", i + 2);
      if (end == std::string_view::npos) end = n;
      ParseDirective(src.substr(i, end - i), line,
                     /*standalone=*/last_tok_line != line, sup);
      for (size_t j = i; j < std::min(end + 2, n); ++j) {
        if (src[j] == '\n') ++line;
      }
      i = std::min(end + 2, n);
      continue;
    }
    // Raw string literal (only the R"( form used in this tree).
    if (c == 'R' && i + 1 < n && src[i + 1] == '"') {
      size_t open = src.find('(', i + 2);
      if (open != std::string_view::npos) {
        std::string close = ")";
        close.append(src.substr(i + 2, open - (i + 2)));
        close.push_back('"');
        size_t end = src.find(close, open + 1);
        if (end == std::string_view::npos) end = n;
        for (size_t j = i; j < std::min(end + close.size(), n); ++j) {
          if (src[j] == '\n') ++line;
        }
        i = std::min(end + close.size(), n);
        continue;
      }
    }
    // String / character literal.
    if (c == '"' || c == '\'') {
      char quote = c;
      ++i;
      while (i < n && src[i] != quote) {
        if (src[i] == '\\' && i + 1 < n) ++i;
        if (src[i] == '\n') ++line;
        ++i;
      }
      ++i;  // Closing quote.
      continue;
    }
    // Identifier / keyword / number.
    if (IsIdentChar(c)) {
      size_t start = i;
      while (i < n && IsIdentChar(src[i])) ++i;
      toks.push_back({TokKind::kIdent,
                      std::string(src.substr(start, i - start)), line});
      last_tok_line = line;
      continue;
    }
    // Multi-char punctuators the rules care about.
    auto two = src.substr(i, 2);
    if (two == "::" || two == "->" || two == "[[" || two == "]]") {
      toks.push_back({TokKind::kPunct, std::string(two), line});
      last_tok_line = line;
      i += 2;
      continue;
    }
    toks.push_back({TokKind::kPunct, std::string(1, c), line});
    last_tok_line = line;
    ++i;
  }
  return toks;
}

// ---------------------------------------------------------------------
// Rule checks over the token stream.
// ---------------------------------------------------------------------

struct Ctx {
  std::string_view path;
  FileKind kind;
  const std::vector<Tok>& toks;
  const Suppressions& sup;
  bool includes_binary_io;
  /// The TU's own header (foo.h beside foo.cc), tokenized; empty if none.
  const std::vector<Tok>& header_toks;
  std::vector<Violation>* out;

  void Report(const std::string& rule, int line,
              const std::string& message) const {
    if (sup.Allows(rule, line)) return;
    out->push_back({std::string(path), line, rule, message});
  }

  const std::string& Text(size_t i) const { return toks[i].text; }
  bool Is(size_t i, std::string_view t) const {
    return i < toks.size() && toks[i].text == t;
  }
  bool IsIdent(size_t i) const {
    return i < toks.size() && toks[i].kind == TokKind::kIdent;
  }
};

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

/// R1: nondeterminism sources. rand/srand/random_device are banned
/// everywhere; <chrono> clock now() is banned outside bench/.
void CheckR1(const Ctx& ctx) {
  const auto& toks = ctx.toks;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    const std::string& t = toks[i].text;
    const bool member_call =
        i > 0 && (ctx.Is(i - 1, ".") || ctx.Is(i - 1, "->"));
    if ((t == "rand" || t == "srand") && ctx.Is(i + 1, "(") &&
        !member_call) {
      ctx.Report("R1", toks[i].line,
                 t + "() draws from hidden global state; all randomness "
                     "must flow from a seeded ckr::Rng");
      continue;
    }
    if (t == "random_device") {
      ctx.Report("R1", toks[i].line,
                 "std::random_device is nondeterministic by design; seed a "
                 "ckr::Rng explicitly");
      continue;
    }
    if (t == "now" && ctx.Is(i + 1, "(") && i >= 2 && ctx.Is(i - 1, "::") &&
        ctx.IsIdent(i - 2) && EndsWith(ctx.Text(i - 2), "clock")) {
      if (ctx.kind == FileKind::kBench) continue;  // Measuring is its job.
      ctx.Report("R1", toks[i].line,
                 ctx.Text(i - 2) + "::now() reads the wall clock; outside "
                 "bench/ it needs an explicit ckr-lint allow(R1)");
    }
  }
}

/// R2: exceptions in src/. Status/StatusOr is the only error channel
/// across library boundaries.
void CheckR2(const Ctx& ctx) {
  if (ctx.kind != FileKind::kSrc) return;
  for (const Tok& tok : ctx.toks) {
    if (tok.kind != TokKind::kIdent) continue;
    if (tok.text == "throw" || tok.text == "try" || tok.text == "catch") {
      ctx.Report("R2", tok.line,
                 "'" + tok.text + "' in src/: error paths must return "
                 "Status/StatusOr, never unwind");
    }
  }
}

/// R3: [[nodiscard]] on Status/StatusOr-returning declarations in src/
/// headers. The class-level attribute already makes the compiler reject
/// discards; the per-declaration attribute keeps the contract visible at
/// every API site, so its absence is a lint error.
void CheckR3(const Ctx& ctx) {
  if (ctx.kind != FileKind::kSrc || !EndsWith(ctx.path, ".h")) return;
  const auto& toks = ctx.toks;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    const std::string& t = toks[i].text;
    if (t != "Status" && t != "StatusOr") continue;

    // Start of the return type, absorbing a ckr:: qualifier.
    size_t anchor = i;
    if (i >= 2 && ctx.Is(i - 1, "::") && ctx.Is(i - 2, "ckr")) anchor = i - 2;

    // Skip StatusOr template arguments to the closing '>'.
    size_t j = i + 1;
    if (t == "StatusOr") {
      if (!ctx.Is(j, "<")) continue;
      int depth = 0;
      for (; j < toks.size(); ++j) {
        if (ctx.Is(j, "<")) ++depth;
        if (ctx.Is(j, ">") && --depth == 0) break;
      }
      ++j;
    }
    // A declaration looks like: [qualifiers] Status Name ( ...
    if (!ctx.IsIdent(j) || !ctx.Is(j + 1, "(")) continue;

    // Walk back through declaration qualifiers looking for [[nodiscard]]
    // and for evidence this is a declaration rather than an expression.
    bool has_nodiscard = false;
    size_t k = anchor;
    bool declaration = true;
    while (k > 0) {
      const std::string& prev = toks[k - 1].text;
      if (prev == "virtual" || prev == "static" || prev == "inline" ||
          prev == "explicit" || prev == "constexpr" || prev == "friend") {
        --k;
        continue;
      }
      if (prev == "]]") {
        // Scan the attribute block for "nodiscard".
        size_t a = k - 1;
        while (a > 0 && !ctx.Is(a - 1, "[[")) {
          if (toks[a - 1].text == "nodiscard") has_nodiscard = true;
          --a;
        }
        k = a > 0 ? a - 1 : 0;
        continue;
      }
      declaration = prev == ";" || prev == "{" || prev == "}" ||
                    prev == ":" || prev == "public" || prev == "private" ||
                    prev == "protected";
      break;
    }
    if (declaration && !has_nodiscard) {
      ctx.Report("R3", toks[i].line,
                 "'" + ctx.Text(j) + "' returns " + t +
                 " but is not [[nodiscard]]; dropped Status values lose "
                 "errors silently");
    }
  }
}

/// Adds to `names` every name `toks` declares with an
/// unordered_{map,set} type.
void CollectUnorderedNames(const std::vector<Tok>& toks,
                           std::set<std::string>* names) {
  auto is = [&](size_t i, std::string_view t) {
    return i < toks.size() && toks[i].text == t;
  };
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    const std::string& t = toks[i].text;
    if (t != "unordered_map" && t != "unordered_set") continue;
    size_t j = i + 1;
    if (is(j, "<")) {
      int depth = 0;
      for (; j < toks.size(); ++j) {
        if (is(j, "<")) ++depth;
        if (is(j, ">") && --depth == 0) break;
      }
      ++j;
    }
    if (j < toks.size() && toks[j].kind == TokKind::kIdent) {
      names->insert(toks[j].text);
    }
  }
}

/// R4: range-for over an unordered container in a file that includes a
/// binary_io.h. Hash iteration order is implementation-defined, so such a
/// loop adjacent to serialization machinery is a reproducibility hazard
/// unless explicitly annotated `ckr-lint: ordered`. A .cc file's own
/// header counts as part of it: its includes arm the rule, and the
/// members it declares are checked in the .cc's loops.
void CheckR4(const Ctx& ctx) {
  if (!ctx.includes_binary_io) return;
  const auto& toks = ctx.toks;

  std::set<std::string> unordered_names;
  CollectUnorderedNames(toks, &unordered_names);
  CollectUnorderedNames(ctx.header_toks, &unordered_names);

  for (size_t i = 0; i < toks.size(); ++i) {
    if (!(toks[i].kind == TokKind::kIdent && toks[i].text == "for") ||
        !ctx.Is(i + 1, "(")) {
      continue;
    }
    // Find the range-for ':' at parenthesis depth 1; a ';' at depth 1
    // first means a classic for loop.
    int depth = 0;
    size_t colon = 0;
    size_t close = 0;
    for (size_t j = i + 1; j < toks.size(); ++j) {
      const std::string& t = toks[j].text;
      if (t == "(") ++depth;
      if (t == ")" && --depth == 0) {
        close = j;
        break;
      }
      if (depth == 1 && t == ";") break;
      if (depth == 1 && t == ":" && colon == 0) colon = j;
    }
    if (colon == 0 || close == 0) continue;
    for (size_t j = colon + 1; j < close; ++j) {
      if (toks[j].kind != TokKind::kIdent) continue;
      const std::string& name = toks[j].text;
      if (unordered_names.count(name) != 0 ||
          name.find("unordered_") != std::string::npos) {
        ctx.Report("R4", toks[i].line,
                   "range-for over unordered container '" + name +
                   "' in a serialization TU: hash order is not "
                   "deterministic (annotate '// ckr-lint: ordered' if the "
                   "loop provably does not feed serialized bytes)");
        break;
      }
    }
  }
}

/// R5: banned C functions (unbounded writes and silent-failure parsing).
void CheckR5(const Ctx& ctx) {
  static const std::set<std::string> kBanned = {"strcpy", "sprintf", "atoi",
                                                "gets"};
  const auto& toks = ctx.toks;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent || kBanned.count(toks[i].text) == 0) {
      continue;
    }
    const bool member_call =
        i > 0 && (ctx.Is(i - 1, ".") || ctx.Is(i - 1, "->"));
    if (ctx.Is(i + 1, "(") && !member_call) {
      ctx.Report("R5", toks[i].line,
                 "'" + toks[i].text + "' is banned (unbounded write or "
                 "silent parse failure); use the std::string/StrTo* "
                 "equivalents");
    }
  }
}

/// R6: synchronization-primitive data members in src/ must declare their
/// guard discipline — a thread-safety annotation or an explicit,
/// justified waiver. The walk tracks record scopes (class/struct/union
/// bodies) with a brace-kind stack; only declarations at record-body
/// level, outside parameter lists, are members.
void CheckR6(const Ctx& ctx) {
  if (ctx.kind != FileKind::kSrc) return;
  static const std::set<std::string> kSyncTypes = {
      "mutex",
      "recursive_mutex",
      "shared_mutex",
      "timed_mutex",
      "recursive_timed_mutex",
      "shared_timed_mutex",
      "condition_variable",
      "condition_variable_any",
      "atomic",
      "atomic_flag"};
  static const std::set<std::string> kAnnotations = {
      "CKR_GUARDED_BY", "CKR_PT_GUARDED_BY", "CKR_ACQUIRED_BEFORE",
      "CKR_ACQUIRED_AFTER"};
  const auto& toks = ctx.toks;

  std::vector<char> scopes;  // One entry per open brace; 1 = record body.
  bool pending_record = false;
  int paren_depth = 0;
  size_t stmt_start = 0;  // First token of the current statement.

  for (size_t i = 0; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (t == "(") {
      ++paren_depth;
      pending_record = false;  // Function or template-parameter usage.
      continue;
    }
    if (t == ")") {
      if (paren_depth > 0) --paren_depth;
      continue;
    }
    if (t == ">") {
      pending_record = false;  // e.g. the keyword inside template<...>.
      continue;
    }
    if (t == "{") {
      scopes.push_back(pending_record ? 1 : 0);
      pending_record = false;
      stmt_start = i + 1;
      continue;
    }
    if (t == "}") {
      if (!scopes.empty()) scopes.pop_back();
      stmt_start = i + 1;
      continue;
    }
    if (t == ";") {
      pending_record = false;  // Forward declaration.
      stmt_start = i + 1;
      continue;
    }
    if (toks[i].kind != TokKind::kIdent) continue;
    if (t == "class" || t == "struct" || t == "union") {
      // "enum class" opens an enumeration, not a record.
      if (!(i > 0 && ctx.Is(i - 1, "enum"))) pending_record = true;
      continue;
    }
    if (scopes.empty() || scopes.back() != 1 || paren_depth != 0) continue;
    if (kSyncTypes.count(t) == 0) continue;
    if (!(i >= 2 && ctx.Is(i - 1, "::") && ctx.Is(i - 2, "std"))) continue;
    if (ctx.IsIdent(stmt_start) &&
        (ctx.Text(stmt_start) == "using" ||
         ctx.Text(stmt_start) == "typedef" ||
         ctx.Text(stmt_start) == "friend")) {
      continue;
    }

    // Find the declarator name: skip template arguments, then the
    // pointer/reference/array punctuation and any closing angles of an
    // enclosing template type (the atomic may sit inside a smart
    // pointer or container).
    size_t j = i + 1;
    if (ctx.Is(j, "<")) {
      int depth = 0;
      for (; j < toks.size(); ++j) {
        if (ctx.Is(j, "<")) ++depth;
        if (ctx.Is(j, ">") && --depth == 0) break;
      }
      ++j;
    }
    while (j < toks.size() &&
           (ctx.Is(j, ">") || ctx.Is(j, "*") || ctx.Is(j, "&") ||
            ctx.Is(j, "[") || ctx.Is(j, "]"))) {
      ++j;
    }
    if (!ctx.IsIdent(j)) continue;
    const std::string name = ctx.Text(j);
    if (ctx.Is(j + 1, "(")) continue;  // A function returning the type.

    // Scan the rest of the declaration (balancing initializer braces)
    // for an accepted annotation.
    bool annotated = false;
    size_t k = j;
    int bal = 0;
    for (; k < toks.size(); ++k) {
      const std::string& s = toks[k].text;
      if (s == "{") {
        ++bal;
      } else if (s == "}") {
        if (bal == 0) break;  // Record body closing: unterminated decl.
        --bal;
      } else if (s == ";" && bal == 0) {
        break;
      } else if (toks[k].kind == TokKind::kIdent &&
                 kAnnotations.count(s) != 0) {
        annotated = true;
      }
    }
    if (!annotated) {
      std::string fix =
          t == "mutex"
              ? "use the annotated ckr::Mutex (common/mutex.h) so "
                "-Wthread-safety and the lock-order check can see it"
              : "annotate it with CKR_GUARDED_BY(...) or a CKR_ACQUIRED_* "
                "ordering";
      ctx.Report("R6", toks[i].line,
                 "std::" + t + " member '" + name +
                 "' declares no guard discipline; " + fix +
                 ", or waive it with '// ckr-lint: unguarded(reason)'");
    }
    // Re-process the declaration's terminator in the main loop so the
    // scope stack stays balanced.
    if (k > i) i = k - 1;
  }
}

/// R7: atomic operations in src/ must name an explicit memory order. A
/// bare call silently defaults to seq_cst — either an unstated cost or
/// an unstated correctness assumption.
void CheckR7(const Ctx& ctx) {
  if (ctx.kind != FileKind::kSrc) return;
  // Ops whose zero-argument form cannot be atomic (store and the RMWs
  // always take a value), so an argument-less call is some unrelated
  // accessor and is skipped.
  static const std::set<std::string> kNeedsArg = {
      "store",          "exchange",  "fetch_add",
      "fetch_sub",      "fetch_and", "fetch_or",
      "fetch_xor",      "compare_exchange_strong",
      "compare_exchange_weak"};
  // Ops whose zero-argument form is exactly the implicit-seq_cst one.
  static const std::set<std::string> kZeroArgAtomic = {"load",
                                                      "test_and_set"};
  const auto& toks = ctx.toks;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    const std::string& t = toks[i].text;
    const bool needs_arg = kNeedsArg.count(t) != 0;
    if (!needs_arg && kZeroArgAtomic.count(t) == 0) continue;
    const bool member_call =
        i > 0 && (ctx.Is(i - 1, ".") || ctx.Is(i - 1, "->"));
    if (!member_call || !ctx.Is(i + 1, "(")) continue;
    if (needs_arg && ctx.Is(i + 2, ")")) continue;  // Accessor, not atomic.

    bool named_order = false;
    int depth = 0;
    for (size_t j = i + 1; j < toks.size(); ++j) {
      const std::string& s = toks[j].text;
      if (s == "(") ++depth;
      if (s == ")" && --depth == 0) break;
      if (toks[j].kind == TokKind::kIdent &&
          s.rfind("memory_order", 0) == 0) {
        named_order = true;
      }
    }
    if (!named_order) {
      ctx.Report("R7", toks[i].line,
                 "'" + t + "' names no std::memory_order and silently "
                 "defaults to seq_cst; spell the order out (or annotate "
                 "intended sequential consistency with the seqcst waiver)");
    }
  }
}

/// R8: lock-order inversions against the declared hierarchy. Walks
/// scoped lock sites (MutexLock / lock_guard / unique_lock /
/// scoped_lock), keeps the stack of locks held per brace scope, and
/// flags any acquisition of a declared lock while holding one the
/// hierarchy places after it.
void CheckR8(const Ctx& ctx, const LockOrderSpec& order) {
  if (order.empty()) return;
  static const std::set<std::string> kScopedLocks = {
      "MutexLock", "lock_guard", "unique_lock", "scoped_lock"};
  const auto& toks = ctx.toks;
  struct Held {
    std::string name;
    int depth;
  };
  std::vector<Held> held;
  int depth = 0;
  for (size_t i = 0; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (t == "{") {
      ++depth;
      continue;
    }
    if (t == "}") {
      --depth;
      while (!held.empty() && held.back().depth > depth) held.pop_back();
      continue;
    }
    if (toks[i].kind != TokKind::kIdent || kScopedLocks.count(t) == 0) {
      continue;
    }
    size_t j = i + 1;
    if (ctx.Is(j, "<")) {
      int d = 0;
      for (; j < toks.size(); ++j) {
        if (ctx.Is(j, "<")) ++d;
        if (ctx.Is(j, ">") && --d == 0) break;
      }
      ++j;
    }
    if (!ctx.IsIdent(j) || !ctx.Is(j + 1, "(")) continue;  // Not a decl.
    // The mutex is the last identifier of the first constructor argument
    // ("&state.log_mu" and "this->mu_" both resolve to the member name).
    std::string name;
    size_t k = j + 1;
    int pd = 0;
    for (; k < toks.size(); ++k) {
      const std::string& s = toks[k].text;
      if (s == "(") {
        ++pd;
        continue;
      }
      if (s == ")") {
        if (--pd == 0) break;
        continue;
      }
      if (pd == 1 && s == ",") break;
      if (toks[k].kind == TokKind::kIdent) name = s;
    }
    if (!name.empty() && order.Declared(name)) {
      for (const Held& h : held) {
        if (order.Before(name, h.name)) {
          ctx.Report("R8", toks[i].line,
                     "acquires '" + name + "' while holding '" + h.name +
                     "', but the declared lock order puts '" + name +
                     "' first — inversion (deadlock risk)");
        }
      }
      held.push_back({name, depth});
    }
    if (k > i) i = k;
  }
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* kHex = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xf];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string FormatViolation(const Violation& v) {
  std::ostringstream os;
  os << v.file << ":" << v.line << ": [" << v.rule << "] " << v.message;
  return os.str();
}

FileKind ClassifyPath(std::string_view path) {
  // True when `dir` is a whole component of `path`: at its start or after
  // a '/', and followed by a '/'. Compares in place, building no string.
  auto in_dir = [&](std::string_view dir) {
    for (size_t at = path.find(dir); at != std::string_view::npos;
         at = path.find(dir, at + 1)) {
      const size_t end = at + dir.size();
      if ((at == 0 || path[at - 1] == '/') && end < path.size() &&
          path[end] == '/') {
        return true;
      }
    }
    return false;
  };
  if (in_dir("src")) return FileKind::kSrc;
  if (in_dir("bench")) return FileKind::kBench;
  if (in_dir("tests")) return FileKind::kTests;
  return FileKind::kOther;
}

void LockOrderSpec::AddEdge(const std::string& first,
                            const std::string& second) {
  if (first == second) return;
  later_[first].insert(second);
  later_.try_emplace(second);  // So Declared() sees sinks too.
}

void LockOrderSpec::Finalize() {
  // Tiny graphs (a handful of locks): iterate to a fixpoint.
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto& [name, afters] : later_) {
      std::set<std::string> add;
      for (const std::string& mid : afters) {
        auto it = later_.find(mid);
        if (it == later_.end()) continue;
        for (const std::string& far : it->second) {
          if (far != name && afters.count(far) == 0) add.insert(far);
        }
      }
      if (!add.empty()) {
        afters.insert(add.begin(), add.end());
        changed = true;
      }
    }
  }
}

bool LockOrderSpec::Declared(const std::string& name) const {
  return later_.count(name) != 0;
}

bool LockOrderSpec::Before(const std::string& a, const std::string& b) const {
  auto it = later_.find(a);
  return it != later_.end() && it->second.count(b) != 0;
}

void CollectLockOrder(std::string_view content, LockOrderSpec* spec) {
  // Fast path: no marker anywhere (including in strings) means no
  // declarations; the tokenizer pass is only paid by files that have it.
  if (content.find("ckr-lock-order:") == std::string_view::npos) return;
  Suppressions sup;
  Tokenize(content, &sup);
  for (const auto& [first, second] : sup.lock_edges) {
    spec->AddEdge(first, second);
  }
}

std::vector<Violation> LintContent(std::string_view path,
                                   std::string_view content) {
  return LintContent(path, content, nullptr);
}

namespace {

/// True when `content` includes a binary_io.h (common/binary_io.h), or
/// one of the block-index serialization headers (block_postings.h /
/// block_max_index.h expose AppendTo/Serialize, so TUs including them can
/// feed writers too): R4's precondition that serialization machinery is
/// in scope.
bool IncludesSerialization(std::string_view content) {
  std::istringstream lines{std::string(content)};
  std::string raw;
  while (std::getline(lines, raw)) {
    if (raw.find("#include") == std::string::npos) continue;
    if (raw.find("binary_io.h") != std::string::npos ||
        raw.find("block_postings.h") != std::string::npos ||
        raw.find("block_max_index.h") != std::string::npos) {
      return true;
    }
  }
  return false;
}

/// Contents of the header beside a .cc path (foo.h for foo.cc); empty for
/// other paths or when there is none.
std::string ReadOwnHeader(std::string_view path) {
  if (!EndsWith(path, ".cc")) return {};
  std::string header(path.substr(0, path.size() - 3));
  header += ".h";
  std::ifstream in(header, std::ios::binary);
  if (!in) return {};
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

std::vector<Violation> LintContent(std::string_view path,
                                   std::string_view content,
                                   const LockOrderSpec* lock_order,
                                   std::string_view own_header) {
  Suppressions sup;
  std::vector<Tok> toks = Tokenize(content, &sup);
  Suppressions header_sup;  // The header's own directives bind only it.
  const std::vector<Tok> header_toks = Tokenize(own_header, &header_sup);

  // Single-file mode: the file's own declarations are the hierarchy.
  LockOrderSpec local;
  if (lock_order == nullptr) {
    for (const auto& [first, second] : sup.lock_edges) {
      local.AddEdge(first, second);
    }
    local.Finalize();
    lock_order = &local;
  }

  const bool includes_binary_io =
      IncludesSerialization(content) || IncludesSerialization(own_header);

  std::vector<Violation> out;
  Ctx ctx{path, ClassifyPath(path), toks, sup, includes_binary_io,
          header_toks, &out};
  CheckR1(ctx);
  CheckR2(ctx);
  CheckR3(ctx);
  CheckR4(ctx);
  CheckR5(ctx);
  CheckR6(ctx);
  CheckR7(ctx);
  CheckR8(ctx, *lock_order);
  std::sort(out.begin(), out.end(), [](const Violation& a, const Violation& b) {
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return out;
}

StatusOr<std::vector<Violation>> LintPath(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return LintContent(path, buf.str(), nullptr, ReadOwnHeader(path));
}

LintRunResult LintFiles(const std::vector<std::string>& paths,
                        unsigned jobs) {
  LintRunResult result;
  const size_t n = paths.size();
  result.files = n;

  // Pass one (serial; I/O-bound): read everything once and gather the
  // global lock-order registry, so a hierarchy declared in one header
  // binds lock sites in every file.
  std::vector<std::string> contents(n);
  std::vector<std::string> headers(n);
  std::vector<char> readable(n, 0);
  LockOrderSpec order;
  for (size_t i = 0; i < n; ++i) {
    std::ifstream in(paths[i], std::ios::binary);
    if (!in) {
      result.errors.push_back(paths[i] + ": cannot open");
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    contents[i] = buf.str();
    headers[i] = ReadOwnHeader(paths[i]);
    readable[i] = 1;
    CollectLockOrder(contents[i], &order);
  }
  order.Finalize();

  // Pass two (parallel; tokenization-bound): each file lints into its
  // own slot, and slots merge in input order — the result is
  // byte-identical to a serial run for any worker count.
  if (jobs == 0) jobs = DefaultWorkerCount();
  std::vector<std::vector<Violation>> slots(n);
  ParallelForWorkers(n, jobs, [&](unsigned, size_t i) {
    if (readable[i] != 0) {
      slots[i] = LintContent(paths[i], contents[i], &order, headers[i]);
    }
  });
  for (std::vector<Violation>& slot : slots) {
    result.violations.insert(result.violations.end(),
                             std::make_move_iterator(slot.begin()),
                             std::make_move_iterator(slot.end()));
  }
  return result;
}

std::string LintReportJson(const LintRunResult& result) {
  std::ostringstream os;
  os << "{\"errors\":[";
  for (size_t i = 0; i < result.errors.size(); ++i) {
    if (i != 0) os << ",";
    os << "\"" << JsonEscape(result.errors[i]) << "\"";
  }
  os << "],\"files\":" << result.files << ",\"violations\":[";
  for (size_t i = 0; i < result.violations.size(); ++i) {
    const Violation& v = result.violations[i];
    if (i != 0) os << ",";
    os << "{\"file\":\"" << JsonEscape(v.file) << "\",\"line\":" << v.line
       << ",\"message\":\"" << JsonEscape(v.message) << "\",\"rule\":\""
       << JsonEscape(v.rule) << "\"}";
  }
  os << "]}\n";
  return os.str();
}

}  // namespace lint
}  // namespace ckr
