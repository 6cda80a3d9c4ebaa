/// \file check_guards.cc
/// \brief guard-coverage: in any class that uses PIPES_GUARDED_BY /
/// PIPES_PT_GUARDED_BY, every mutable data member must itself be annotated,
/// a std::atomic (or a ShardedCounter, a set of atomics), a lock, const, a
/// reference, or carry an explicit
/// `// pipes-analyze: unguarded(<reason>)` waiver.
///
/// Rationale: Clang's -Wthread-safety only checks members that are
/// *already* annotated — a freshly added member silently opts out of the
/// whole analysis. This check closes that hole: once a class opts into the
/// guarded-state discipline, opting a member out has to be a reviewed,
/// written-down decision.
///
/// The scanner is a heuristic statement splitter over the token stream
/// (see source_model.h): it tracks class/namespace scopes by brace
/// matching, skips function bodies (a `{...}` group not followed by `;`),
/// and classifies the remaining class-scope statements as data members by
/// their declarator shape (last identifier before `;` / `=` / `{init}`,
/// not followed by `(`).

#include <string>
#include <vector>

#include "pipes_analyze/analyzer.h"
#include "pipes_analyze/source_model.h"

namespace pipes::analyze {
namespace {

constexpr const char* kCheck = "guard-coverage";

/// Lock capabilities: a lock member is the guard, not guarded state.
bool IsLockType(const std::string& ident) {
  return ident == "Mutex" || ident == "ReentrantSharedMutex";
}

struct Member {
  std::string name;
  int line = 0;
  bool guarded = false;  ///< has PIPES_GUARDED_BY / PIPES_PT_GUARDED_BY
  bool exempt = false;   ///< const / reference / atomic / lock / static
};

struct ClassInfo {
  std::string name;
  bool uses_guards = false;
  std::vector<Member> members;
};

/// A statement's tokens with the pseudo-token "{}" standing in for a
/// consumed brace-initializer group.
using Stmt = std::vector<Token>;

/// Strips PIPES_* macro invocations, alignas(...), and [[...]] attributes.
/// Sets *guarded when a guard annotation was among them.
Stmt StripAnnotations(const Stmt& in, bool* guarded) {
  Stmt out;
  for (size_t i = 0; i < in.size(); ++i) {
    const Token& t = in[i];
    if (t.kind == TokKind::kIdent && t.text.rfind("PIPES_", 0) == 0) {
      if (t.text == "PIPES_GUARDED_BY" || t.text == "PIPES_PT_GUARDED_BY") {
        *guarded = true;
      }
      if (i + 1 < in.size() && in[i + 1].Is("(")) {
        size_t close = MatchingClose(in, i + 1);
        i = close < in.size() ? close : in.size() - 1;
      }
      continue;
    }
    if (t.IsIdent("alignas") && i + 1 < in.size() && in[i + 1].Is("(")) {
      size_t close = MatchingClose(in, i + 1);
      i = close < in.size() ? close : in.size() - 1;
      continue;
    }
    if (t.Is("[") && i + 1 < in.size() && in[i + 1].Is("[")) {
      size_t close = MatchingClose(in, i);
      i = close < in.size() ? close : in.size() - 1;
      continue;
    }
    out.push_back(t);
  }
  return out;
}

/// Drops leading access-specifier labels (`public:` etc.), which accumulate
/// into the following statement because they carry no `;`.
void StripAccessLabels(Stmt* stmt) {
  while (stmt->size() >= 2 && (*stmt)[1].Is(":") &&
         ((*stmt)[0].IsIdent("public") || (*stmt)[0].IsIdent("private") ||
          (*stmt)[0].IsIdent("protected"))) {
    stmt->erase(stmt->begin(), stmt->begin() + 2);
  }
}

bool ContainsIdent(const Stmt& stmt, const char* ident) {
  for (const Token& t : stmt) {
    if (t.IsIdent(ident)) return true;
  }
  return false;
}

/// Classifies one class-scope statement; appends to cls->members when it is
/// a data-member declaration.
void ClassifyStatement(Stmt stmt, ClassInfo* cls) {
  bool guarded = false;
  stmt = StripAnnotations(stmt, &guarded);
  StripAccessLabels(&stmt);
  if (guarded) cls->uses_guards = true;
  if (stmt.size() < 2) return;

  const Token& first = stmt[0];
  if (first.IsIdent("using") || first.IsIdent("typedef") ||
      first.IsIdent("friend") || first.IsIdent("template") ||
      first.IsIdent("enum") || first.IsIdent("class") ||
      first.IsIdent("struct")) {
    return;  // type aliases, forward decls, nested type heads
  }
  // Class-level (not per-instance) and compile-time state is out of scope.
  if (ContainsIdent(stmt, "static") || ContainsIdent(stmt, "constexpr") ||
      ContainsIdent(stmt, "operator")) {
    return;
  }

  // Split off the initializer: declarator = tokens before the first
  // top-level `=` or before the consumed brace-init group (default
  // arguments sit inside parentheses and do not count).
  size_t decl_end = stmt.size();
  int angle = 0;
  int paren = 0;
  for (size_t i = 0; i < stmt.size(); ++i) {
    if (stmt[i].kind != TokKind::kPunct) continue;
    if (stmt[i].text == "<") ++angle;
    else if (stmt[i].text == ">") --angle;
    else if (stmt[i].text == "(") ++paren;
    else if (stmt[i].text == ")") --paren;
    else if (angle == 0 && paren == 0 &&
             (stmt[i].text == "=" || stmt[i].text == "{}")) {
      decl_end = i;
      break;
    }
  }
  if (decl_end < 2) return;

  // The member name is the last identifier of the declarator, skipping
  // trailing array extents and function qualifiers. A `)` there means a
  // function declaration (`void f() const noexcept override;`).
  size_t last = decl_end - 1;
  for (;;) {
    if (stmt[last].Is("]")) {
      size_t open = last;
      while (open > 0 && !stmt[open].Is("[")) --open;
      if (open == 0) return;
      last = open - 1;
      continue;
    }
    if (stmt[last].IsIdent("const") || stmt[last].IsIdent("noexcept") ||
        stmt[last].IsIdent("override") || stmt[last].IsIdent("final") ||
        stmt[last].IsIdent("volatile")) {
      if (last == 0) return;
      --last;
      continue;
    }
    break;
  }
  if (stmt[last].kind != TokKind::kIdent) return;  // `)`, `>` etc: not data
  Member m;
  m.name = stmt[last].text;
  m.line = stmt[last].line;
  m.guarded = guarded;

  // Exemptions, judged on the top-level declarator (template arguments do
  // not count: a vector<const T*> is still mutable state).
  angle = 0;
  for (size_t i = 0; i < last; ++i) {
    const Token& t = stmt[i];
    if (t.kind == TokKind::kPunct) {
      if (t.text == "<") ++angle;
      else if (t.text == ">") --angle;
      else if (t.text == "&" && angle == 0) m.exempt = true;  // reference
      continue;
    }
    if (angle != 0 || t.kind != TokKind::kIdent) continue;
    if (t.text == "const") m.exempt = true;
    if (t.text == "atomic") m.exempt = true;  // std::atomic<...>
    if (IsLockType(t.text)) m.exempt = true;
    if (t.text == "atomic_bool" || t.text == "atomic_int" ||
        t.text == "atomic_uint64_t") {
      m.exempt = true;
    }
    if (t.text == "ShardedCounter") m.exempt = true;  // atomic stripes
  }
  cls->members.push_back(std::move(m));
}

/// Recursive scope scanner. `begin` points at the first token inside the
/// scope; returns the index just past the scope's closing `}` (or end).
size_t ScanScope(const std::vector<Token>& toks, size_t begin, bool is_class,
                 const std::string& class_name,
                 std::vector<ClassInfo>* classes) {
  ClassInfo cls;
  cls.name = class_name;
  Stmt stmt;
  size_t i = begin;
  while (i < toks.size()) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kPunct) {
      stmt.push_back(t);
      ++i;
      continue;
    }
    if (t.text == "}") {
      ++i;
      break;
    }
    if (t.text == ";") {
      if (is_class) ClassifyStatement(stmt, &cls);
      stmt.clear();
      ++i;
      continue;
    }
    if (t.text == "(" || t.text == "[") {
      // Consume the whole group so braces inside (default arguments,
      // lambdas, attributes) cannot be mistaken for scope braces.
      size_t close = MatchingClose(toks, i);
      for (size_t j = i; j <= close && j < toks.size(); ++j) {
        stmt.push_back(toks[j]);
      }
      i = close < toks.size() ? close + 1 : toks.size();
      continue;
    }
    if (t.text != "{") {
      stmt.push_back(t);
      ++i;
      continue;
    }

    // An opening brace: classify by the statement head gathered so far.
    bool dummy = false;
    Stmt head = StripAnnotations(stmt, &dummy);
    StripAccessLabels(&head);
    if (!head.empty() && head[0].IsIdent("namespace")) {
      i = ScanScope(toks, i + 1, /*is_class=*/false, "", classes);
      stmt.clear();
      continue;
    }
    if (ContainsIdent(head, "enum")) {
      size_t close = MatchingClose(toks, i);
      i = close < toks.size() ? close + 1 : toks.size();
      continue;  // tail (`;`) finalizes and drops the enum statement
    }
    bool is_type_head = false;
    std::string name = "<anon>";
    for (size_t j = 0; j + 1 < head.size(); ++j) {
      if ((head[j].IsIdent("class") || head[j].IsIdent("struct") ||
           head[j].IsIdent("union")) &&
          head[j + 1].kind == TokKind::kIdent) {
        is_type_head = true;
        name = head[j + 1].text;
        break;
      }
    }
    // `template <class T> void f() {` also matches ident-after-class; rule
    // it out: a type head has no parentheses.
    for (const Token& h : head) {
      if (h.Is("(") || h.Is(")")) is_type_head = false;
    }
    if (is_type_head) {
      i = ScanScope(toks, i + 1, /*is_class=*/true, name, classes);
      // Keep a type pseudo-token so `struct X {...} x_;` still yields a
      // member; a bare `};` finalizes a 1-token statement and is dropped.
      stmt.clear();
      stmt.push_back(Token{TokKind::kIdent, name, toks[i - 1].line});
      continue;
    }

    // Function body or brace initializer: skip the group, then peek. A
    // following `;` means the braces belonged to a declaration.
    size_t close = MatchingClose(toks, i);
    size_t next = close < toks.size() ? close + 1 : toks.size();
    if (next < toks.size() && toks[next].Is(";")) {
      stmt.push_back(Token{TokKind::kPunct, "{}", toks[i].line});
      i = next;  // the `;` finalizes the statement
    } else {
      stmt.clear();  // function definition: not a data member
      i = next;
    }
  }
  if (is_class && !cls.members.empty()) {
    classes->push_back(std::move(cls));
  } else if (is_class && cls.uses_guards) {
    classes->push_back(std::move(cls));
  }
  return i;
}

}  // namespace

void CheckGuardCoverage(const Options& opts, std::vector<Finding>* out) {
  for (const std::string& rel : ListSources(opts.root, "src")) {
    auto file = LoadSource(opts.root, rel);
    if (!file) {
      out->push_back({kCheck, rel, 0, "could not read file"});
      continue;
    }
    std::vector<Token> toks = Lex(file->stripped);
    std::vector<ClassInfo> classes;
    ScanScope(toks, 0, /*is_class=*/false, "", &classes);
    for (const ClassInfo& cls : classes) {
      if (!cls.uses_guards) continue;
      for (const Member& m : cls.members) {
        if (m.guarded || m.exempt) continue;
        if (file->HasWaiver("unguarded", m.line)) continue;
        out->push_back(
            {kCheck, rel, m.line,
             "class " + cls.name + ": mutable member '" + m.name +
                 "' is neither PIPES_GUARDED_BY, atomic, const, nor waived "
                 "(add an annotation or '// pipes-analyze: "
                 "unguarded(<reason>)')"});
      }
    }
  }
}

}  // namespace pipes::analyze
