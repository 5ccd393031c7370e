#include "model.h"

#include <algorithm>
#include <cctype>

namespace ninf_tidy {

namespace {

const std::set<std::string>& statementKeywords() {
  static const std::set<std::string> kw = {
      "if",     "for",    "while",  "switch",  "catch",   "return",
      "sizeof", "new",    "delete", "throw",   "alignof", "co_await",
      "do",     "else",   "case",   "default", "goto",    "decltype",
      "static_assert"};
  return kw;
}

bool isOpen(const Token& t) {
  return t.kind == TokKind::Punct &&
         (t.text == "(" || t.text == "[" || t.text == "{");
}

bool isClose(const Token& t) {
  return t.kind == TokKind::Punct &&
         (t.text == ")" || t.text == "]" || t.text == "}");
}

std::string lastComponent(const std::string& qname) {
  const auto pos = qname.rfind("::");
  return pos == std::string::npos ? qname : qname.substr(pos + 2);
}

}  // namespace

std::size_t matchBracket(const std::vector<Token>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (isOpen(toks[i])) ++depth;
    else if (isClose(toks[i])) {
      if (--depth == 0) return i;
    }
  }
  return toks.empty() ? 0 : toks.size() - 1;
}

namespace {

/// Skip a balanced <...> template argument list starting at `i` (which
/// must point at "<").  Returns the index one past the closing ">".
/// Bails out (returns i+1) if the brackets never balance — a
/// comparison, not a template.
std::size_t skipAngles(const std::vector<Token>& toks, std::size_t i) {
  int depth = 0;
  std::size_t j = i;
  for (; j < toks.size() && j < i + 256; ++j) {
    const Token& t = toks[j];
    if (t.is("<")) ++depth;
    else if (t.is(">")) {
      if (--depth == 0) return j + 1;
    } else if (t.is(";") || t.is("{")) {
      break;  // ran off the declaration: not a template list
    }
  }
  return i + 1;
}

class Parser {
 public:
  explicit Parser(FileModel& fm) : fm_(fm), toks_(fm.toks) {}

  void run() {
    std::vector<std::string> scopes;
    parseDeclScope(0, toks_.size() - 1, scopes);
    markPostSoloLambdas();
  }

 private:
  FileModel& fm_;
  const std::vector<Token>& toks_;

  const Token& tok(std::size_t i) const {
    return i < toks_.size() ? toks_[i] : toks_.back();
  }

  static std::string joinScopes(const std::vector<std::string>& scopes,
                                const std::string& name) {
    std::string q;
    for (const auto& s : scopes) {
      if (s.empty()) continue;
      q += s;
      q += "::";
    }
    return q + name;
  }

  /// Parse declarations between [i, end): file, namespace, or class
  /// scope.  Never called for function bodies.
  void parseDeclScope(std::size_t i, std::size_t end,
                      std::vector<std::string>& scopes) {
    while (i < end) {
      const Token& t = tok(i);
      if (t.kind == TokKind::End) break;
      if (t.is(";") || t.is("}")) {
        ++i;
        continue;
      }
      if (t.is("namespace")) {
        i = parseNamespace(i, end, scopes);
        continue;
      }
      if (t.is("class") || t.is("struct") || t.is("union")) {
        i = parseClass(i, end, scopes);
        continue;
      }
      if (t.is("enum")) {
        i = skipToStatementEnd(i, end);
        continue;
      }
      if (t.is("template")) {
        ++i;
        if (tok(i).is("<")) i = skipAngles(toks_, i);
        continue;  // the templated decl itself parses normally
      }
      if (t.is("using") || t.is("typedef") || t.is("friend") ||
          t.is("static_assert") || t.is("extern")) {
        i = skipToStatementEnd(i, end);
        continue;
      }
      i = parseDeclaration(i, end, scopes);
    }
  }

  std::size_t parseNamespace(std::size_t i, std::size_t end,
                             std::vector<std::string>& scopes) {
    ++i;  // "namespace"
    std::string name;
    while (i < end && (tok(i).isIdent() || tok(i).is("::"))) {
      name += tok(i).text;
      ++i;
    }
    if (tok(i).is("=")) return skipToStatementEnd(i, end);  // alias
    if (!tok(i).is("{")) return skipToStatementEnd(i, end);
    const std::size_t close = matchBracket(toks_, i);
    scopes.push_back(name);
    parseDeclScope(i + 1, close, scopes);
    scopes.pop_back();
    return close + 1;
  }

  std::size_t parseClass(std::size_t i, std::size_t end,
                         std::vector<std::string>& scopes) {
    ++i;  // class/struct/union
    std::string name;
    // The class name is the last plain identifier before the base
    // clause / body; attribute macros with arguments are skipped.
    while (i < end) {
      const Token& t = tok(i);
      if (t.isIdent()) {
        name = t.text;
        ++i;
        if (tok(i).is("(")) i = matchBracket(toks_, i) + 1;  // macro args
        else if (tok(i).is("<")) i = skipAngles(toks_, i);   // specialization
        continue;
      }
      if (t.is("::")) {  // nested-name: keep only the last component
        ++i;
        continue;
      }
      break;
    }
    if (tok(i).is(";")) return i + 1;  // forward declaration
    if (tok(i).is(":")) {              // base clause: skip to the body
      while (i < end && !tok(i).is("{")) {
        if (tok(i).is("<")) i = skipAngles(toks_, i);
        else ++i;
      }
    }
    if (!tok(i).is("{")) return skipToStatementEnd(i, end);
    const std::size_t close = matchBracket(toks_, i);
    scopes.push_back(name);
    parseDeclScope(i + 1, close, scopes);
    scopes.pop_back();
    return skipToStatementEnd(close, end);  // trailing "};"
  }

  /// Parse one declaration statement that may be a function definition
  /// or prototype.  Returns the index to resume at.
  std::size_t parseDeclaration(std::size_t i, std::size_t end,
                               std::vector<std::string>& scopes) {
    const std::size_t stmt_begin = i;
    std::string name;       // last ident(::ident)* sequence seen
    int name_line = 0;
    bool reactor = false, blocking = false;

    while (i < end) {
      const Token& t = tok(i);
      if (t.kind == TokKind::End) return i;
      if (t.isIdent()) {
        if (t.text == "NINF_REACTOR_CONTEXT") reactor = true;
        if (t.text == "NINF_BLOCKING") blocking = true;
        // Start (or continue) an identifier sequence.
        name = t.text;
        name_line = t.line;
        ++i;
        while (tok(i).is("::") && tok(i + 1).isIdent()) {
          name += "::" + tok(i + 1).text;
          name_line = tok(i + 1).line;
          i += 2;
        }
        if (lastComponent(name) == "operator") {
          // operator name, qualified or not: fold the symbol tokens into
          // the name, so "operator=(" is not read as an initializer.
          while (i < end && !tok(i).is("(")) name += tok(i++).text;
          if (lastComponent(name) == "operator" && tok(i).is("(")) {
            name += "()";  // operator()(...) — fold the first pair
            i = matchBracket(toks_, i) + 1;
          }
          continue;
        }
        if (tok(i).is("<")) i = skipAngles(toks_, i);
        continue;
      }
      if (t.is("(")) {
        // Candidate function: name(params) trailer {body} | ; | = 0;
        if (name.empty() ||
            statementKeywords().count(lastComponent(name)) > 0) {
          return skipToStatementEnd(i, end);
        }
        const std::size_t params_close = matchBracket(toks_, i);
        return parseFunctionTail(stmt_begin, name, name_line,
                                 params_close + 1, end, scopes, reactor,
                                 blocking);
      }
      if (t.is("{")) {
        // Brace-initialized variable (e.g. std::atomic<long> g{0}).
        return skipToStatementEnd(matchBracket(toks_, i), end);
      }
      if (t.is("=") || t.is(",") || t.is("[")) {
        return skipToStatementEnd(i, end);
      }
      if (t.is(";")) return i + 1;
      ++i;  // *, &, const, etc. — part of the declarator
    }
    return end;
  }

  std::size_t parseFunctionTail(std::size_t stmt_begin, std::string name,
                                int name_line, std::size_t i,
                                std::size_t end,
                                std::vector<std::string>& scopes,
                                bool reactor, bool blocking) {
    // Trailer after the parameter list: qualifiers, annotations,
    // trailing return, ctor initializer list — until the body or ';'.
    while (i < end) {
      const Token& t = tok(i);
      if (t.isIdent()) {
        if (t.text == "NINF_REACTOR_CONTEXT") reactor = true;
        if (t.text == "NINF_BLOCKING") blocking = true;
        ++i;
        if (tok(i).is("(")) i = matchBracket(toks_, i) + 1;  // macro/noexcept args
        continue;
      }
      if (t.is("->")) {  // trailing return type
        ++i;
        while (i < end && !tok(i).is("{") && !tok(i).is(";")) {
          if (tok(i).is("<")) i = skipAngles(toks_, i);
          else ++i;
        }
        continue;
      }
      if (t.is(":")) {  // ctor initializer list
        ++i;
        while (i < end) {
          while (i < end && tok(i).isIdent()) ++i;
          if (tok(i).is("<")) i = skipAngles(toks_, i);
          if (tok(i).is("(") || tok(i).is("{")) i = matchBracket(toks_, i) + 1;
          if (tok(i).is(",")) {
            ++i;
            continue;
          }
          break;
        }
        continue;
      }
      if (t.is("{") || t.is(";") || t.is("=")) break;
      ++i;
    }

    // A declaration inside a parameter list would never reach here;
    // decide what we are looking at.
    const bool is_def = tok(i).is("{");
    if (!is_def && !tok(i).is(";") && !tok(i).is("=")) {
      return skipToStatementEnd(i, end);
    }
    if (tok(i).is("=")) {
      // "= 0;", "= default;", "= delete;" are declarations; anything
      // else was a parenthesized variable initializer (not valid at
      // declarative scope, but be safe).
      const Token& v = tok(i + 1);
      if (!(v.is("0") || v.is("default") || v.is("delete"))) {
        return skipToStatementEnd(i, end);
      }
      i += 1;
    }

    FunctionModel fn;
    fn.qname = joinScopes(scopes, name);
    fn.name = lastComponent(name);
    fn.file = fm_.path;
    fn.line = name_line;
    fn.reactor_context = reactor;
    fn.blocking = blocking;
    (void)stmt_begin;
    if (is_def) {
      fn.has_body = true;
      fn.body_begin = i;
      fn.body_end = matchBracket(toks_, i);
      const std::size_t idx = fm_.functions.size();
      fm_.functions.push_back(std::move(fn));
      parseBody(idx, fm_.functions[idx].body_begin + 1,
                fm_.functions[idx].body_end);
      return fm_.functions[idx].body_end + 1;
    }
    fm_.functions.push_back(std::move(fn));
    return skipToStatementEnd(i, end);
  }

  /// Extract call sites (and nested lambdas) from a body token range.
  void parseBody(std::size_t fn_idx, std::size_t i, std::size_t end) {
    while (i < end) {
      const Token& t = tok(i);
      if (t.is("[") && isLambdaStart(i)) {
        i = parseLambda(fn_idx, i, end);
        continue;
      }
      if (t.isIdent() && tok(i + 1).is("(") &&
          statementKeywords().count(t.text) == 0) {
        CallSite cs;
        cs.callee = t.text;
        cs.line = t.line;
        cs.tok = i;
        if (i >= 2 && tok(i - 1).is("::") && tok(i - 2).isIdent()) {
          cs.qualifier = tok(i - 2).text;
        } else if (i >= 2 && (tok(i - 1).is(".") || tok(i - 1).is("->")) &&
                   tok(i - 2).isIdent()) {
          cs.receiver = tok(i - 2).text;
        }
        fm_.functions[fn_idx].calls.push_back(std::move(cs));
        ++i;
        continue;
      }
      ++i;
    }
  }

  bool isLambdaStart(std::size_t i) const {
    // '[' introduces a lambda unless the previous token makes it a
    // subscript (ident, ')', ']') or an attribute ('[[').
    if (i > 0) {
      const Token& p = tok(i - 1);
      if (p.isIdent() || p.is(")") || p.is("]") || p.is("[")) return false;
    }
    if (tok(i + 1).is("[")) return false;  // [[attribute]]
    const std::size_t close = matchBracket(toks_, i);
    const Token& after = tok(close + 1);
    return after.is("(") || after.is("{") || after.is("mutable") ||
           after.is("->") || after.is("noexcept");
  }

  /// Parse a lambda as its own FunctionModel; returns resume index.
  std::size_t parseLambda(std::size_t outer_idx, std::size_t i,
                          std::size_t end) {
    const int line = tok(i).line;
    std::size_t j = matchBracket(toks_, i) + 1;  // past capture list
    if (tok(j).is("(")) j = matchBracket(toks_, j) + 1;
    while (j < end && !tok(j).is("{")) {
      if (tok(j).is(";")) return j;  // not a lambda after all
      if (tok(j).is("<")) j = skipAngles(toks_, j);
      else ++j;
    }
    if (!tok(j).is("{")) return j;
    const std::size_t body_close = matchBracket(toks_, j);

    FunctionModel fn;
    fn.qname = fm_.functions[outer_idx].qname + "::<lambda:" +
               std::to_string(line) + ">";
    fn.name = "<lambda:" + std::to_string(line) + ">";
    fn.file = fm_.path;
    fn.line = line;
    fn.is_lambda = true;
    fn.has_body = true;
    fn.body_begin = j;
    fn.body_end = body_close;
    const std::size_t idx = fm_.functions.size();
    fm_.functions.push_back(std::move(fn));
    parseBody(idx, j + 1, body_close);
    return body_close + 1;
  }

  /// Lambdas written directly inside a postSolo(...) argument list run
  /// on the reactor thread: mark the outermost ones as reactor roots.
  /// Lambdas nested inside those (work handed onward to workers) stay
  /// unmarked.
  void markPostSoloLambdas() {
    for (std::size_t i = 0; i + 1 < toks_.size(); ++i) {
      if (!(toks_[i].isIdent() && toks_[i].text == "postSolo" &&
            toks_[i + 1].is("("))) {
        continue;
      }
      const std::size_t close = matchBracket(toks_, i + 1);
      // Candidate lambdas whose definition lies inside the call args.
      std::vector<FunctionModel*> in_range;
      for (auto& fn : fm_.functions) {
        if (fn.is_lambda && fn.body_begin > i + 1 && fn.body_end < close) {
          in_range.push_back(&fn);
        }
      }
      for (auto* fn : in_range) {
        bool nested = false;
        for (auto* other : in_range) {
          if (other != fn && fn->body_begin > other->body_begin &&
              fn->body_end < other->body_end) {
            nested = true;
            break;
          }
        }
        if (!nested) fn->reactor_context = true;
      }
    }
  }

  std::size_t skipToStatementEnd(std::size_t i, std::size_t end) {
    while (i < end) {
      const Token& t = tok(i);
      if (t.is(";")) return i + 1;
      if (isOpen(t)) {
        i = matchBracket(toks_, i) + 1;
        continue;
      }
      if (t.is("}")) return i;  // scope closer: let the caller see it
      ++i;
    }
    return end;
  }
};

void collectSuppressions(FileModel& fm) {
  const auto& toks = fm.toks;
  for (std::size_t i = 0; i + 5 < toks.size(); ++i) {
    if (!(toks[i].isIdent() && toks[i].text == "NINF_TIDY_SUPPRESS" &&
          toks[i + 1].is("("))) {
      continue;
    }
    Suppression s;
    s.file = fm.path;
    // Anchor the waiver window at the macro's closing paren: a long
    // justification may wrap over several lines, and the statement it
    // covers sits below the whole call.
    s.line = toks[i].line;
    std::size_t j = i + 1;
    for (int depth = 0; j < toks.size(); ++j) {
      if (toks[j].is("(")) ++depth;
      if (toks[j].is(")") && --depth == 0) {
        s.line = toks[j].line;
        break;
      }
    }
    if (toks[i + 2].kind == TokKind::String) s.check = toks[i + 2].text;
    if (toks[i + 3].is(",") && toks[i + 4].kind == TokKind::String) {
      s.reason = toks[i + 4].text;
    }
    fm.suppressions.push_back(std::move(s));
  }
}

/// Record `Mutex var{"class"}` / `Mutex var("class")` / `Mutex var;`
/// declarations (the class defaults to "mutex" when omitted).
void collectMutexClasses(const FileModel& fm,
                         std::map<std::string, std::set<std::string>>& out) {
  const auto& toks = fm.toks;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!(toks[i].isIdent() && toks[i].text == "Mutex")) continue;
    if (!toks[i + 1].isIdent()) continue;
    const std::string& var = toks[i + 1].text;
    const Token& next = toks[i + 2];
    if (next.is("{") || next.is("(")) {
      if (toks[i + 3].kind == TokKind::String) {
        out[var].insert(toks[i + 3].text);
      }
    } else if (next.is(";") || next.is("=")) {
      out[var].insert("mutex");
    }
  }
}

/// Record declared variable/field types: `Type name;`, `Type& name`,
/// `Type name{...}`, `std::future<T> name`, `std::vector<T> name`.
/// Only the type's last component is kept.
void collectVarTypes(const FileModel& fm,
                     std::map<std::string, std::set<std::string>>& out) {
  const auto& toks = fm.toks;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!toks[i].isIdent()) continue;
    std::string type = toks[i].text;
    const bool smart_ptr =
        type == "unique_ptr" || type == "shared_ptr";
    if (type.empty() || !std::isupper(static_cast<unsigned char>(type[0]))) {
      // Lowercase types we still care about: future, vector, deque...
      if (type != "future" && type != "vector" && type != "deque" &&
          type != "optional" && !smart_ptr) {
        continue;
      }
    }
    std::size_t j = i + 1;
    if (toks[j].is("<")) {
      if (smart_ptr) {
        // unique_ptr<Stream> s: calls through `s->` dispatch on the
        // pointee, so record that as the variable's type.
        std::size_t k = j + 1;
        while (k < toks.size() && toks[k].is("::")) ++k;
        std::string pointee;
        for (; k < toks.size() && (toks[k].isIdent() || toks[k].is("::"));
             ++k) {
          pointee = toks[k].isIdent() ? toks[k].text : pointee;
        }
        if (!pointee.empty()) type = pointee;
      }
      j = skipAngles(toks, j);
    }
    while (toks[j].is("&") || toks[j].is("*") || toks[j].is("const")) ++j;
    if (!toks[j].isIdent()) continue;
    const std::string& var = toks[j].text;
    const Token& after = toks[j + 1];
    // NINF_GUARDED_BY / NINF_PT_GUARDED_BY etc. sit between the
    // declarator and its terminator: `Stream* wire_ NINF_GUARDED_BY(m_);`.
    const bool annotated =
        after.isIdent() && after.text.rfind("NINF_", 0) == 0;
    if (after.is(";") || after.is("=") || after.is("{") || after.is(",") ||
        after.is(")") || annotated) {
      out[var].insert(type);
    }
  }
}

}  // namespace

FileModel parseFile(const std::string& path, const std::string& text) {
  FileModel fm;
  fm.path = path;
  fm.toks = lex(text);
  collectSuppressions(fm);
  Parser(fm).run();
  collectMutexClasses(fm, fm.mutex_classes);
  collectVarTypes(fm, fm.var_types);
  return fm;
}

namespace {

/// Path without its extension: "src/server/metrics.cpp" and
/// "src/server/metrics.h" pair up as one translation unit.
std::string pathStem(const std::string& path) {
  const auto slash = path.rfind('/');
  const auto dot = path.rfind('.');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return path;
  }
  return path.substr(0, dot);
}

}  // namespace

const FunctionModel* Project::findQualified(const std::string& cls,
                                            const std::string& fn) const {
  const std::string suffix = cls + "::" + fn;
  for (auto [it, last] = by_name.equal_range(fn); it != last; ++it) {
    const FunctionModel* f = all_functions[it->second];
    if (f->qname.size() < suffix.size()) continue;
    if (f->qname.compare(f->qname.size() - suffix.size(), suffix.size(),
                         suffix) != 0) {
      continue;
    }
    // Component-aligned only: "Sink::flush" must not match
    // "StreamSink::flush".
    const std::size_t at = f->qname.size() - suffix.size();
    if (at == 0 || f->qname[at - 1] == ':') return f;
  }
  return nullptr;
}

std::string Project::typeOf(const std::string& var) const {
  auto it = var_types.find(var);
  if (it == var_types.end() || it->second.size() != 1) return "";
  return *it->second.begin();
}

std::string Project::lockClassOf(const std::string& var) const {
  auto it = mutex_classes.find(var);
  if (it == mutex_classes.end() || it->second.size() != 1) return "";
  return *it->second.begin();
}

namespace {

std::string resolveScoped(
    const std::vector<FileModel>& files, const std::string& file,
    const std::string& var,
    std::map<std::string, std::set<std::string>> FileModel::*table,
    const std::string& global_answer) {
  const std::string stem = pathStem(file);
  std::set<std::string> local;
  bool present = false;
  for (const auto& fm : files) {
    if (pathStem(fm.path) != stem) continue;
    auto it = (fm.*table).find(var);
    if (it != (fm.*table).end()) {
      present = true;
      local.insert(it->second.begin(), it->second.end());
    }
  }
  if (local.size() == 1) return *local.begin();
  if (present) return "";  // declared here with conflicting meanings
  return global_answer;
}

}  // namespace

std::string Project::typeIn(const std::string& file,
                            const std::string& var) const {
  return resolveScoped(files, file, var, &FileModel::var_types, typeOf(var));
}

std::string Project::lockClassIn(const std::string& file,
                                 const std::string& var) const {
  return resolveScoped(files, file, var, &FileModel::mutex_classes,
                       lockClassOf(var));
}

Project buildProject(std::vector<FileModel> files) {
  Project p;
  p.files = std::move(files);

  // Cross-file annotation propagation: an annotation on either the
  // declaration or the definition covers both.
  std::map<std::string, std::pair<bool, bool>> ann;  // qname -> (reactor, blocking)
  for (const auto& fm : p.files) {
    for (const auto& fn : fm.functions) {
      auto& a = ann[fn.qname];
      a.first |= fn.reactor_context;
      a.second |= fn.blocking;
    }
  }
  for (auto& fm : p.files) {
    collectMutexClasses(fm, p.mutex_classes);
    collectVarTypes(fm, p.var_types);
    for (auto& fn : fm.functions) {
      const auto& a = ann[fn.qname];
      fn.reactor_context = fn.reactor_context || a.first;
      fn.blocking = fn.blocking || a.second;
    }
  }
  for (const auto& fm : p.files) {
    for (const auto& fn : fm.functions) {
      p.all_functions.push_back(&fn);
      p.by_name.emplace(fn.name, p.all_functions.size() - 1);
      const auto pos = fn.qname.rfind("::");
      if (pos != std::string::npos && !fn.is_lambda) {
        const auto prev = fn.qname.rfind("::", pos - 1);
        const std::string cls =
            prev == std::string::npos
                ? fn.qname.substr(0, pos)
                : fn.qname.substr(prev + 2, pos - prev - 2);
        if (!cls.empty()) p.known_classes.insert(cls);
      }
    }
  }
  return p;
}

}  // namespace ninf_tidy
