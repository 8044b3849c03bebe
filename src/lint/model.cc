#include "lint/model.h"

#include <algorithm>
#include <cctype>
#include <utility>

namespace noisybeeps::lint {
namespace {

std::string ModuleOfPath(const std::string& path) {
  if (!path.starts_with("src/")) return "";
  const std::size_t slash = path.find('/', 4);
  if (slash == std::string::npos) return "";
  return path.substr(4, slash - 4);
}

std::string Lowered(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

// Tokens that cannot precede a function declarator: after these, an
// identifier followed by '(' is a call or initializer, not a declaration.
bool RejectsDeclarator(const Token& prev) {
  if (prev.kind == TokenKind::kString || prev.kind == TokenKind::kChar ||
      prev.kind == TokenKind::kNumber) {
    return true;
  }
  static const std::set<std::string> kReject = {
      ".",  "->", "(",    ",",      "=",   "<",   "<<",  ">>", "!",
      "+",  "-",  "/",    "%",      "?",   "[",   "case", "return",
      "throw", "new", "delete", "co_return", "co_yield", "||", "|", "^"};
  return kReject.count(prev.text) > 0;
}

bool IsUnorderedContainer(const std::string& name) {
  return name == "unordered_map" || name == "unordered_set" ||
         name == "unordered_multimap" || name == "unordered_multiset";
}

// Identifiers that introduce statements/expressions, never function names.
bool IsNonFunctionKeyword(const std::string& name) {
  static const std::set<std::string> kKeywords = {
      "if",       "while",   "for",     "switch",        "catch",
      "sizeof",   "alignof", "alignas", "decltype",      "static_assert",
      "return",   "throw",   "new",     "delete",        "defined",
      "noexcept", "typeid",  "requires"};
  return kKeywords.count(name) > 0;
}

class ModelBuilder {
 public:
  ModelBuilder(const std::vector<Token>& tokens,
               const std::vector<std::size_t>& code)
      : tokens_(tokens), code_(code) {}

  void Run(std::vector<FunctionInfo>& functions,
           std::map<std::string, std::string>& value_types) {
    CollectValueTypes(value_types);
    std::size_t i = 0;
    while (i < code_.size()) {
      const Token& t = Tok(i);
      if (t.kind == TokenKind::kIdentifier && t.text == "template" &&
          i + 1 < code_.size() && Tok(i + 1).text == "<") {
        i = SkipTemplateParams(i + 1);
        continue;
      }
      if (t.kind == TokenKind::kIdentifier &&
          (t.text == "class" || t.text == "struct")) {
        i = HandleClass(i);
        continue;
      }
      if (t.kind == TokenKind::kIdentifier && t.text == "enum") {
        i = SkipEnum(i);
        continue;
      }
      if (t.text == "{") {
        // Any brace but a class body (namespace, init list, lambda body)
        // opens a scope that names no class.
        classes_.emplace_back();
        ++i;
        continue;
      }
      if (t.text == "}") {
        if (!classes_.empty()) classes_.pop_back();
        ++i;
        continue;
      }
      if (t.kind == TokenKind::kIdentifier && !IsNonFunctionKeyword(t.text) &&
          i + 1 < code_.size() && Tok(i + 1).text == "(") {
        const std::size_t next = TryFunction(i, functions);
        if (next != kNpos) {
          i = next;
          continue;
        }
      }
      // A lambda bound to a named variable at namespace or class scope
      // (`auto Helper = [...](...) {...};`) is a function definition in
      // every sense the rules care about: record it under the variable's
      // name so call sites and effects in its body attribute somewhere.
      if (t.kind == TokenKind::kIdentifier && i + 2 < code_.size() &&
          Tok(i + 1).text == "=" && Tok(i + 2).text == "[") {
        const std::size_t next = TryLambda(i, functions);
        if (next != kNpos) {
          i = next;
          continue;
        }
      }
      ++i;
    }
  }

 private:
  const Token& Tok(std::size_t i) const { return tokens_[code_[i]]; }

  // `i` is at the '<' after `template`; returns the index after the
  // matching '>'.  Understands '>>' closing two levels.
  std::size_t SkipTemplateParams(std::size_t i) {
    int depth = 0;
    for (; i < code_.size(); ++i) {
      const std::string& text = Tok(i).text;
      if (text == "<") {
        ++depth;
      } else if (text == ">") {
        if (--depth == 0) return i + 1;
      } else if (text == ">>") {
        depth -= 2;
        if (depth <= 0) return i + 1;
      } else if (text == "{" || text == ";") {
        return i;  // malformed; bail out gracefully
      }
    }
    return i;
  }

  // `i` is at 'class'/'struct'.  Pushes a named scope for definitions,
  // returns the index to resume at.
  std::size_t HandleClass(std::size_t i) {
    std::string name;
    bool in_base_clause = false;
    std::size_t j = i + 1;
    for (; j < code_.size(); ++j) {
      const Token& t = Tok(j);
      if (t.text == "(") {
        j = MatchForward(j, "(", ")");
        if (j == kNpos) return i + 1;
        continue;
      }
      if (t.text == ";") return j + 1;  // forward declaration
      if (t.text == "{") break;
      if (t.text == ":") in_base_clause = true;
      if (!in_base_clause && t.kind == TokenKind::kIdentifier &&
          t.text != "final" && t.text != "alignas") {
        name = t.text;
      }
    }
    if (j >= code_.size()) return j;
    classes_.push_back(name);
    return j + 1;
  }

  std::size_t SkipEnum(std::size_t i) {
    std::size_t j = i + 1;
    for (; j < code_.size(); ++j) {
      if (Tok(j).text == ";") return j + 1;
      if (Tok(j).text == "{") {
        const std::size_t close = MatchForward(j, "{", "}");
        return close == kNpos ? code_.size() : close + 1;
      }
    }
    return j;
  }

  // Index of the token matching the opener at `open`, or kNpos.
  std::size_t MatchForward(std::size_t open, std::string_view opener,
                           std::string_view closer) const {
    int depth = 0;
    for (std::size_t k = open; k < code_.size(); ++k) {
      if (Tok(k).text == opener) ++depth;
      if (Tok(k).text == closer && --depth == 0) return k;
    }
    return kNpos;
  }

  // Innermost named class scope, or "".
  std::string EnclosingClass() const {
    for (auto it = classes_.rbegin(); it != classes_.rend(); ++it) {
      if (!it->empty()) return *it;
    }
    return "";
  }

  // `i` is at `ident = [`.  Records the lambda as a FunctionInfo named
  // after the variable and returns the index past its body, or kNpos when
  // the shape is not `ident = [capture](params...) ... { body }`.
  std::size_t TryLambda(std::size_t i, std::vector<FunctionInfo>& out) {
    const std::size_t capture_close = MatchForward(i + 2, "[", "]");
    if (capture_close == kNpos) return kNpos;
    // Optional parameter list, then specifiers (mutable, noexcept,
    // -> type) up to the body brace; a ';' first means no body followed
    // (`x = [expr];` subscript-free shapes cannot reach here, but stay
    // defensive).
    std::size_t params_begin = kNpos;
    std::size_t params_end = kNpos;
    std::size_t k = capture_close + 1;
    if (k < code_.size() && Tok(k).text == "(") {
      params_begin = k;
      params_end = MatchForward(k, "(", ")");
      if (params_end == kNpos) return kNpos;
      k = params_end + 1;
    }
    std::size_t body_begin = kNpos;
    for (; k < code_.size(); ++k) {
      const std::string& text = Tok(k).text;
      if (text == "{") {
        body_begin = k;
        break;
      }
      if (text == ";" || text == "}" || text == ",") return kNpos;
    }
    if (body_begin == kNpos) return kNpos;
    const std::size_t body_end = MatchForward(body_begin, "{", "}");
    if (body_end == kNpos) return kNpos;

    FunctionInfo fn;
    fn.name = Tok(i).text;
    fn.class_name = EnclosingClass();
    fn.qualified_name = fn.name;
    fn.line = Tok(i).line;
    fn.name_token = code_[i];
    // A capture-only lambda has no parameter list; point both ends at the
    // capture's ']' so token ranges stay well-formed and empty.
    fn.params_begin =
        code_[params_begin == kNpos ? capture_close : params_begin];
    fn.params_end = code_[params_end == kNpos ? capture_close : params_end];
    fn.is_definition = true;
    fn.body_begin = code_[body_begin];
    fn.body_end = code_[body_end];
    out.push_back(std::move(fn));
    return body_end + 1;
  }

  // `i` is at an identifier followed by '('.  Records a FunctionInfo and
  // returns the resume index, or kNpos when this is not a declarator.
  std::size_t TryFunction(std::size_t i, std::vector<FunctionInfo>& out) {
    // Walk back over a `A::B::` qualification chain to the declarator
    // start, whose own predecessor decides declaration context.  A
    // qualifier may carry template arguments ("Foo<T>::Bar" in an
    // out-of-line template member definition): the argument list is
    // skipped backward to the class name that owns it.
    std::size_t chain_start = i;
    std::vector<std::string> qualifiers;
    while (chain_start >= 2 && Tok(chain_start - 1).text == "::") {
      if (Tok(chain_start - 2).kind == TokenKind::kIdentifier) {
        qualifiers.push_back(Tok(chain_start - 2).text);
        chain_start -= 2;
        continue;
      }
      if (Tok(chain_start - 2).text != ">" &&
          Tok(chain_start - 2).text != ">>") {
        break;
      }
      // Scan back across the template-argument list to its '<'.
      std::size_t k = chain_start - 2;
      int depth = 0;
      bool matched = false;
      for (; k + 1 > 0; --k) {
        const std::string& text = Tok(k).text;
        if (text == ">") {
          ++depth;
        } else if (text == ">>") {
          depth += 2;
        } else if (text == "<") {
          if (--depth <= 0) {
            matched = depth == 0;
            break;
          }
        } else if (text == "{" || text == "}" || text == ";") {
          break;
        }
        if (k == 0) break;
      }
      if (!matched || k < 1 ||
          Tok(k - 1).kind != TokenKind::kIdentifier) {
        break;
      }
      qualifiers.push_back(Tok(k - 1).text);
      chain_start = k - 1;
    }
    if (chain_start > 0) {
      const Token& prev = Tok(chain_start - 1);
      if (prev.text == "~") return kNpos;  // destructors are uninteresting
      if (prev.text == "::") return kNpos;  // absolute-qualified call
      if (RejectsDeclarator(prev)) return kNpos;
    }
    std::reverse(qualifiers.begin(), qualifiers.end());

    const std::size_t params_begin = i + 1;
    const std::size_t params_end = MatchForward(params_begin, "(", ")");
    if (params_end == kNpos) return kNpos;

    // After the parameter list: find the body '{' or the terminating ';'.
    // A ctor init list may interpose calls, so parentheses are tracked; a
    // '}' or a top-level ',' before either terminator means this was an
    // expression or a multi-declarator statement -- not recorded.
    bool in_init_list = false;
    std::size_t k = params_end + 1;
    int paren_depth = 0;
    std::size_t body_begin = kNpos;
    for (; k < code_.size(); ++k) {
      const std::string& text = Tok(k).text;
      if (text == "(") ++paren_depth;
      if (text == ")") --paren_depth;
      if (paren_depth > 0) continue;
      if (text == ":") in_init_list = true;
      if (text == "{") {
        // A brace directly after an identifier inside a ctor init list is
        // a member's brace-init (`: a_{1}, b_{2}`), not the body: skip it
        // and keep scanning for the real body brace.
        if (in_init_list && k > 0 &&
            Tok(k - 1).kind == TokenKind::kIdentifier) {
          const std::size_t close = MatchForward(k, "{", "}");
          if (close == kNpos) return kNpos;
          k = close;
          continue;
        }
        body_begin = k;
        break;
      }
      if (text == ";") break;
      if (text == "}") return kNpos;
      if (text == "," && !in_init_list) return kNpos;
    }
    if (k >= code_.size()) return kNpos;

    FunctionInfo fn;
    fn.name = Tok(i).text;
    fn.class_name =
        qualifiers.empty() ? EnclosingClass() : qualifiers.back();
    std::string qualified;
    for (const std::string& q : qualifiers) qualified += q + "::";
    qualified += fn.name;
    fn.qualified_name = qualified;
    fn.line = Tok(i).line;
    fn.name_token = code_[i];
    fn.params_begin = code_[params_begin];
    fn.params_end = code_[params_end];
    if (body_begin != kNpos) {
      const std::size_t body_end = MatchForward(body_begin, "{", "}");
      if (body_end == kNpos) {
        // Unterminated body: claim to end of file so rules still scan it.
        fn.is_definition = true;
        fn.body_begin = code_[body_begin];
        fn.body_end = tokens_.size() == 0 ? 0 : code_.back();
        out.push_back(std::move(fn));
        return code_.size();
      }
      fn.is_definition = true;
      fn.body_begin = code_[body_begin];
      fn.body_end = code_[body_end];
      out.push_back(std::move(fn));
      return body_end + 1;
    }
    fn.is_definition = false;
    out.push_back(std::move(fn));
    return k + 1;  // past the ';'
  }

  const std::vector<Token>& tokens_;
  const std::vector<std::size_t>& code_;
  // One entry per open brace: the class name for a class body, else "".
  std::vector<std::string> classes_;

  void CollectValueTypes(std::map<std::string, std::string>& out) {
    for (std::size_t i = 0; i < code_.size(); ++i) {
      const Token& t = Tok(i);
      if (t.kind != TokenKind::kIdentifier) continue;
      std::string type;
      std::size_t after = i + 1;  // first token past the type name
      if (t.text == "double" || t.text == "float" || t.text == "Rng") {
        type = t.text;
      } else if (t.text == "std" && i + 2 < code_.size() &&
                 Tok(i + 1).text == "::" &&
                 (Tok(i + 2).text == "ostringstream" ||
                  Tok(i + 2).text == "ostream")) {
        type = "std::" + Tok(i + 2).text;
        after = i + 3;
      } else if (t.text == "std" && i + 2 < code_.size() &&
                 Tok(i + 1).text == "::" &&
                 IsUnorderedContainer(Tok(i + 2).text)) {
        // Record the container sans template arguments; the declared
        // identifier follows the argument list.
        type = "std::" + Tok(i + 2).text;
        after = i + 3;
        if (after >= code_.size() || Tok(after).text != "<") continue;
        int depth = 0;
        for (; after < code_.size(); ++after) {
          const std::string& text = Tok(after).text;
          if (text == "<") {
            ++depth;
          } else if (text == ">") {
            if (--depth == 0) {
              ++after;
              break;
            }
          } else if (text == ">>") {
            depth -= 2;
            if (depth <= 0) {
              ++after;
              break;
            }
          } else if (text == "{" || text == ";") {
            break;  // malformed argument list; skip this declaration
          }
        }
        if (after >= code_.size()) continue;
      } else {
        continue;
      }
      // Optional ref/pointer, then the declared identifier, then a token
      // that plausibly ends a declarator.
      while (after < code_.size() &&
             (Tok(after).text == "&" || Tok(after).text == "&&" ||
              Tok(after).text == "*")) {
        ++after;
      }
      if (after >= code_.size() ||
          Tok(after).kind != TokenKind::kIdentifier ||
          IsNonFunctionKeyword(Tok(after).text)) {
        continue;
      }
      const std::string& ident = Tok(after).text;
      if (after + 1 < code_.size()) {
        const std::string& next = Tok(after + 1).text;
        if (next == "(") {
          // `Rng rng(seed);` constructs; `Rng Make(Rng base);` declares a
          // function.  A construction's argument list opens with a literal
          // or an identifier followed by an expression separator, while a
          // parameter's type is followed by more declarator tokens.
          if (after + 2 >= code_.size()) continue;
          const Token& arg = Tok(after + 2);
          bool constructs = false;
          if (arg.kind == TokenKind::kNumber ||
              arg.kind == TokenKind::kString ||
              arg.kind == TokenKind::kChar) {
            constructs = true;
          } else if (arg.kind == TokenKind::kIdentifier &&
                     !IsNonFunctionKeyword(arg.text) &&
                     after + 3 < code_.size()) {
            static const std::set<std::string> kExprSeparators = {
                ")", ",", ".", "->", "(", "+", "-", "["};
            constructs = kExprSeparators.count(Tok(after + 3).text) > 0;
          }
          if (!constructs) continue;
        } else {
          static const std::set<std::string> kEnders = {
              ";", ",", ")", "=", "{", "[", ":"};
          if (kEnders.count(next) == 0) continue;
        }
      }
      out.emplace(ident, type);  // first declaration wins
    }
  }
};

}  // namespace

FileModel FileModel::Build(SourceFile file) {
  FileModel model;
  model.path_ = std::move(file.path);
  model.content_ = std::move(file.content);
  model.module_ = ModuleOfPath(model.path_);
  model.is_header_ = model.path_.ends_with(".h");
  model.tokens_ = Lex(model.content_);
  model.code_.reserve(model.tokens_.size());
  for (std::size_t i = 0; i < model.tokens_.size(); ++i) {
    if (model.tokens_[i].kind != TokenKind::kComment) {
      model.code_.push_back(i);
    }
  }

  // Include directives: '#' (first code token on its line) + "include".
  for (std::size_t ci = 0; ci + 1 < model.code_.size(); ++ci) {
    const Token& hash = model.tokens_[model.code_[ci]];
    if (hash.text != "#") continue;
    if (ci > 0 &&
        model.tokens_[model.code_[ci - 1]].line == hash.line) {
      continue;
    }
    const Token& directive = model.tokens_[model.code_[ci + 1]];
    if (directive.text != "include" || directive.line != hash.line) continue;
    if (ci + 2 >= model.code_.size()) continue;
    const Token& target = model.tokens_[model.code_[ci + 2]];
    IncludeEdge edge;
    edge.line = hash.line;
    if (target.kind == TokenKind::kString) {
      edge.target = StringLiteralText(target);
      edge.system = false;
    } else if (target.text == "<") {
      edge.system = true;
      for (std::size_t k = ci + 3; k < model.code_.size(); ++k) {
        const Token& part = model.tokens_[model.code_[k]];
        if (part.text == ">" || part.line != hash.line) break;
        edge.target += part.text;
      }
    } else {
      continue;
    }
    if (!edge.system) {
      const std::size_t slash = edge.target.find('/');
      if (slash != std::string::npos) {
        edge.module = edge.target.substr(0, slash);
      }
    }
    model.includes_.push_back(std::move(edge));
  }

  // Preprocessor directives are line-oriented and declare no functions or
  // values; hide them from the structural pass so that e.g. a definition
  // directly following an #include is not judged by the directive's
  // trailing tokens (the header-name string would veto the declarator).
  std::vector<std::size_t> structural;
  structural.reserve(model.code_.size());
  int last_code_line = -1;
  int pp_line = -1;
  for (const std::size_t i : model.code_) {
    const Token& t = model.tokens_[i];
    if (t.text == "#" && t.line != last_code_line) pp_line = t.line;
    last_code_line = t.line;
    if (t.line == pp_line) continue;
    structural.push_back(i);
  }
  ModelBuilder builder(model.tokens_, structural);
  builder.Run(model.functions_, model.value_types_);
  return model;
}

bool FileModel::LineMentions(int line, std::string_view needle) const {
  const std::string wanted = Lowered(needle);
  for (const std::size_t i : code_) {
    const Token& t = tokens_[i];
    if (t.line != line) continue;
    if (Lowered(t.text).find(wanted) != std::string::npos) return true;
  }
  return false;
}

RepoModel::RepoModel(std::vector<SourceFile> files) {
  files_.reserve(files.size());
  for (SourceFile& file : files) {
    files_.push_back(FileModel::Build(std::move(file)));
  }
  for (std::size_t i = 0; i < files_.size(); ++i) {
    by_path_[files_[i].path()] = i;
    if (!files_[i].module().empty()) modules_.insert(files_[i].module());
  }
  for (const FileModel& file : files_) {
    const std::string& from = file.module();
    if (from.empty()) continue;
    for (const IncludeEdge& inc : file.includes()) {
      if (inc.system || inc.module.empty() || inc.module == from) continue;
      if (modules_.count(inc.module) == 0) continue;
      edges_[from].emplace(inc.module, Witness{file.path(), inc.line});
    }
  }
}

const FileModel* RepoModel::FindFile(const std::string& path) const {
  const auto it = by_path_.find(path);
  return it == by_path_.end() ? nullptr : &files_[it->second];
}

bool RepoModel::DependsOn(const std::string& from,
                          const std::string& to) const {
  std::set<std::string> seen;
  std::vector<std::string> frontier = {from};
  while (!frontier.empty()) {
    const std::string node = frontier.back();
    frontier.pop_back();
    if (!seen.insert(node).second) continue;
    const auto it = edges_.find(node);
    if (it == edges_.end()) continue;
    for (const auto& [next, witness] : it->second) {
      if (next == to) return true;
      frontier.push_back(next);
    }
  }
  return false;
}

std::string RepoModel::TypeOf(const FileModel& file,
                              const std::string& ident) const {
  const auto own = file.value_types().find(ident);
  if (own != file.value_types().end()) return own->second;
  // The paired header (or source) declares the members a .cc refers to.
  std::string paired = file.path();
  if (paired.ends_with(".cc")) {
    paired.replace(paired.size() - 3, 3, ".h");
  } else if (paired.ends_with(".h")) {
    paired.replace(paired.size() - 2, 2, ".cc");
  } else {
    return "";
  }
  const FileModel* other = FindFile(paired);
  if (other == nullptr) return "";
  const auto it = other->value_types().find(ident);
  return it == other->value_types().end() ? "" : it->second;
}

}  // namespace noisybeeps::lint
