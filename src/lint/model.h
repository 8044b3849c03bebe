// The structural model nblint rules run over.
//
// One FileModel per source file: the classified token stream (token.h),
// function and class boundaries with qualified-name resolution for
// out-of-class definitions ("IndependentNoisyChannel::Deliver"), the
// file's include edges, and a best-effort map of declared value types
// (which identifiers are double / Rng / std::ostringstream / unordered
// containers -- what the float-equality, rng-stream-discipline,
// locale-formatting, and determinism-taint rules need).
//
// The RepoModel aggregates the files and exposes the src/ module include
// graph as a first-class queryable structure: modules, witnessed edges
// (which #include proves the dependency), and reachability -- the
// include-cycle and layering rules are small queries against it.
//
// Everything here is a HEURISTIC parser, not a compiler front end: it must
// never crash on strange code, and it prefers missing an exotic construct
// over guessing wildly.  Rules are expected to tolerate both.
#ifndef NOISYBEEPS_LINT_MODEL_H_
#define NOISYBEEPS_LINT_MODEL_H_

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "lint/token.h"

namespace noisybeeps::lint {

struct SourceFile {
  // Repo-relative path with '/' separators, e.g. "src/util/rng.h".
  std::string path;
  std::string content;
};

inline constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

// One #include directive.  `target` is the include path as written;
// `module` is its first path segment when the include is quoted
// ("util/rng.h" -> "util"), or "" for system includes.
struct IncludeEdge {
  std::string target;
  std::string module;
  int line = 0;
  bool system = false;  // <...> rather than "..."
};

// A function declaration or definition found at namespace or class scope.
// Token fields index into FileModel::tokens().
struct FunctionInfo {
  std::string name;            // "Deliver"
  std::string class_name;      // "IndependentNoisyChannel", "" for free fns
  std::string qualified_name;  // "IndependentNoisyChannel::Deliver"
  int line = 0;                // line of the name token
  std::size_t name_token = kNpos;
  std::size_t params_begin = kNpos;  // the '(' token
  std::size_t params_end = kNpos;    // the matching ')' token
  std::size_t body_begin = kNpos;    // the '{' token; kNpos for declarations
  std::size_t body_end = kNpos;      // the matching '}' token
  bool is_definition = false;
};

class FileModel {
 public:
  // Builds the model for one file.  Never throws on malformed code.
  [[nodiscard]] static FileModel Build(SourceFile file);

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] const std::string& content() const { return content_; }
  // The module directory for src/ files ("src/util/rng.cc" -> "util"), "".
  [[nodiscard]] const std::string& module() const { return module_; }
  [[nodiscard]] bool is_header() const { return is_header_; }

  [[nodiscard]] const std::vector<Token>& tokens() const { return tokens_; }
  // Indices of non-comment tokens, in order -- the stream rules scan when
  // documentation must not false-positive.
  [[nodiscard]] const std::vector<std::size_t>& code() const { return code_; }
  [[nodiscard]] const std::vector<IncludeEdge>& includes() const {
    return includes_;
  }
  [[nodiscard]] const std::vector<FunctionInfo>& functions() const {
    return functions_;
  }
  // Identifier -> declared type, for the declaration forms the model
  // recognises ("double", "float", "Rng", "std::ostringstream",
  // "std::ostream", and the unordered containers as
  // "std::unordered_map" etc. with their template arguments dropped).
  // Best-effort; absent means unknown.
  [[nodiscard]] const std::map<std::string, std::string>& value_types()
      const {
    return value_types_;
  }

  // True when any code token or string literal on `line` contains
  // `needle` case-insensitively (comments excluded).
  [[nodiscard]] bool LineMentions(int line, std::string_view needle) const;

 private:
  std::string path_;
  std::string content_;
  std::string module_;
  bool is_header_ = false;
  std::vector<Token> tokens_;
  std::vector<std::size_t> code_;
  std::vector<IncludeEdge> includes_;
  std::vector<FunctionInfo> functions_;
  std::map<std::string, std::string> value_types_;
};

class RepoModel {
 public:
  explicit RepoModel(std::vector<SourceFile> files);

  [[nodiscard]] const std::vector<FileModel>& files() const { return files_; }
  [[nodiscard]] const FileModel* FindFile(const std::string& path) const;

  // --- the src/ module include graph --------------------------------------
  struct Witness {
    std::string file;
    int line = 0;
  };
  [[nodiscard]] const std::set<std::string>& modules() const {
    return modules_;
  }
  // edges().at(a).at(b) is one include proving module a depends on b.
  [[nodiscard]] const std::map<std::string, std::map<std::string, Witness>>&
  edges() const {
    return edges_;
  }
  [[nodiscard]] bool DependsOn(const std::string& from,
                               const std::string& to) const;

  // Declared type of `ident` as seen from `file`: the file's own
  // declarations first, then its paired header/source ("a/b.cc" <-> "a/b.h"
  // -- where the members a .cc refers to are declared).  "" if unknown.
  [[nodiscard]] std::string TypeOf(const FileModel& file,
                                   const std::string& ident) const;

 private:
  std::vector<FileModel> files_;
  std::map<std::string, std::size_t> by_path_;
  std::set<std::string> modules_;
  std::map<std::string, std::map<std::string, Witness>> edges_;
};

}  // namespace noisybeeps::lint

#endif  // NOISYBEEPS_LINT_MODEL_H_
