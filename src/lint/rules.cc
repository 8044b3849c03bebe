#include "lint/rules.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <map>
#include <set>
#include <span>
#include <utility>

namespace noisybeeps::lint {
namespace {

bool IsSrcHeader(const FileModel& file) {
  return file.path().starts_with("src/") && file.is_header();
}

std::string ExpectedGuard(const std::string& path) {
  std::string guard = "NOISYBEEPS_";
  for (char c : path.substr(4, path.size() - 4 - 2)) {  // strip src/ and .h
    if (c == '/' || c == '.') {
      guard += '_';
    } else {
      guard += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
  }
  guard += "_H_";
  return guard;
}

const Token& Tok(const FileModel& file, std::size_t ci) {
  return file.tokens()[file.code()[ci]];
}

// The ::-qualified identifier chain ending at code index `ci`
// ("std" "::" "rand" -> parts {"std","rand"}), plus its start index.
struct IdentChain {
  std::vector<std::string> parts;
  std::size_t start_ci = 0;
};

IdentChain ChainEndingAt(const FileModel& file, std::size_t ci) {
  IdentChain chain;
  chain.parts.push_back(Tok(file, ci).text);
  chain.start_ci = ci;
  while (chain.start_ci >= 2 &&
         Tok(file, chain.start_ci - 1).text == "::" &&
         Tok(file, chain.start_ci - 2).kind == TokenKind::kIdentifier) {
    chain.start_ci -= 2;
    chain.parts.push_back(Tok(file, chain.start_ci).text);
  }
  std::reverse(chain.parts.begin(), chain.parts.end());
  return chain;
}

// True when `ci` is the last identifier of its qualification chain (the
// next token is not a '::' continuing it).
bool IsChainEnd(const FileModel& file, std::size_t ci) {
  return ci + 1 >= file.code().size() || Tok(file, ci + 1).text != "::";
}

// --- header-guard -----------------------------------------------------------

void CheckHeaderGuard(const RepoModel& repo, std::vector<Finding>& out) {
  for (const FileModel& file : repo.files()) {
    if (!IsSrcHeader(file)) continue;
    const std::string expected = ExpectedGuard(file.path());
    const std::vector<std::size_t>& code = file.code();
    bool found_ifndef = false;
    for (std::size_t ci = 0; ci + 2 < code.size(); ++ci) {
      const Token& hash = Tok(file, ci);
      if (hash.text != "#" || Tok(file, ci + 1).text != "ifndef" ||
          Tok(file, ci + 1).line != hash.line) {
        continue;
      }
      const Token& name = Tok(file, ci + 2);
      if (name.kind != TokenKind::kIdentifier || name.line != hash.line) {
        continue;
      }
      found_ifndef = true;
      if (name.text != expected) {
        out.push_back(
            {file.path(), name.line, "header-guard",
             "include guard '" + name.text + "' should be '" + expected +
                 "'"});
        break;
      }
      // The guard name matched; the very next directive must #define it.
      if (ci + 5 < code.size() && Tok(file, ci + 3).text == "#" &&
          Tok(file, ci + 4).text == "define" &&
          Tok(file, ci + 5).text == expected) {
        break;
      }
      if (ci + 3 < code.size()) {
        out.push_back({file.path(), Tok(file, ci + 3).line, "header-guard",
                       "#ifndef " + expected +
                           " must be followed by #define " + expected});
      }
      break;
    }
    if (!found_ifndef) {
      out.push_back({file.path(), 1, "header-guard",
                     "missing include guard (expected #ifndef " + expected +
                         ")"});
    }
  }
}

// --- banned-random ----------------------------------------------------------

void CheckBannedRandomness(const RepoModel& repo, std::vector<Finding>& out) {
  // requires_call: bare rand/srand are only banned as calls, so a local
  // variable named `rand` never false-positives.
  struct BannedToken {
    std::string_view token;
    bool requires_call;
  };
  static constexpr BannedToken kBanned[] = {
      {"std::rand", false},          {"std::srand", false},
      {"std::random_device", false}, {"std::mt19937", false},
      {"std::mt19937_64", false},    {"std::minstd_rand", false},
      {"std::default_random_engine", false},
      {"std::random_shuffle", false},
      {"rand", true},                {"srand", true},
      {"drand48", false},            {"lrand48", false},
  };
  for (const FileModel& file : repo.files()) {
    if (file.path() == "src/util/rng.cc") continue;
    for (const IncludeEdge& inc : file.includes()) {
      if (inc.system && inc.target == "random") {
        out.push_back({file.path(), inc.line, "banned-random",
                       "#include <random>: all randomness must flow "
                       "through util/rng.h (Rng is the reproducibility "
                       "boundary)"});
      }
    }
    const std::vector<std::size_t>& code = file.code();
    for (std::size_t ci = 0; ci < code.size(); ++ci) {
      const Token& t = Tok(file, ci);
      if (t.kind != TokenKind::kIdentifier || !IsChainEnd(file, ci)) continue;
      const IdentChain chain = ChainEndingAt(file, ci);
      // Any chain PREFIX may match: std::mt19937::min is still std::mt19937.
      std::string prefix;
      for (std::size_t p = 0; p < chain.parts.size(); ++p) {
        if (p > 0) prefix += "::";
        prefix += chain.parts[p];
        for (const BannedToken& banned : kBanned) {
          if (prefix != banned.token) continue;
          if (banned.requires_call &&
              (chain.parts.size() > 1 || ci + 1 >= code.size() ||
               Tok(file, ci + 1).text != "(")) {
            continue;
          }
          out.push_back(
              {file.path(), Tok(file, chain.start_ci).line, "banned-random",
               std::string(banned.token) +
                   " is banned outside src/util/rng.cc: use Rng (seeded, "
                   "splittable) so runs stay bit-reproducible"});
          p = chain.parts.size();  // one finding per chain
          break;
        }
      }
    }
  }
}

// --- raw-thread -------------------------------------------------------------

void CheckRawThreads(const RepoModel& repo, std::vector<Finding>& out) {
  static constexpr std::string_view kBanned[] = {
      "std::thread", "std::jthread", "std::async", "pthread_create"};
  for (const FileModel& file : repo.files()) {
    if (file.path() == "src/util/parallel.h") continue;
    const std::vector<std::size_t>& code = file.code();
    for (std::size_t ci = 0; ci < code.size(); ++ci) {
      const Token& t = Tok(file, ci);
      if (t.kind != TokenKind::kIdentifier || !IsChainEnd(file, ci)) continue;
      const IdentChain chain = ChainEndingAt(file, ci);
      std::string qualified;
      for (std::size_t p = 0; p < chain.parts.size(); ++p) {
        if (p > 0) qualified += "::";
        qualified += chain.parts[p];
      }
      // Only the FULL chain counts: std::thread::hardware_concurrency is a
      // static query, not a spawn, so a longer chain is exempt.
      for (std::string_view banned : kBanned) {
        if (qualified != banned) continue;
        out.push_back(
            {file.path(), Tok(file, chain.start_ci).line, "raw-thread",
             std::string(banned) +
                 " is banned outside src/util/parallel.h: spawn workers via "
                 "ParallelTrials so determinism is preserved by "
                 "construction"});
        break;
      }
    }
  }
}

// --- include-cycle ----------------------------------------------------------

void CheckIncludeCycles(const RepoModel& repo, std::vector<Finding>& out) {
  // Iterative-enough DFS with three colours; a grey->grey edge closes a
  // cycle, reported at the witnessing #include.
  std::map<std::string, int> colour;  // 0 white, 1 grey, 2 black
  std::vector<std::string> stack;
  auto dfs = [&](auto&& self, const std::string& node) -> void {
    colour[node] = 1;
    stack.push_back(node);
    const auto it = repo.edges().find(node);
    if (it != repo.edges().end()) {
      for (const auto& [to, witness] : it->second) {
        if (colour[to] == 1) {
          std::string path;
          auto s = std::find(stack.begin(), stack.end(), to);
          for (; s != stack.end(); ++s) path += *s + " -> ";
          path += to;
          out.push_back({witness.file, witness.line, "include-cycle",
                         "module include cycle: " + path});
        } else if (colour[to] == 0) {
          self(self, to);
        }
      }
    }
    stack.pop_back();
    colour[node] = 2;
  };
  for (const std::string& module : repo.modules()) {
    if (colour[module] == 0) dfs(dfs, module);
  }
}

// --- layering ---------------------------------------------------------------

// The declarative module-layer table: every src/ module appears here with
// the exact set of sibling modules it may include.  Adding a module or a
// dependency means editing this table -- which is the point: the layering
// of the simulator is a reviewed decision, not an accident of #includes.
const std::map<std::string, std::set<std::string>>& LayerTable() {
  static const std::map<std::string, std::set<std::string>> kTable = {
      {"util", {}},
      {"lint", {"util"}},
      {"ecc", {"util"}},
      {"channel", {"util"}},
      {"protocol", {"channel", "util"}},
      {"tasks", {"protocol", "util"}},
      {"fault", {"channel", "protocol", "util"}},
      {"coding", {"channel", "ecc", "fault", "protocol", "util"}},
      {"analysis", {"protocol", "tasks", "util"}},
      {"failpoint", {"util"}},
      {"resilience", {"failpoint", "util"}},
      {"service",
       {"channel", "coding", "failpoint", "fault", "protocol", "resilience",
        "tasks", "util"}},
  };
  return kTable;
}

void CheckLayering(const RepoModel& repo, std::vector<Finding>& out) {
  // Restricted modules stay leaves: their headers may be included from
  // inside src/ only where the layer table says so, and from outside src/
  // only by the listed directories.  The core must never grow a dependency
  // on its own failure model.
  static const std::set<std::string> kRestricted = {"fault"};
  static const std::set<std::string> kRestrictedImporterDirs = {
      "bench/", "tools/", "tests/"};
  for (const FileModel& file : repo.files()) {
    const std::string& from = file.module();
    const auto layer = LayerTable().find(from);
    if (!from.empty() && layer == LayerTable().end()) {
      out.push_back(
          {file.path(), 1, "layering",
           "module src/" + from +
               "/ is not in the nblint layer table; add it with an "
               "explicit allowed-dependency list (src/lint/rules.cc)"});
      continue;
    }
    for (const IncludeEdge& inc : file.includes()) {
      if (inc.system || inc.module.empty() || inc.module == from) continue;
      if (!from.empty()) {
        if (layer->second.count(inc.module) > 0) continue;
        std::string allowed;
        for (const std::string& dep : layer->second) {
          if (!allowed.empty()) allowed += ", ";
          allowed += dep + "/";
        }
        if (allowed.empty()) allowed = "no other module";
        out.push_back({file.path(), inc.line, "layering",
                       "layer table forbids src/" + from + "/ including \"" +
                           inc.module + "/...\" (allowed: " + allowed + ")"});
        continue;
      }
      if (kRestricted.count(inc.module) == 0) continue;
      bool allowed_dir = false;
      for (const std::string& dir : kRestrictedImporterDirs) {
        if (file.path().starts_with(dir)) allowed_dir = true;
      }
      if (allowed_dir) continue;
      out.push_back(
          {file.path(), inc.line, "layering",
           "only src/fault/, src/coding/, bench/, tools/, and tests may "
           "include \"fault/...\" headers; the core must not depend on "
           "the fault layer"});
    }
  }
}

// --- require-precondition ---------------------------------------------------

// Declarator tokens that may sit between a Precondition comment and the
// function name it documents: specifiers, attributes, and the return type.
// Anything else (a member variable's '=' or ';', a brace) means the comment
// does not belong to the next recorded function.
bool IsDeclPrefixToken(const Token& t) {
  if (t.kind == TokenKind::kIdentifier) return true;
  static const std::set<std::string> kAllowed = {"::", "<",  ">", ">>", "&",
                                                 "&&", "*",  "[", "]",  ",",
                                                 "~"};
  return kAllowed.count(t.text) > 0;
}

bool BodyCallsRequire(const FileModel& file, const FunctionInfo& fn) {
  if (!fn.is_definition) return false;
  for (std::size_t i = fn.body_begin; i <= fn.body_end &&
                                      i < file.tokens().size();
       ++i) {
    const Token& t = file.tokens()[i];
    if (t.kind == TokenKind::kIdentifier && t.text == "NB_REQUIRE") {
      return true;
    }
  }
  return false;
}

void CheckRequireCoverage(const RepoModel& repo, std::vector<Finding>& out) {
  for (const FileModel& file : repo.files()) {
    if (!IsSrcHeader(file)) continue;
    for (const Token& comment : file.tokens()) {
      if (comment.kind != TokenKind::kComment ||
          comment.text.find("Precondition") == std::string::npos) {
        continue;
      }
      // The first code token after the comment starts the documented
      // declaration; find the function whose name token follows it.
      std::size_t first_code = kNpos;
      for (std::size_t ci = 0; ci < file.code().size(); ++ci) {
        if (Tok(file, ci).offset > comment.offset) {
          first_code = ci;
          break;
        }
      }
      if (first_code == kNpos) continue;
      const FunctionInfo* decl = nullptr;
      for (const FunctionInfo& fn : file.functions()) {
        if (file.tokens()[fn.name_token].offset >=
            Tok(file, first_code).offset) {
          decl = &fn;
          break;
        }
      }
      if (decl == nullptr) continue;
      bool attached = true;
      for (std::size_t ci = first_code; ci < file.code().size() &&
                                        file.code()[ci] < decl->name_token;
           ++ci) {
        if (!IsDeclPrefixToken(Tok(file, ci))) {
          attached = false;
          break;
        }
      }
      if (!attached) continue;
      const bool is_ctor =
          !decl->class_name.empty() && decl->name == decl->class_name;
      const bool is_factory = decl->name.starts_with("Make") ||
                              decl->name.starts_with("Sample");
      if (!is_ctor && !is_factory) continue;
      // Definitions live in the paired .cc or in the header itself.
      std::string cc_path = file.path();
      cc_path.replace(cc_path.size() - 2, 2, ".cc");
      bool found = false;
      bool has_require = false;
      for (const FileModel* candidate :
           {repo.FindFile(cc_path), &file}) {
        if (candidate == nullptr) continue;
        for (const FunctionInfo& fn : candidate->functions()) {
          if (!fn.is_definition || fn.name != decl->name) continue;
          if (is_ctor && fn.class_name != decl->name) continue;
          found = true;
          has_require = has_require || BodyCallsRequire(*candidate, fn);
        }
      }
      if (found && !has_require) {
        out.push_back(
            {file.path(), comment.line, "require-precondition",
             decl->name + " documents a Precondition but its definition "
                          "never calls NB_REQUIRE"});
      }
    }
  }
}

// --- checkpoint-atomicity ---------------------------------------------------

void CheckCheckpointAtomicity(const RepoModel& repo,
                              std::vector<Finding>& out) {
  // tests/ are exempt (the negative tests write deliberately corrupt
  // checkpoints), src/resilience/ owns the sanctioned writer, and
  // src/lint/ names the banned pattern in its own diagnostics.
  for (const FileModel& file : repo.files()) {
    if (file.path().starts_with("src/resilience/") ||
        file.path().starts_with("src/lint/") ||
        file.path().starts_with("tests/")) {
      continue;
    }
    const std::vector<std::size_t>& code = file.code();
    for (std::size_t ci = 2; ci < code.size(); ++ci) {
      if (Tok(file, ci).text != "ofstream" ||
          Tok(file, ci - 1).text != "::" ||
          Tok(file, ci - 2).text != "std") {
        continue;
      }
      const int line = Tok(file, ci - 2).line;
      if (!file.LineMentions(line, "checkpoint") &&
          !file.LineMentions(line, "ckpt")) {
        continue;
      }
      out.push_back(
          {file.path(), line, "checkpoint-atomicity",
           "direct std::ofstream write of a checkpoint path: use "
           "WriteCheckpointAtomic (src/resilience/checkpoint.h) so an "
           "interrupted write can never leave a torn checkpoint"});
    }
  }
}

// --- channel-hot-path -------------------------------------------------------

void CheckChannelHotPath(const RepoModel& repo, std::vector<Finding>& out) {
  // Channel delivery is the Monte Carlo inner loop: one call per noisy
  // round.  A channel draws in DeliverWords, in a shared-draw channel's
  // SharedOutcome, or (for a decorator) in Deliver.  Every draw there goes
  // through util/rng.h's precomputed BernoulliSampler, which is
  // bit-identical to rng.Bernoulli(p) at one integer compare per draw.  A
  // per-sample Bernoulli / UniformDouble() < p re-derives the fixed-point
  // threshold on every draw.
  for (const FileModel& file : repo.files()) {
    if (!file.path().starts_with("src/channel/")) continue;
    for (const FunctionInfo& fn : file.functions()) {
      if (!fn.is_definition ||
          (fn.name != "Deliver" && fn.name != "DeliverWords" &&
           fn.name != "SharedOutcome")) {
        continue;
      }
      const std::vector<std::size_t>& code = file.code();
      for (std::size_t ci = 0; ci < code.size(); ++ci) {
        if (file.code()[ci] <= fn.body_begin) continue;
        if (file.code()[ci] >= fn.body_end) break;
        const Token& t = Tok(file, ci);
        if (t.kind != TokenKind::kIdentifier ||
            (t.text != "UniformDouble" && t.text != "Bernoulli")) {
          continue;
        }
        if (ci > 0 && Tok(file, ci - 1).text == "::") continue;
        out.push_back(
            {file.path(), t.line, "channel-hot-path",
             t.text + " inside a " + fn.name +
                 " implementation: draw through a precomputed "
                 "BernoulliSampler (util/rng.h) -- bit-identical "
                 "stream, no per-draw threshold"});
      }
    }
  }
}

// --- rng-stream-discipline --------------------------------------------------

void CheckRngStreamDiscipline(const RepoModel& repo,
                              std::vector<Finding>& out) {
  // An Rng is a position in one deterministic stream.  Copying it forks the
  // stream: two consumers silently draw identical values, which is exactly
  // the aliasing bug seeded-reproducibility exists to prevent.  Split() is
  // the sanctioned way to derive an independent child.  tests/ are exempt
  // (stream-identity tests copy deliberately), as is util/rng itself.
  for (const FileModel& file : repo.files()) {
    if (file.path() == "src/util/rng.h" || file.path() == "src/util/rng.cc" ||
        file.path().starts_with("tests/")) {
      continue;
    }
    const std::vector<std::size_t>& code = file.code();
    for (std::size_t ci = 0; ci < code.size(); ++ci) {
      const Token& t = Tok(file, ci);
      if (t.kind != TokenKind::kIdentifier || t.text != "Rng") continue;
      if (ci > 0 && Tok(file, ci - 1).text == "::") continue;
      // By-value parameter: (Rng x / , Rng x / , const Rng x, with no & or *.
      std::size_t before = ci;
      if (before > 0 && Tok(file, before - 1).text == "const") --before;
      const bool param_context =
          before > 0 && (Tok(file, before - 1).text == "(" ||
                         Tok(file, before - 1).text == ",");
      if (param_context && ci + 1 < code.size()) {
        const Token& next = Tok(file, ci + 1);
        const bool by_ref = next.text == "&" || next.text == "&&" ||
                            next.text == "*";
        const bool ends_param = next.kind == TokenKind::kIdentifier ||
                                next.text == "," || next.text == ")";
        if (!by_ref && ends_param) {
          out.push_back(
              {file.path(), t.line, "rng-stream-discipline",
               "Rng parameter passed by value: the copy forks the "
               "deterministic stream and both sides draw identical values; "
               "pass Rng& (or hand the callee rng.Split())"});
          continue;
        }
      }
      // Copy-initialisation from another Rng: Rng a = b; / Rng a{b};
      if (ci + 4 < code.size() &&
          Tok(file, ci + 1).kind == TokenKind::kIdentifier) {
        const std::string& open = Tok(file, ci + 2).text;
        const std::string& close = Tok(file, ci + 4).text;
        const Token& source = Tok(file, ci + 3);
        const bool copy_form = (open == "=" && close == ";") ||
                               (open == "{" && close == "}");
        if (copy_form && source.kind == TokenKind::kIdentifier &&
            repo.TypeOf(file, source.text) == "Rng") {
          out.push_back(
              {file.path(), t.line, "rng-stream-discipline",
               "copying an Rng forks its stream: derive an independent "
               "child with " +
                   source.text + ".Split() instead of copy-construction"});
        }
      }
    }
  }
}

// --- float-equality ---------------------------------------------------------

bool IsFloatTyped(const RepoModel& repo, const FileModel& file,
                  const Token& t) {
  if (IsFloatLiteral(t)) return true;
  if (t.kind != TokenKind::kIdentifier) return false;
  const std::string type = repo.TypeOf(file, t.text);
  return type == "double" || type == "float";
}

void CheckFloatEquality(const RepoModel& repo, std::vector<Finding>& out) {
  // The analysis and ECC layers compute with rounded doubles (empirical
  // rates, thresholds, code rates); exact ==/!= there is either dead
  // (never true) or a latent tolerance bug.
  for (const FileModel& file : repo.files()) {
    if (!file.path().starts_with("src/analysis/") &&
        !file.path().starts_with("src/ecc/")) {
      continue;
    }
    const std::vector<std::size_t>& code = file.code();
    for (std::size_t ci = 1; ci + 1 < code.size(); ++ci) {
      const Token& op = Tok(file, ci);
      if (op.text != "==" && op.text != "!=") continue;
      const Token& lhs = Tok(file, ci - 1);
      std::size_t ri = ci + 1;
      if ((Tok(file, ri).text == "-" || Tok(file, ri).text == "+") &&
          ri + 1 < code.size()) {
        ++ri;
      }
      const Token& rhs = Tok(file, ri);
      if (!IsFloatTyped(repo, file, lhs) && !IsFloatTyped(repo, file, rhs)) {
        continue;
      }
      out.push_back(
          {file.path(), op.line, "float-equality",
           "floating-point values compared with " + op.text +
               ": rounding makes exact equality meaningless here; compare "
               "|a - b| against an explicit tolerance"});
    }
  }
}

// --- locale-formatting ------------------------------------------------------

// True when `fmt` contains a printf floating-point conversion (%f %e %g %a
// and friends), i.e. output whose decimal point follows the global locale.
bool HasFloatConversion(const std::string& fmt) {
  for (std::size_t i = 0; i < fmt.size(); ++i) {
    if (fmt[i] != '%') continue;
    std::size_t j = i + 1;
    if (j < fmt.size() && fmt[j] == '%') {
      i = j;
      continue;
    }
    while (j < fmt.size() &&
           (std::strchr("-+ #0123456789.*'", fmt[j]) != nullptr)) {
      ++j;
    }
    while (j < fmt.size() && std::strchr("hlLqjzt", fmt[j]) != nullptr) ++j;
    if (j < fmt.size() && std::strchr("fFeEgGaA", fmt[j]) != nullptr) {
      return true;
    }
  }
  return false;
}

void CheckLocaleFormatting(const RepoModel& repo, std::vector<Finding>& out) {
  // Config fingerprints, channel name() strings, and CSV cells must not
  // change spelling with the host locale ("0.5" vs "0,5" breaks checkpoint
  // compatibility and downstream parsing).  FormatDouble (util/format.h)
  // is the canonical, locale-free, round-trippable spelling; this rule
  // flags the locale-dependent paths a double can leak through instead:
  // operator<< into a declared ostream/ostringstream, std::to_string, and
  // printf-family %f/%g.
  static constexpr std::string_view kPrintf[] = {"printf", "fprintf",
                                                 "sprintf", "snprintf"};
  for (const FileModel& file : repo.files()) {
    const bool in_scope = (file.path().starts_with("src/") ||
                           file.path().starts_with("tools/")) &&
                          !file.path().starts_with("src/util/format");
    if (!in_scope) continue;
    const std::vector<std::size_t>& code = file.code();
    for (std::size_t ci = 0; ci < code.size(); ++ci) {
      const Token& t = Tok(file, ci);
      if (t.kind != TokenKind::kIdentifier) continue;

      // ostream << chains rooted at a declared stream variable.
      const std::string root_type = repo.TypeOf(file, t.text);
      if ((root_type == "std::ostringstream" || root_type == "std::ostream") &&
          ci + 1 < code.size() && Tok(file, ci + 1).text == "<<") {
        std::size_t pos = ci + 1;
        while (pos < code.size() && Tok(file, pos).text == "<<") {
          const std::size_t span_begin = pos + 1;
          int depth = 0;
          bool has_call = false;
          std::size_t last_value = kNpos;
          std::size_t k = span_begin;
          for (; k < code.size(); ++k) {
            const std::string& x = Tok(file, k).text;
            if (x == "(") {
              ++depth;
              has_call = true;  // conservatively treat calls as formatted
              continue;
            }
            if (x == ")") {
              if (depth == 0) break;
              --depth;
              continue;
            }
            if (depth > 0) continue;
            if (x == "<<" || x == ";") break;
            if (Tok(file, k).kind == TokenKind::kIdentifier ||
                Tok(file, k).kind == TokenKind::kNumber) {
              last_value = k;
            }
          }
          if (k >= code.size()) break;
          if (!has_call && last_value != kNpos &&
              IsFloatTyped(repo, file, Tok(file, last_value))) {
            out.push_back(
                {file.path(), Tok(file, span_begin).line, "locale-formatting",
                 "streaming a double through operator<< spells the decimal "
                 "point per the global locale; stream "
                 "FormatDouble(value) (util/format.h) instead"});
          }
          if (Tok(file, k).text != "<<") break;
          pos = k;
        }
        continue;
      }

      // std::to_string(double).
      if (t.text == "to_string" && ci >= 2 &&
          Tok(file, ci - 1).text == "::" && Tok(file, ci - 2).text == "std" &&
          ci + 1 < code.size() && Tok(file, ci + 1).text == "(") {
        int depth = 0;
        bool has_call = false;
        std::size_t last_value = kNpos;
        for (std::size_t k = ci + 1; k < code.size(); ++k) {
          const std::string& x = Tok(file, k).text;
          if (x == "(") {
            if (depth > 0) has_call = true;
            ++depth;
            continue;
          }
          if (x == ")" && --depth == 0) break;
          if (depth != 1) continue;
          if (Tok(file, k).kind == TokenKind::kIdentifier ||
              Tok(file, k).kind == TokenKind::kNumber) {
            last_value = k;
          }
        }
        if (!has_call && last_value != kNpos &&
            IsFloatTyped(repo, file, Tok(file, last_value))) {
          out.push_back(
              {file.path(), Tok(file, ci - 2).line, "locale-formatting",
               "std::to_string of a double spells the decimal point per "
               "the global locale; use FormatDouble (util/format.h)"});
        }
        continue;
      }

      // printf-family with a %f/%e/%g/%a conversion -- src/ only: a tool
      // main that never calls setlocale() is guaranteed the "C" locale by
      // the C standard, but library code may run under any host locale.
      if (!file.path().starts_with("src/")) continue;
      for (std::string_view fn : kPrintf) {
        if (t.text != fn) continue;
        if (ci > 0 && Tok(file, ci - 1).text == "::" &&
            (ci < 2 || Tok(file, ci - 2).text != "std")) {
          break;  // some other namespace's printf
        }
        if (ci + 1 >= code.size() || Tok(file, ci + 1).text != "(") break;
        int depth = 0;
        for (std::size_t k = ci + 1; k < code.size(); ++k) {
          const std::string& x = Tok(file, k).text;
          if (x == "(") ++depth;
          if (x == ")" && --depth == 0) break;
          const Token& arg = Tok(file, k);
          if (arg.kind != TokenKind::kString) continue;
          if (HasFloatConversion(StringLiteralText(arg))) {
            out.push_back(
                {file.path(), t.line, "locale-formatting",
                 "printf-style %f/%g formatting of a double spells the "
                 "decimal point per the global locale; format the value "
                 "with FormatDouble (util/format.h) and print the string"});
          }
          break;  // only the format string matters
        }
        break;
      }
    }
  }
}

// --- direct effects: determinism-taint, io-seam-discipline, service-layering
//
// These three rules each report one kind of effect a function body has
// DIRECTLY -- a nondeterminism source, raw file I/O, a socket call --
// outside the one seam allowed to have it.  Callers of a seam (the
// injectable Clock, failpoint::Fs) are clean: only the seam's own bodies
// touch the OS.

enum class Effect {
  kWallClock,      // raw OS clock read
  kReadsEnv,       // getenv, or the util/flags.h environment helpers
  kUnorderedIter,  // iteration over an unordered container
  kPtrToInt,       // reinterpret_cast to an integer
  kRawFileIo,      // fstream construction, fopen/rename, std::filesystem
  kRawSocket,      // BSD socket calls
};

struct EffectSite {
  Effect effect = Effect::kWallClock;
  int line = 0;
  std::string detail;  // "std::chrono::steady_clock::now", "getenv", ...
};

// Identifier-kind tokens that look like calls but are control flow or
// operators.
bool IsCallKeyword(const std::string& name) {
  static const std::set<std::string> kKeywords = {
      "if",       "while",   "for",     "switch",        "catch",
      "sizeof",   "alignof", "alignas", "decltype",      "static_assert",
      "return",   "throw",   "defined", "noexcept",      "typeid",
      "requires", "assert"};
  return kKeywords.count(name) > 0;
}

// Identifier-kind tokens after which `name(` is still an expression --
// they must NOT veto a call the way `Type name(` does.
bool IsExpressionKeyword(const std::string& name) {
  static const std::set<std::string> kKeywords = {
      "return", "throw",  "co_return", "co_yield", "case",
      "new",    "delete", "else",      "do",       "in"};
  return kKeywords.count(name) > 0;
}

bool IsWallClockFree(const std::string& name) {
  return name == "gettimeofday" || name == "clock_gettime" ||
         name == "localtime" || name == "gmtime" || name == "mktime";
}

// Free functions that touch the filesystem directly.  Deliberately not
// "remove": std::remove is also the <algorithm> erase helper.
bool IsRawFileIoFree(const std::string& name) {
  return name == "fopen" || name == "fclose" || name == "fread" ||
         name == "fwrite" || name == "fsync" || name == "fdatasync" ||
         name == "open" || name == "close" || name == "unlink" ||
         name == "rename";
}

// The BSD socket surface.  Only unqualified free calls count: std::bind
// and a connect() method on some class are not transport code.
bool IsRawSocketFree(const std::string& name) {
  return name == "socket" || name == "bind" || name == "listen" ||
         name == "accept" || name == "accept4" || name == "connect" ||
         name == "recv" || name == "send" || name == "recvfrom" ||
         name == "sendto" || name == "recvmsg" || name == "sendmsg" ||
         name == "setsockopt" || name == "getsockopt" ||
         name == "shutdown" || name == "socketpair";
}

// The seams: the only src/ files allowed to read OS time, the
// environment, and the filesystem.
bool IsClockSeamPath(const std::string& path) {
  return path == "src/resilience/clock.h" ||
         path == "src/resilience/clock.cc";
}

bool IsFlagsSeamPath(const std::string& path) {
  return path == "src/util/flags.h" || path == "src/util/flags.cc";
}

bool IsFsSeamPath(const std::string& path) {
  return path == "src/failpoint/fs.h" || path == "src/failpoint/fs.cc";
}

// Every direct effect in `fn`'s body; none for declarations.
std::vector<EffectSite> DirectEffects(const RepoModel& repo,
                                      const FileModel& file,
                                      const FunctionInfo& fn) {
  std::vector<EffectSite> out;
  if (!fn.is_definition || fn.body_begin == kNpos ||
      fn.body_end <= fn.body_begin) {
    return out;
  }
  // The body's code tokens, braces excluded.
  const std::vector<std::size_t>& code = file.code();
  const auto first = std::upper_bound(code.begin(), code.end(), fn.body_begin);
  const std::span<const std::size_t> body(
      first, std::lower_bound(first, code.end(), fn.body_end));
  const auto tok = [&](std::size_t i) -> const Token& {
    return file.tokens()[body[i]];
  };
  const auto add = [&](Effect effect, int line, std::string detail) {
    out.push_back(EffectSite{effect, line, std::move(detail)});
  };

  for (std::size_t i = 0; i < body.size(); ++i) {
    const Token& t = tok(i);

    // reinterpret_cast to a non-pointer target is a pointer-to-integer
    // cast: address values differ across runs (ASLR) and across workers.
    if (t.text == "reinterpret_cast" && i + 1 < body.size() &&
        tok(i + 1).text == "<") {
      bool pointer_target = false;
      for (std::size_t j = i + 2; j < body.size(); ++j) {
        const std::string& text = tok(j).text;
        if (text == ">" || text == ">>") break;
        if (text == "*" || text == "&") pointer_target = true;
      }
      if (!pointer_target) {
        add(Effect::kPtrToInt, t.line, "reinterpret_cast to integer");
      }
      continue;
    }

    // File-stream construction is raw filesystem access even when no
    // method call is visible (RAII open on construction).
    if (t.kind == TokenKind::kIdentifier &&
        (t.text == "ofstream" || t.text == "ifstream" ||
         t.text == "fstream") &&
        i >= 2 && tok(i - 1).text == "::" && tok(i - 2).text == "std") {
      add(Effect::kRawFileIo, t.line, "std::" + t.text);
      continue;
    }

    // Range-for over an unordered container: iteration order is
    // per-process, so anything derived from it is nondeterministic.
    if (t.text == "for" && i + 1 < body.size() && tok(i + 1).text == "(") {
      int depth = 0;
      for (std::size_t j = i + 1; j < body.size(); ++j) {
        const std::string& text = tok(j).text;
        if (text == "(") ++depth;
        if (text == ")" && --depth == 0) break;
        if (text != ":" || depth != 1 || j + 1 >= body.size()) continue;
        std::size_t expr = j + 1;
        while (expr < body.size() &&
               (tok(expr).text == "*" || tok(expr).text == "&")) {
          ++expr;
        }
        if (expr < body.size() && tok(expr).kind == TokenKind::kIdentifier) {
          const std::string type = repo.TypeOf(file, tok(expr).text);
          if (type.starts_with("std::unordered")) {
            add(Effect::kUnorderedIter, tok(expr).line,
                "range-for over " + type + " " + tok(expr).text);
          }
        }
        break;
      }
      continue;
    }

    // Everything else is a call: `callee(`, possibly `A::B::callee(` or
    // `x.callee(`.
    if (t.kind != TokenKind::kIdentifier || i + 1 >= body.size() ||
        tok(i + 1).text != "(" || IsCallKeyword(t.text)) {
      continue;
    }
    std::size_t start = i;
    std::string qualifier;
    while (start >= 2 && tok(start - 1).text == "::" &&
           tok(start - 2).kind == TokenKind::kIdentifier) {
      qualifier = qualifier.empty() ? tok(start - 2).text
                                    : tok(start - 2).text + "::" + qualifier;
      start -= 2;
    }
    const bool member = qualifier.empty() && start > 0 &&
                        (tok(start - 1).text == "." ||
                         tok(start - 1).text == "->");
    const bool free = qualifier.empty() && !member;
    if (free && start > 0) {
      // `Type name(` / `T* name(` / `vector<T> name(` declare, not call.
      const Token& prev = tok(start - 1);
      if ((prev.kind == TokenKind::kIdentifier &&
           !IsExpressionKeyword(prev.text)) ||
          prev.text == ">" || prev.text == ">>" || prev.text == "*" ||
          prev.text == "&") {
        continue;
      }
    }
    const std::string& callee = t.text;
    if (callee == "getenv" || callee == "secure_getenv" ||
        callee == "EnvInt64" || callee == "EnvDouble") {
      add(Effect::kReadsEnv, t.line, callee);
    }
    if (callee == "now" &&
        (qualifier.find("steady_clock") != std::string::npos ||
         qualifier.find("system_clock") != std::string::npos ||
         qualifier.find("high_resolution_clock") != std::string::npos)) {
      add(Effect::kWallClock, t.line, qualifier + "::now");
    }
    if (free && IsWallClockFree(callee)) {
      add(Effect::kWallClock, t.line, callee);
    }
    if (member && (callee == "begin" || callee == "cbegin") && start >= 2 &&
        tok(start - 2).kind == TokenKind::kIdentifier) {
      const std::string type = repo.TypeOf(file, tok(start - 2).text);
      if (type.starts_with("std::unordered")) {
        add(Effect::kUnorderedIter, t.line, type + "::" + callee);
      }
    }
    if (IsRawFileIoFree(callee) && (free || qualifier == "std")) {
      add(Effect::kRawFileIo, t.line, free ? callee : "std::" + callee);
    }
    // std::filesystem::exists / fs::remove / ... (namespace alias included).
    if (qualifier.ends_with("filesystem") || qualifier == "fs") {
      add(Effect::kRawFileIo, t.line, qualifier + "::" + callee);
    }
    if (free && IsRawSocketFree(callee)) {
      add(Effect::kRawSocket, t.line, callee);
    }
  }
  return out;
}

// Calls `report(path, fn_name, site)` for every direct effect in the
// definitions of the files whose path `in_scope` accepts.
template <typename InScope, typename Report>
void ForEachEffect(const RepoModel& repo, InScope in_scope, Report report) {
  for (const FileModel& file : repo.files()) {
    if (!in_scope(file.path())) continue;
    for (const FunctionInfo& fn : file.functions()) {
      const std::string fn_name =
          fn.class_name.empty() ? fn.name : fn.class_name + "::" + fn.name;
      for (const EffectSite& site : DirectEffects(repo, file, fn)) {
        report(file.path(), fn_name, site);
      }
    }
  }
}

// --- determinism-taint ------------------------------------------------------

void CheckDeterminismTaint(const RepoModel& repo, std::vector<Finding>& out) {
  // Each nondeterminism source, the seam (if any) where src/ may use it,
  // and what to do instead.
  struct Source {
    Effect effect;
    bool (*is_seam)(const std::string& path);
    std::string_view what;
    std::string_view advice;
  };
  static constexpr Source kSources[] = {
      {Effect::kWallClock, IsClockSeamPath, "raw wall-clock read",
       "src/ must go through the injectable Clock in src/resilience/clock.h "
       "so replay stays deterministic"},
      {Effect::kReadsEnv, IsFlagsSeamPath, "environment read",
       "src/ reads the environment only inside src/util/flags.*; take the "
       "value as a parameter so the result stays a function of its inputs"},
      {Effect::kUnorderedIter, nullptr, "unordered-container iteration",
       "its order can differ between processes and standard libraries; "
       "iterate the input or an ordered container instead"},
      {Effect::kPtrToInt, nullptr, "pointer-to-integer cast",
       "addresses differ across runs (ASLR) and workers, so nothing derived "
       "from them replays"},
  };
  ForEachEffect(
      repo, [](const std::string& path) { return path.starts_with("src/"); },
      [&](const std::string& path, const std::string& fn_name,
          const EffectSite& site) {
        for (const Source& source : kSources) {
          if (source.effect != site.effect ||
              (source.is_seam != nullptr && source.is_seam(path))) {
            continue;
          }
          out.push_back({path, site.line, "determinism-taint",
                         std::string(source.what) + " (" + site.detail +
                             ") in " + fn_name + "; " +
                             std::string(source.advice)});
        }
      });
}

// --- io-seam-discipline -----------------------------------------------------

void CheckIoSeamDiscipline(const RepoModel& repo, std::vector<Finding>& out) {
  // bench/ is in scope too: a benchmark that writes files skews the
  // numbers it reports.  tools/ stay exempt -- reading trees and writing
  // reports is their whole job.
  ForEachEffect(
      repo,
      [](const std::string& path) {
        return (path.starts_with("src/") || path.starts_with("bench/")) &&
               !IsFsSeamPath(path);
      },
      [&](const std::string& path, const std::string& fn_name,
          const EffectSite& site) {
        if (site.effect != Effect::kRawFileIo) return;
        out.push_back(
            {path, site.line, "io-seam-discipline",
             "raw filesystem access (" + site.detail + ") in " + fn_name +
                 "; src/ must go through the injectable failpoint::Fs seam "
                 "in src/failpoint/fs.h so I/O faults stay injectable (and "
                 "bench/ must not do file I/O at all)"});
      });
}

// --- service-layering -------------------------------------------------------

void CheckServiceLayering(const RepoModel& repo, std::vector<Finding>& out) {
  // Unlike io-seam-discipline there is NO exempt seam in src/: no library
  // file may speak a transport.  The one sanctioned home for socket calls
  // is the nbserved front-end.
  ForEachEffect(
      repo,
      [](const std::string& path) {
        return path.starts_with("src/") || path.starts_with("bench/") ||
               (path.starts_with("tools/") && path != "tools/nbserved.cc");
      },
      [&](const std::string& path, const std::string& fn_name,
          const EffectSite& site) {
        if (site.effect != Effect::kRawSocket) return;
        out.push_back(
            {path, site.line, "service-layering",
             "raw socket call (" + site.detail + ") in " + fn_name +
                 "; transport lives only in the nbserved front-end "
                 "(tools/nbserved.cc) -- everything else must stay behind "
                 "the transport-agnostic service core API (src/service/)"});
      });
}

// --- the registry -----------------------------------------------------------

SourceFile F(std::string path, std::string content) {
  return SourceFile{std::move(path), std::move(content)};
}

std::vector<Rule> BuildRegistry() {
  std::vector<Rule> rules;
  rules.push_back(Rule{
      "banned-random", Severity::kError, "determinism",
      "All randomness must flow through the seeded, splittable Rng in "
      "util/rng.h; <random>, rand(), and friends are banned elsewhere.",
      CheckBannedRandomness,
      {F("src/analysis/fixture.cc", "int Draw() { return std::rand(); }\n")},
      "The paper's guarantees are statements about distributions over "
      "transcripts, so every trial must replay bit-identically from its "
      "seed.  A stray rand() or thread-local <random> engine breaks "
      "replay silently; funnelling every draw through Rng keeps the "
      "whole experiment a pure function of the seed."});
  rules.push_back(Rule{
      "channel-hot-path", Severity::kError, "performance",
      "Channel Deliver, DeliverWords and SharedOutcome bodies must draw "
      "through the precomputed BernoulliSampler in util/rng.h, not "
      "per-sample UniformDouble()/Bernoulli().",
      CheckChannelHotPath,
      {F("src/channel/fixture_deliver.cc",
         "struct Chan {\n"
         "  bool Deliver(double p) { return rng_.Bernoulli(p); }\n"
         "};\n"),
       F("src/channel/fixture_words.cc",
         "struct Chan {\n"
         "  void DeliverWords(double p) {\n"
         "    if (rng_.Bernoulli(p)) bits_ ^= 1;\n"
         "  }\n"
         "};\n"),
       F("src/channel/fixture_shared.cc",
         "struct Chan {\n"
         "  bool SharedOutcome(double p) { return rng_.UniformDouble() < p; }\n"
         "};\n")},
      "Delivery runs once per round per trial -- billions of times in a "
      "sweep.  A stream-identical fixed-point sampler keeps each draw one "
      "integer compare; this rule keeps per-sample floating-point draws "
      "from creeping back into any of the three functions a channel draws "
      "in."});
  rules.push_back(Rule{
      "checkpoint-atomicity", Severity::kError, "robustness",
      "Checkpoint files must be written via WriteCheckpointAtomic "
      "(temp file + rename), never a direct std::ofstream.",
      CheckCheckpointAtomicity,
      {F("src/tasks/fixture.cc",
         "#include <fstream>\n"
         "void Save() { std::ofstream out(\"trial.ckpt\"); }\n")},
      "A checkpoint torn by a crash mid-write is worse than none: "
      "resume would replay from corrupt state.  Temp-file-plus-rename "
      "makes the visible file transition atomic on POSIX."});
  rules.push_back(Rule{
      "determinism-taint", Severity::kWarn, "determinism",
      "No nondeterminism source in src/: raw wall clocks outside "
      "src/resilience/clock.*, environment reads outside src/util/flags.*, "
      "unordered-container iteration, or pointer-to-integer casts.",
      CheckDeterminismTaint,
      {F("src/analysis/fixture.cc",
         "#include <chrono>\n"
         "namespace noisybeeps {\n"
         "long StampNow() {\n"
         "  return "
         "std::chrono::steady_clock::now().time_since_epoch().count();\n"
         "}\n"
         "}  // namespace noisybeeps\n")},
      "Replay guarantees (bit-identical trials across worker counts, "
      "bit-identical kill-and-resume) hold only if checkpoint payloads, "
      "RunReport fingerprints, golden transcripts, and derived seeds are "
      "functions of the seeded Rng alone.  The rule keeps every source of "
      "nondeterminism out of src/, so no caller can reach one: OS time "
      "comes only through the injectable Clock seam and the environment "
      "only through util/flags.  Rng draws and Clock callers are "
      "sanctioned boundaries, not sources."});
  rules.push_back(Rule{
      "float-equality", Severity::kWarn, "numerics",
      "No ==/!= between floating-point expressions in src/analysis/ and "
      "src/ecc/; compare against an explicit tolerance.",
      CheckFloatEquality,
      {F("src/analysis/fixture.cc",
         "bool Same(double a, double b) { return a == b; }\n")},
      "Estimator and bound computations accumulate rounding error; exact "
      "comparison turns harmless last-ulp drift into logic divergence.  "
      "An explicit tolerance documents the intended precision."});
  rules.push_back(Rule{
      "header-guard", Severity::kError, "style",
      "src/ headers carry NOISYBEEPS_<PATH>_H_ include guards.",
      CheckHeaderGuard,
      {F("src/util/fixture.h",
         "#ifndef WRONG_GUARD\n#define WRONG_GUARD\n#endif\n")},
      "Path-derived guards cannot collide as files move or multiply, and "
      "uniformity makes the guard mechanical to audit."});
  rules.push_back(Rule{
      "include-cycle", Severity::kError, "architecture",
      "The src/ module include graph must stay acyclic.",
      CheckIncludeCycles,
      {F("src/ecc/fixture.h", "#include \"channel/fixture.h\"\n"),
       F("src/channel/fixture.h", "#include \"ecc/fixture.h\"\n")},
      "A cycle between modules means neither can be understood, tested, "
      "or replaced alone.  Acyclicity is what makes the layer table "
      "meaningful."});
  rules.push_back(Rule{
      "io-seam-discipline", Severity::kWarn, "robustness",
      "No raw filesystem access (fstream construction, fopen/fsync/rename, "
      "std::filesystem calls) in src/ or bench/ outside the injectable "
      "failpoint::Fs seam in src/failpoint/fs.*.",
      CheckIoSeamDiscipline,
      {F("src/analysis/fixture.cc",
         "#include <fstream>\n"
         "namespace noisybeeps {\n"
         "void SaveStats() { std::ofstream out(\"stats.txt\"); }\n"
         "}  // namespace noisybeeps\n")},
      "The resilience layer's crash-consistency promises are only "
      "testable because every byte it moves goes through the Fs seam, "
      "where a deterministic FailPlan can make the disk fill, tear, or "
      "rot on demand.  A raw fstream or rename elsewhere in src/ is I/O "
      "the chaos layer can never fault -- an untested failure path by "
      "construction.  Callers of the seam are clean; only its own bodies "
      "touch the disk.  bench/ is in scope too (a benchmark that writes "
      "files skews what it measures); tools/ stay exempt because reading "
      "trees and writing reports is their whole job."});
  rules.push_back(Rule{
      "layering", Severity::kError, "architecture",
      "Every src/ module's dependencies must match the declarative layer "
      "table; restricted modules (fault/) are importable only where "
      "listed.",
      CheckLayering,
      {F("src/protocol/fixture.cc", "#include \"fault/fault_plan.h\"\n")},
      "The simulator's layering is a reviewed decision, not an accident "
      "of #includes: adding a dependency means editing the table in "
      "src/lint/rules.cc where the change is visible in review."});
  rules.push_back(Rule{
      "locale-formatting", Severity::kError, "portability",
      "Doubles in name()/fingerprint/CSV paths must be formatted with "
      "FormatDouble (util/format.h), not locale-dependent <<, "
      "std::to_string, or printf %f/%g.",
      CheckLocaleFormatting,
      {F("src/analysis/fixture.cc",
         "#include <sstream>\n"
         "std::string Name(double eps) {\n"
         "  std::ostringstream os;\n"
         "  os << eps;\n"
         "  return os.str();\n"
         "}\n")},
      "A German locale renders 0.1 as \"0,1\": experiment names, CSV "
      "rows, and fingerprints silently change meaning on another "
      "machine.  FormatDouble pins the 'C' locale and round-trips."});
  rules.push_back(Rule{
      "raw-thread", Severity::kError, "determinism",
      "No std::thread/std::jthread/std::async/pthread_create outside "
      "src/util/parallel.h; ParallelTrials is the concurrency primitive.",
      CheckRawThreads,
      {F("src/tasks/fixture.cc",
         "#include <thread>\nvoid Go() { std::thread t; }\n")},
      "ParallelTrials guarantees the worker count cannot affect results "
      "by deriving per-trial Rngs up front.  Ad-hoc threads re-open "
      "every scheduling-dependent nondeterminism the primitive closed."});
  rules.push_back(Rule{
      "require-precondition", Severity::kError, "contracts",
      "A constructor or Make*/Sample* factory documenting a Precondition "
      "must call NB_REQUIRE in its definition.",
      CheckRequireCoverage,
      {F("src/util/fixture.h",
         "#ifndef NOISYBEEPS_UTIL_FIXTURE_H_\n"
         "#define NOISYBEEPS_UTIL_FIXTURE_H_\n"
         "struct Widget { int n = 0; };\n"
         "// Precondition: n > 0.\n"
         "Widget MakeWidget(int n);\n"
         "#endif  // NOISYBEEPS_UTIL_FIXTURE_H_\n"),
       F("src/util/fixture.cc",
         "#include \"util/fixture.h\"\n"
         "Widget MakeWidget(int n) { return Widget{n}; }\n")},
      "A documented precondition that is not checked is a trap for the "
      "next caller: violations surface as corrupt statistics long after "
      "the bad argument.  NB_REQUIRE turns them into immediate, "
      "attributable failures."});
  rules.push_back(Rule{
      "rng-stream-discipline", Severity::kError, "determinism",
      "Rng is a stream position: no by-value Rng parameters and no Rng "
      "copies outside Split(); a copy silently forks the stream.",
      CheckRngStreamDiscipline,
      {F("src/tasks/fixture.cc",
         "#include \"util/rng.h\"\nvoid Run(Rng rng);\n")},
      "Copying an Rng duplicates its stream position: two call sites "
      "draw identical values that should have been independent, and the "
      "determinism audit cannot see it.  Split() is the one sanctioned "
      "way to fork."});
  rules.push_back(Rule{
      "service-layering", Severity::kWarn, "robustness",
      "No raw BSD socket calls (socket/bind/listen/accept/connect/...) in "
      "src/, bench/, or tools/ outside tools/nbserved.cc; transport lives "
      "only in the nbserved front-end, behind the transport-agnostic "
      "service core API in src/service/.",
      CheckServiceLayering,
      {F("src/analysis/fixture.cc",
         "#include <sys/socket.h>\n"
         "namespace noisybeeps {\n"
         "int OpenControl() { return socket(AF_UNIX, SOCK_STREAM, 0); }\n"
         "}  // namespace noisybeeps\n")},
      "The service core's robustness behaviours -- admission, shedding, "
      "deadlines, caching, drain -- are provable only because they run "
      "in-process under deterministic tests and the crash oracle.  A "
      "socket call inside src/ couples that logic to a transport the "
      "harness cannot drive, so every overload and crash path behind it "
      "goes untested.  Unlike the Fs and Clock seams there is no "
      "sanctioned socket seam: bytes-on-the-wire belong exclusively to "
      "tools/nbserved.cc."});
  rules.push_back(Rule{
      "suppression-justification", Severity::kError, "suppressions",
      "Every NBLINT suppression must carry a non-empty justification; an "
      "unjustified suppression suppresses nothing and is itself reported.",
      nullptr,
      {F("src/analysis/fixture.cc",
         "int Draw() { return std::rand(); }  // NBLINT(banned-random):\n")},
      "Silencing a finding must never be cheaper than fixing it.  The "
      "justification is the reviewable artifact: it states why this one "
      "site is exempt."});
  rules.push_back(Rule{
      "suppression-unknown-rule", Severity::kError, "suppressions",
      "An NBLINT suppression naming a rule id that does not exist is "
      "reported loudly instead of silently ignored.",
      nullptr,
      {F("src/analysis/fixture.cc",
         "int Zero() { return 0; }  // NBLINT(no-such-rule): spurious\n")},
      "A typo'd rule id would otherwise leave the author believing a "
      "finding is handled while the engine ignores the comment."});
  return rules;
}

}  // namespace

std::string_view SeverityName(Severity severity) {
  return severity == Severity::kError ? "error" : "warn";
}

const std::vector<Rule>& AllRules() {
  static const std::vector<Rule> kRules = BuildRegistry();
  return kRules;
}

const Rule* FindRule(std::string_view id) {
  for (const Rule& rule : AllRules()) {
    if (rule.id == id) return &rule;
  }
  return nullptr;
}

}  // namespace noisybeeps::lint
