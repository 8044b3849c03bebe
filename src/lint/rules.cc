#include "lint/rules.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <utility>

#include "lint/taint.h"

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

}  // namespace

// The declarative module-layer table: every src/ module appears here with
// the exact set of sibling modules it may include.  Adding a module or a
// dependency means editing this table -- which is the point: the layering
// of the simulator is a reviewed decision, not an accident of #includes.
// Declared in rules.h so layering-reachability (taint.cc) can close it
// transitively.
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

namespace {

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
  // through a precomputed sampler from util/rng.h: BernoulliSampler is
  // bit-identical to rng.Bernoulli(p) at one integer compare per draw, and
  // BernoulliWordSampler / GeometricSkipSampler batch the fast word mode.
  // A per-sample Bernoulli / UniformDouble() < p re-derives the
  // fixed-point threshold on every draw, and in the word path restores the
  // per-bit cost the batching exists to avoid.
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
                 "BernoulliSampler / BernoulliWordSampler / "
                 "GeometricSkipSampler (util/rng.h) -- bit-identical "
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
      "through the precomputed samplers in util/rng.h, not per-sample "
      "UniformDouble()/Bernoulli().",
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
      "sweep -- and a fast word round covers a million listeners in "
      "thousands of draws.  Stream-identical fixed-point samplers and "
      "batched word sampling are what keep it that cheap; this rule keeps "
      "per-sample floating-point draws from creeping back into any of the "
      "three functions a channel draws in."});
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
      "Whole-program: no call path from a determinism-critical sink "
      "(checkpoint payloads, fingerprints, transcripts, digests, seed "
      "derivation) may reach a nondeterminism source (raw wall clock, "
      "getenv, unordered-container iteration, pointer-to-integer casts); "
      "raw clocks are confined to src/resilience/clock.",
      nullptr,
      {F("src/analysis/fixture.cc",
         "#include <chrono>\n"
         "namespace noisybeeps {\n"
         "long StampNow() {\n"
         "  return "
         "std::chrono::steady_clock::now().time_since_epoch().count();\n"
         "}\n"
         "long ReportFingerprint() { return StampNow(); }\n"
         "}  // namespace noisybeeps\n")},
      "Replay guarantees (bit-identical trials across worker counts, "
      "bit-identical kill-and-resume) hold only if checkpoint payloads, "
      "RunReport fingerprints, golden transcripts, and derived seeds are "
      "functions of the seeded Rng alone.  Per-file rules cannot see a "
      "helper three calls down reading the clock; the call-graph closure "
      "can, and the diagnostic carries the full witness path.  Rng draws "
      "and the injectable Clock are sanctioned boundaries, not sources.",
      CheckDeterminismTaint});
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
      "int-narrowing-at-boundary", Severity::kWarn, "correctness",
      "Whole-program: implicit int64 -> int32 narrowing at assignment, "
      "return, and call boundaries (judged against the resolved callee's "
      "declared parameter width) must be dominated by an NB_REQUIRE range "
      "guard naming the value.",
      nullptr,
      {F("src/analysis/fixture.cc",
         "#include <cstdint>\n"
         "namespace noisybeeps {\n"
         "std::int32_t ClipCount(std::int64_t total) {\n"
         "  std::int32_t small = 0;\n"
         "  small = total;\n"
         "  return small;\n"
         "}\n"
         "}  // namespace noisybeeps\n")},
      "Trial counts and payload sizes are 64-bit at the boundaries, but "
      "older call sites still traffic in int.  An implicit truncation is "
      "silent until a sweep crosses 2^31 trials and statistics quietly "
      "wrap.  The CFG-level check accepts a dominating NB_REQUIRE that "
      "names the value -- the repo's idiom for 'this range was thought "
      "about' -- and otherwise asks for an explicit checked cast.",
      CheckIntNarrowing});
  rules.push_back(Rule{
      "io-seam-discipline", Severity::kWarn, "robustness",
      "Whole-program: no raw filesystem access (fstream construction, "
      "fopen/fsync/rename, std::filesystem calls) in src/ or bench/ "
      "outside the injectable failpoint::Fs seam in src/failpoint/fs.*.",
      nullptr,
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
      "construction.  The seam itself is the third sanctioned hole in "
      "the effect closure, beside locks and wall-clock.  bench/ is in "
      "scope too (a benchmark that writes files skews what it measures); "
      "tools/ stay exempt because reading trees and writing reports is "
      "their whole job.",
      CheckIoSeamDiscipline});
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
      "layering-reachability", Severity::kWarn, "architecture",
      "Whole-program: every resolved cross-module call edge must stay "
      "within the transitive closure of the layer table, catching "
      "dependencies no direct #include witnesses.",
      nullptr,
      {F("src/util/fixture.cc",
         "namespace noisybeeps {\n"
         "int TaskCount();\n"
         "int UtilThing() { return TaskCount(); }\n"
         "}  // namespace noisybeeps\n"),
       F("src/tasks/fixture.cc",
         "namespace noisybeeps {\n"
         "int TaskCount() { return 3; }\n"
         "}  // namespace noisybeeps\n")},
      "A module can reach another through a forward declaration or a "
      "same-module header that re-exports the symbol -- no #include "
      "edge, so the per-file layering rule is blind to it.  Checking "
      "resolved call edges against the closed layer table catches the "
      "dependency where it actually flows.  Method-union edges are "
      "skipped: a guessed receiver class must not invent an "
      "architecture violation.",
      CheckLayeringReachability});
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
      "lockset-discipline", Severity::kWarn, "concurrency",
      "Whole-program: functions reachable from ParallelForEach / "
      "ParallelTrials worker bodies must hold a lock on EVERY CFG path "
      "that reaches a write of namespace-scope or static state; use the "
      "per-worker accumulator + Merge pattern.",
      nullptr,
      {F("src/analysis/fixture.cc",
         "namespace noisybeeps {\n"
         "int g_hits = 0;\n"
         "void Bump() { g_hits += 1; }\n"
         "void Sweep() {\n"
         "  ParallelForEach(8, [](int i) { Bump(); });\n"
         "}\n"
         "}  // namespace noisybeeps\n")},
      "A data race in a worker body is both undefined behaviour and a "
      "determinism leak: results depend on interleaving.  The repo's "
      "pattern -- each worker fills its own accumulator, the caller "
      "Merges sequentially -- makes races structurally impossible.  The "
      "flow-sensitive successor of v3's shared-state-discipline: a "
      "must-lockset analysis walks each reachable function's CFG, so a "
      "helper that guards the write on every path (RAII guard in scope, "
      "manual lock()/unlock()) is clean, while an early-return path that "
      "skips the guard is caught -- v3 could see neither.",
      CheckLocksetDiscipline});
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
      "rng-draw-parity", Severity::kError, "determinism",
      "Whole-program: in src/channel/, the arms of a WordMode-conditioned "
      "branch must consume identical numbers of Rng draws on every CFG "
      "path, or the stream-compat and fast modes diverge after one round.",
      nullptr,
      {F("src/channel/fixture.cc",
         "#include \"util/rng.h\"\n"
         "namespace noisybeeps {\n"
         "enum class WordMode { kStreamCompat, kFast };\n"
         "struct WordChan {\n"
         "  WordMode mode_ = WordMode::kFast;\n"
         "  Rng rng_;\n"
         "  unsigned Step() {\n"
         "    if (mode_ == WordMode::kStreamCompat) {\n"
         "      unsigned a = rng_.NextU64() & 1u;\n"
         "      unsigned b = rng_.NextU64() & 1u;\n"
         "      return a ^ b;\n"
         "    }\n"
         "    return rng_.NextU64() & 3u;\n"
         "  }\n"
         "};\n"
         "}  // namespace noisybeeps\n")},
      "The word-parallel channel keeps two sampling modes that must stay "
      "stream-compatible: kStreamCompat replays the scalar draw sequence, "
      "kFast batches it.  Equality of per-round RESULTS is tested, but if "
      "the two arms consume different numbers of draws the modes diverge "
      "from the second round on, and every cross-mode replay comparison "
      "silently lies -- exactly PR 9's burst double-advance bug, where "
      "the compat arm advanced the stream twice per round.  The CFG pass "
      "enumerates each arm's paths and compares the sets of distinct "
      "draw-site counts; designs that route both arms through one shared "
      "sampler call pass by construction.",
      CheckRngDrawParity});
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
      "Whole-program: no raw BSD socket calls (socket/bind/listen/accept/"
      "connect/...) in src/, bench/, or tools/ outside tools/nbserved.cc; "
      "transport lives only in the nbserved front-end, behind the "
      "transport-agnostic service core API in src/service/.",
      nullptr,
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
      "tools/nbserved.cc.",
      CheckServiceLayering});
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
