// nblint: the project's custom static checker (see src/lint/lint.h for the
// engine and src/lint/rules.cc for the rule registry).  Registered as a
// ctest so every build gates on the repo linting clean.
//
// Usage:
//   nblint --root=/path/to/repo            text findings
//   nblint --root=. --json | --sarif       machine-readable findings
//   nblint --root=. --baseline=tools/nblint_baseline.json
//                                          fail on NEW warn findings only
//   nblint --root=. --write-baseline=tools/nblint_baseline.json
//                                          refresh the baseline
//   nblint --list-rules                    the rule registry, one per line
//   nblint --explain=<rule-id>             id, severity, category,
//                                          rationale, suppression example
//
// Exit status: 0 when no error-severity findings remain (warnings do not
// fail the build) and, with --baseline, no unbaselined warn findings
// appear; 1 otherwise; 2 on usage/IO errors.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/lint.h"
#include "util/flags.h"

namespace {

namespace fs = std::filesystem;
using noisybeeps::lint::Finding;
using noisybeeps::lint::Rule;
using noisybeeps::lint::Severity;
using noisybeeps::lint::SourceFile;

bool IsLintableSource(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp";
}

std::vector<SourceFile> LoadTree(const fs::path& root) {
  std::vector<fs::path> paths;
  for (const char* dir : {"src", "tools", "tests", "examples", "bench"}) {
    const fs::path base = root / dir;
    if (!fs::is_directory(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (entry.is_regular_file() && IsLintableSource(entry.path())) {
        paths.push_back(entry.path());
      }
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<SourceFile> files;
  files.reserve(paths.size());
  for (const fs::path& path : paths) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::cerr << "nblint: cannot read " << path << "\n";
      continue;
    }
    std::ostringstream content;
    content << in.rdbuf();
    files.push_back(SourceFile{
        fs::relative(path, root).generic_string(), content.str()});
  }
  return files;
}

std::string ReadFileOrEmpty(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

bool WriteFile(const fs::path& path, const std::string& content) {
  if (path.has_parent_path()) {
    std::error_code ec;
    fs::create_directories(path.parent_path(), ec);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

int Explain(const std::string& rule_id) {
  const Rule* rule = noisybeeps::lint::FindRule(rule_id);
  if (rule == nullptr) {
    std::cerr << "nblint: unknown rule '" << rule_id
              << "' (try --list-rules)\n";
    return 2;
  }
  std::cout << rule->id << "\n"
            << "  severity: " << SeverityName(rule->severity) << "\n"
            << "  category: " << rule->category << "\n"
            << "  summary:  " << rule->summary << "\n";
  if (!rule->rationale.empty()) {
    std::cout << "  rationale: " << rule->rationale << "\n";
  }
  std::cout << "  suppress: offending code;  // NBLINT(" << rule->id
            << "): <why this one site is acceptable>\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    noisybeeps::Flags flags(argc, argv);
    const std::string root = flags.GetString("root", ".");
    const bool json = flags.GetBool("json", false);
    const bool sarif = flags.GetBool("sarif", false);
    const bool list_rules = flags.GetBool("list-rules", false);
    const std::string explain = flags.GetString("explain", "");
    const std::string baseline_path = flags.GetString("baseline", "");
    const std::string write_baseline = flags.GetString("write-baseline", "");
    for (const std::string& unknown : flags.UnconsumedFlags()) {
      std::cerr << "nblint: unknown flag --" << unknown << "\n";
      return 2;
    }
    if (json && sarif) {
      std::cerr << "nblint: --json and --sarif are mutually exclusive\n";
      return 2;
    }
    if (list_rules) {
      for (const Rule& rule : noisybeeps::lint::AllRules()) {
        std::cout << rule.id << " [" << SeverityName(rule.severity) << ", "
                  << rule.category << "] " << rule.summary << "\n";
      }
      return 0;
    }
    if (!explain.empty()) return Explain(explain);

    const std::vector<SourceFile> files = LoadTree(fs::path(root));
    if (files.empty()) {
      std::cerr << "nblint: no sources found under " << root << "\n";
      return 2;
    }

    const std::vector<Finding> findings =
        noisybeeps::lint::RunAllChecks(files);

    if (!write_baseline.empty() &&
        !WriteFile(write_baseline,
                   noisybeeps::lint::FormatBaseline(findings))) {
      std::cerr << "nblint: cannot write baseline " << write_baseline
                << "\n";
      return 2;
    }

    std::size_t errors = 0;
    for (const Finding& f : findings) {
      if (f.severity == Severity::kError) ++errors;
    }
    std::vector<Finding> fresh;
    if (!baseline_path.empty()) {
      fresh = NewFindings(findings,
                          noisybeeps::lint::ParseBaseline(
                              ReadFileOrEmpty(baseline_path)));
    }

    if (json) {
      std::cout << noisybeeps::lint::FormatJson(findings);
    } else if (sarif) {
      std::cout << noisybeeps::lint::FormatSarif(findings);
    } else {
      std::cout << noisybeeps::lint::FormatText(findings);
    }
    std::ostream& log = (json || sarif) ? std::cerr : std::cout;
    log << "nblint: " << files.size() << " files, " << findings.size()
        << " finding(s), " << errors << " error(s)\n";
    if (!fresh.empty()) {
      std::cerr << "nblint: " << fresh.size()
                << " warn finding(s) not in baseline " << baseline_path
                << " (fix them or refresh with --write-baseline):\n"
                << noisybeeps::lint::FormatText(fresh);
    }
    return errors == 0 && fresh.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "nblint: " << e.what() << "\n";
    return 2;
  }
}
