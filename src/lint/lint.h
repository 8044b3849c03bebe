// nblint: project-specific static checks for the noisybeeps sources.
//
// The checker is built in two stages.  Stage one (token.h, model.h) lexes
// every file into a classified token stream and derives a lightweight
// structural model: function/class boundaries, qualified names, declared
// value types, and the src/ module include graph.  Stage two (rules.h) is
// a registry of rules -- each with an id, a severity, a category, and a
// firing fixture -- that run over the model.  This header is the engine
// that ties them together: it runs the rules, applies inline suppressions,
// and renders findings as text, JSON, or SARIF 2.1.0.
//
// Suppressions.  A finding can be silenced for one line with
//
//     offending code;  // NBLINT(rule-id): why this is acceptable
//
// A suppression comment on its own line targets the NEXT line; trailing a
// statement it targets its own line.  The justification is mandatory: an
// empty one suppresses nothing and is reported as
// `suppression-justification`, and a rule id that does not exist is
// reported as `suppression-unknown-rule`.  Silencing must never be
// cheaper than fixing.
//
// The checks operate on file CONTENTS handed in by the caller (the nblint
// tool reads the tree; the unit tests feed synthetic files).  Findings
// print as "file:line: severity: rule-id: message", as JSON via --json, or
// as SARIF via --sarif.
#ifndef NOISYBEEPS_LINT_LINT_H_
#define NOISYBEEPS_LINT_LINT_H_

#include <string>
#include <vector>

#include "lint/model.h"
#include "lint/rules.h"

namespace noisybeeps::lint {

// One parsed NBLINT comment.
struct Suppression {
  std::string file;
  int comment_line = 0;  // where the NBLINT comment sits
  int target_line = 0;   // the line whose findings it silences
  std::string rule_id;
  std::string justification;

  friend bool operator==(const Suppression& a, const Suppression& b) =
      default;
};

// All NBLINT suppressions in one file, in order of appearance.  Malformed
// markers (no closing parenthesis) come back with an empty rule_id so the
// engine can report them instead of dropping them.
[[nodiscard]] std::vector<Suppression> CollectSuppressions(
    const FileModel& file);

// Runs a single rule over `files` with NO suppression processing --
// what rule unit tests want.  Engine-implemented rules (run == nullptr)
// yield no findings here; exercise those through RunAllChecks.  Findings
// carry the rule's severity and are sorted.
[[nodiscard]] std::vector<Finding> RunRule(
    const Rule& rule, const std::vector<SourceFile>& files);

// The full engine: every registered rule over every file, suppressions
// applied, suppression findings added, sorted by (file, line, rule,
// message).
[[nodiscard]] std::vector<Finding> RunAllChecks(
    const std::vector<SourceFile>& files);

// --- the finding baseline (tools/nblint_baseline.json) -------------------
//
// Warn-severity rules must be able to land without blocking unrelated
// PRs, so CI compares warn findings against a committed baseline keyed by
// (rule, file) -- line numbers shift too easily to key on.  Error
// findings are never baselined: they fail the build outright.

struct BaselineEntry {
  std::string rule_id;
  std::string file;

  friend bool operator==(const BaselineEntry& a, const BaselineEntry& b) =
      default;
};

// Parses the baseline JSON ({"version":1,"findings":[{"rule":...,
// "file":...}]}).  Malformed input yields an empty baseline.
[[nodiscard]] std::vector<BaselineEntry> ParseBaseline(
    const std::string& json);

// Serializes the warn findings in `findings` as baseline JSON,
// deduplicated and sorted by (rule, file).
[[nodiscard]] std::string FormatBaseline(
    const std::vector<Finding>& findings);

// The warn findings not covered by `baseline` -- what --baseline mode
// fails on.  Stale baseline entries (nothing matches them) are ignored.
[[nodiscard]] std::vector<Finding> NewFindings(
    const std::vector<Finding>& findings,
    const std::vector<BaselineEntry>& baseline);

// "file:line: severity: rule-id: message\n" per finding.
[[nodiscard]] std::string FormatText(const std::vector<Finding>& findings);
// A JSON array of {"file","line","rule","severity","message"} objects.
[[nodiscard]] std::string FormatJson(const std::vector<Finding>& findings);
// A SARIF 2.1.0 log: one run, the full rule registry in
// tool.driver.rules, one result per finding.
[[nodiscard]] std::string FormatSarif(const std::vector<Finding>& findings);

}  // namespace noisybeeps::lint

#endif  // NOISYBEEPS_LINT_LINT_H_
