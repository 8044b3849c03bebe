// The nblint rule framework.
//
// Each rule is data plus one function over the RepoModel (model.h): a
// stable id, a severity (`error` fails the build, `warn` reports without
// failing), a category, a one-line summary (surfaced in SARIF), and a
// firing fixture -- a tiny synthetic file set on which the rule MUST
// produce at least one finding.  The fixture travels with the rule so the
// vacuity meta-test (lint_engine_test.cc) can mechanically prove no rule
// has silently become a no-op, which is exactly how PR 4's channel-hot-path
// regression slipped in under the regex engine.
//
// Two rule ids are implemented by the engine rather than a run function
// (run == nullptr): `suppression-justification` (an NBLINT suppression with
// an empty justification) and `suppression-unknown-rule` (a suppression
// naming a rule that does not exist).  See lint.h for suppression syntax.
#ifndef NOISYBEEPS_LINT_RULES_H_
#define NOISYBEEPS_LINT_RULES_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "lint/model.h"

namespace noisybeeps::lint {

enum class Severity { kError, kWarn };

// "error" / "warn".
[[nodiscard]] std::string_view SeverityName(Severity severity);

struct Finding {
  std::string file;
  int line = 0;
  std::string rule_id;
  std::string message;
  Severity severity = Severity::kError;

  friend bool operator==(const Finding& a, const Finding& b) = default;
};

struct Rule {
  std::string id;
  Severity severity = Severity::kError;
  std::string category;
  std::string summary;
  // Emits findings over the model; nullptr for engine-implemented rules.
  std::function<void(const RepoModel&, std::vector<Finding>&)> run;
  // Synthetic files on which this rule must fire (vacuity meta-test).
  std::vector<SourceFile> firing_fixture;
  // Longer-form why-this-exists, surfaced by `nblint --explain=<id>`.
  std::string rationale;
};

// The registry, in stable order (SARIF ruleIndex depends on it).
[[nodiscard]] const std::vector<Rule>& AllRules();

// nullptr when no rule has that id.
[[nodiscard]] const Rule* FindRule(std::string_view id);

}  // namespace noisybeeps::lint

#endif  // NOISYBEEPS_LINT_RULES_H_
