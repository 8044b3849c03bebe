// The nblint engine: suppression comments, the rule registry, output
// formats, the SARIF 2.1.0 emitter, and the warn-finding baseline.
#include "lint/lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <string_view>
#include <vector>

namespace noisybeeps::lint {
namespace {

SourceFile Src(std::string path, std::string body) {
  return SourceFile{std::move(path), std::move(body)};
}

std::size_t CountRule(const std::vector<Finding>& findings,
                      std::string_view rule_id) {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(), [&](const Finding& f) {
        return f.rule_id == rule_id;
      }));
}

// --- suppression parsing ----------------------------------------------------

TEST(LintSuppressions, TrailingCommentTargetsItsOwnLine) {
  const FileModel file = FileModel::Build(
      {"src/analysis/a.cc",
       "int x = 0;\n"
       "int y = f();  // NBLINT(banned-random): fixture exercises libc\n"});
  const auto sups = CollectSuppressions(file);
  ASSERT_EQ(sups.size(), 1u);
  EXPECT_EQ(sups[0].comment_line, 2);
  EXPECT_EQ(sups[0].target_line, 2);
  EXPECT_EQ(sups[0].rule_id, "banned-random");
  EXPECT_EQ(sups[0].justification, "fixture exercises libc");
}

TEST(LintSuppressions, StandaloneCommentTargetsTheNextLine) {
  const FileModel file = FileModel::Build(
      {"src/analysis/a.cc",
       "// NBLINT(raw-thread): benchmark drives threads directly\n"
       "int y = f();\n"});
  const auto sups = CollectSuppressions(file);
  ASSERT_EQ(sups.size(), 1u);
  EXPECT_EQ(sups[0].comment_line, 1);
  EXPECT_EQ(sups[0].target_line, 2);
  EXPECT_EQ(sups[0].rule_id, "raw-thread");
}

TEST(LintSuppressions, ProseMentioningTheSyntaxIsNotASuppression) {
  // The marker must LEAD the comment; docs talking about
  // "use // NBLINT(rule-id) to suppress" must not parse.
  const FileModel file = FileModel::Build(
      {"src/lint/doc.h",
       "// Suppress findings with NBLINT(rule-id): justification.\n"});
  EXPECT_TRUE(CollectSuppressions(file).empty());
}

TEST(LintSuppressions, MalformedMarkersKeepAnEmptyRuleId) {
  const FileModel file = FileModel::Build(
      {"src/analysis/a.cc",
       "int a = 0;  // NBLINT(banned-random missing the close\n"
       "int b = 0;  // NBLINTbanned-random: typo'd marker\n"});
  const auto sups = CollectSuppressions(file);
  ASSERT_EQ(sups.size(), 2u);
  EXPECT_TRUE(sups[0].rule_id.empty());
  EXPECT_TRUE(sups[1].rule_id.empty());
}

TEST(LintSuppressions, EmptyJustificationIsRecordedAsEmpty) {
  const FileModel file = FileModel::Build(
      {"src/analysis/a.cc", "int a = b();  // NBLINT(banned-random):\n"});
  const auto sups = CollectSuppressions(file);
  ASSERT_EQ(sups.size(), 1u);
  EXPECT_EQ(sups[0].rule_id, "banned-random");
  EXPECT_TRUE(sups[0].justification.empty());
}

// --- suppression semantics through RunAllChecks -----------------------------

TEST(LintEngine, JustifiedSuppressionSilencesExactlyItsLine) {
  const auto findings = RunAllChecks({Src(
      "src/analysis/a.cc",
      "int A() { return std::rand(); }  // NBLINT(banned-random): fixture\n"
      "int B() { return std::rand(); }\n")});
  // Line 1 is suppressed; line 2's identical finding survives.
  ASSERT_EQ(CountRule(findings, "banned-random"), 1u);
  const auto it =
      std::find_if(findings.begin(), findings.end(), [](const Finding& f) {
        return f.rule_id == "banned-random";
      });
  EXPECT_EQ(it->line, 2);
  // A valid, justified suppression produces no meta findings.
  EXPECT_EQ(CountRule(findings, "suppression-justification"), 0u);
  EXPECT_EQ(CountRule(findings, "suppression-unknown-rule"), 0u);
}

TEST(LintEngine, SuppressionOnlySilencesTheNamedRule) {
  // The comment names raw-thread but the line's finding is banned-random:
  // nothing is silenced.
  const auto findings = RunAllChecks({Src(
      "src/analysis/a.cc",
      "int A() { return std::rand(); }  // NBLINT(raw-thread): wrong rule\n")});
  EXPECT_EQ(CountRule(findings, "banned-random"), 1u);
}

TEST(LintEngine, UnjustifiedSuppressionSilencesNothingAndIsReported) {
  const auto findings = RunAllChecks({Src(
      "src/analysis/a.cc",
      "int A() { return std::rand(); }  // NBLINT(banned-random)\n")});
  // The original finding survives AND the bare suppression is a finding.
  EXPECT_EQ(CountRule(findings, "banned-random"), 1u);
  ASSERT_EQ(CountRule(findings, "suppression-justification"), 1u);
  const auto it =
      std::find_if(findings.begin(), findings.end(), [](const Finding& f) {
        return f.rule_id == "suppression-justification";
      });
  EXPECT_EQ(it->line, 1);
  EXPECT_EQ(it->severity, Severity::kError);
  EXPECT_NE(it->message.find("justification"), std::string::npos);
}

TEST(LintEngine, UnknownRuleIdInSuppressionIsReportedLoudly) {
  const auto findings = RunAllChecks(
      {Src("src/analysis/a.cc",
           "int a = 0;  // NBLINT(no-such-rule): confidently wrong\n")});
  ASSERT_EQ(CountRule(findings, "suppression-unknown-rule"), 1u);
  const auto it =
      std::find_if(findings.begin(), findings.end(), [](const Finding& f) {
        return f.rule_id == "suppression-unknown-rule";
      });
  EXPECT_NE(it->message.find("no-such-rule"), std::string::npos);
}

TEST(LintEngine, MalformedSuppressionIsReported) {
  const auto findings = RunAllChecks(
      {Src("src/analysis/a.cc",
           "int a = 0;  // NBLINT(banned-random and no close paren\n")});
  ASSERT_EQ(CountRule(findings, "suppression-unknown-rule"), 1u);
  const auto it =
      std::find_if(findings.begin(), findings.end(), [](const Finding& f) {
        return f.rule_id == "suppression-unknown-rule";
      });
  EXPECT_NE(it->message.find("malformed"), std::string::npos);
}

TEST(LintEngine, StandaloneSuppressionSilencesTheNextLine) {
  const auto findings = RunAllChecks({Src(
      "src/analysis/a.cc",
      "// NBLINT(banned-random): exercising the libc generator on purpose\n"
      "int A() { return std::rand(); }\n")});
  EXPECT_EQ(CountRule(findings, "banned-random"), 0u);
  EXPECT_EQ(CountRule(findings, "suppression-justification"), 0u);
}

// --- the structural model ---------------------------------------------------

// Regression: an out-of-line template member definition
// (`template <...> R Foo<T>::Bar(...)`) used to lose its class because the
// qualifier back-walk stopped at the template-argument list.
TEST(LintModel, OutOfLineTemplateMemberDefinitionKeepsItsClass) {
  const FileModel file = FileModel::Build(
      {"src/util/ring.h",
       "#ifndef NOISYBEEPS_UTIL_RING_H_\n"
       "#define NOISYBEEPS_UTIL_RING_H_\n"
       "template <typename T>\n"
       "class Ring {\n"
       " public:\n"
       "  int Size() const;\n"
       "};\n"
       "template <typename T>\n"
       "int Ring<T>::Size() const {\n"
       "  return 3;\n"
       "}\n"
       "#endif  // NOISYBEEPS_UTIL_RING_H_\n"});
  const FunctionInfo* definition = nullptr;
  for (const FunctionInfo& fn : file.functions()) {
    if (fn.name == "Size" && fn.is_definition) definition = &fn;
  }
  ASSERT_NE(definition, nullptr);
  EXPECT_EQ(definition->class_name, "Ring");
  EXPECT_EQ(definition->qualified_name, "Ring::Size");
  EXPECT_EQ(definition->line, 9);
}

// Multi-argument template-ids in the qualifier back-walk, including the
// `>>` maximal-munch closer.
TEST(LintModel, NestedTemplateArgumentsInQualifiersParse) {
  const FileModel file = FileModel::Build(
      {"src/util/table.cc",
       "template <typename K, typename V>\n"
       "int Table<K, std::vector<V>>::Count() const {\n"
       "  return 0;\n"
       "}\n"});
  const FunctionInfo* definition = nullptr;
  for (const FunctionInfo& fn : file.functions()) {
    if (fn.name == "Count" && fn.is_definition) definition = &fn;
  }
  ASSERT_NE(definition, nullptr);
  EXPECT_EQ(definition->class_name, "Table");
}

// --- registry and severities ------------------------------------------------

TEST(LintRegistry, RulesAreRegisteredSortedAndUnique) {
  const std::vector<Rule>& rules = AllRules();
  ASSERT_GE(rules.size(), 16u);
  for (std::size_t i = 1; i < rules.size(); ++i) {
    EXPECT_LT(rules[i - 1].id, rules[i].id) << "registry must stay sorted";
  }
  for (const Rule& rule : rules) {
    EXPECT_FALSE(rule.category.empty()) << rule.id;
    EXPECT_FALSE(rule.summary.empty()) << rule.id;
    EXPECT_FALSE(rule.rationale.empty()) << rule.id << ": --explain needs it";
    EXPECT_EQ(FindRule(rule.id), &rule);
  }
  EXPECT_EQ(FindRule("does-not-exist"), nullptr);
}

TEST(LintRegistry, SeveritiesComeFromTheRegistry) {
  ASSERT_NE(FindRule("float-equality"), nullptr);
  EXPECT_EQ(FindRule("float-equality")->severity, Severity::kWarn);
  ASSERT_NE(FindRule("banned-random"), nullptr);
  EXPECT_EQ(FindRule("banned-random")->severity, Severity::kError);
  const auto findings = RunAllChecks(FindRule("float-equality")->firing_fixture);
  ASSERT_GE(CountRule(findings, "float-equality"), 1u);
  for (const Finding& f : findings) {
    if (f.rule_id == "float-equality") {
      EXPECT_EQ(f.severity, Severity::kWarn);
    }
  }
}

// The vacuity meta-test: a rule whose firing fixture produces no finding is
// dead weight -- either the fixture rotted or the rule can never fire.
TEST(LintRegistry, EveryRuleFiresOnItsOwnFixture) {
  for (const Rule& rule : AllRules()) {
    ASSERT_FALSE(rule.firing_fixture.empty())
        << "rule has no firing fixture: " << rule.id;
    const auto findings = RunAllChecks(rule.firing_fixture);
    EXPECT_GE(CountRule(findings, rule.id), 1u)
        << "rule never fires on its own fixture: " << rule.id;
  }
}

// --- output formats ---------------------------------------------------------

TEST(LintFormats, TextFormatIsOneLinePerFinding) {
  const std::vector<Finding> findings = {
      {"src/a.cc", 12, "banned-random", "no", Severity::kError},
      {"src/b.h", 3, "float-equality", "hmm", Severity::kWarn},
  };
  EXPECT_EQ(FormatText(findings),
            "src/a.cc:12: error: banned-random: no\n"
            "src/b.h:3: warn: float-equality: hmm\n");
  EXPECT_EQ(FormatText({}), "");
}

TEST(LintFormats, JsonFormatCarriesSeverityAndEscapes) {
  const std::vector<Finding> findings = {
      {"src/a.cc", 1, "header-guard", "want \"x\"", Severity::kError}};
  const std::string json = FormatJson(findings);
  EXPECT_NE(json.find("\"file\": \"src/a.cc\""), std::string::npos);
  EXPECT_NE(json.find("\"severity\": \"error\""), std::string::npos);
  EXPECT_NE(json.find("want \\\"x\\\""), std::string::npos);
  EXPECT_EQ(FormatJson({}), "[]\n");
}

// --- SARIF ------------------------------------------------------------------

// A minimal recursive-descent JSON syntax checker, enough to prove the
// emitter produces well-formed JSON without pulling in a JSON library.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool String() {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        if (pos_ + 1 >= text_.size()) return false;
        ++pos_;
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool Number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') return ++pos_, true;
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      if (!Value()) return false;
      SkipWs();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == '}') return ++pos_, true;
      if (text_[pos_] != ',') return false;
      ++pos_;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') return ++pos_, true;
    while (true) {
      if (!Value()) return false;
      SkipWs();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ']') return ++pos_, true;
      if (text_[pos_] != ',') return false;
      ++pos_;
    }
  }

  bool Value() {
    SkipWs();
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

TEST(LintSarif, EmitsWellFormedSarif210) {
  const std::vector<Finding> findings = {
      {"src/a.cc", 12, "banned-random", "say \"no\" to rand()",
       Severity::kError},
      {"src/analysis/b.cc", 3, "float-equality", "a == b", Severity::kWarn},
  };
  const std::string sarif = FormatSarif(findings);
  EXPECT_TRUE(JsonChecker(sarif).Valid()) << sarif;
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("https://json.schemastore.org/sarif-2.1.0.json"),
            std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"nblint\""), std::string::npos);
  // Every registered rule is described in tool.driver.rules.
  for (const Rule& rule : AllRules()) {
    EXPECT_NE(sarif.find("\"id\": \"" + rule.id + "\""), std::string::npos)
        << rule.id;
  }
  // Results carry ruleId, a level mapped from the severity, and a location.
  EXPECT_NE(sarif.find("\"ruleId\": \"banned-random\""), std::string::npos);
  EXPECT_NE(sarif.find("\"level\": \"warning\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 12"), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\": \"src/analysis/b.cc\""), std::string::npos);
  // The quoted message survived escaping.
  EXPECT_NE(sarif.find("say \\\"no\\\" to rand()"), std::string::npos);
}

TEST(LintSarif, RuleIndexPointsIntoTheRulesArray) {
  const std::vector<Rule>& rules = AllRules();
  std::size_t expected = rules.size();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (rules[i].id == "header-guard") expected = i;
  }
  ASSERT_LT(expected, rules.size());
  const std::string sarif = FormatSarif(
      {{"src/x/y.h", 1, "header-guard", "bad guard", Severity::kError}});
  EXPECT_NE(
      sarif.find("\"ruleIndex\": " + std::to_string(expected)),
      std::string::npos);
}

TEST(LintSarif, EmptyFindingsStillValidate) {
  const std::string sarif = FormatSarif({});
  EXPECT_TRUE(JsonChecker(sarif).Valid()) << sarif;
  EXPECT_NE(sarif.find("\"results\": ["), std::string::npos);
}

// --- the real tree ----------------------------------------------------------

// RunAllChecks over a small honest slice of repo-shaped files aggregates
// findings from multiple rules and sorts them by (file, line, rule).
TEST(LintEngine, AggregatesAndSortsAcrossRules) {
  const std::vector<SourceFile> files = {
      Src("src/analysis/z.cc",
          "#include \"fault/fault_plan.h\"\n"
          "int Draw() { return std::rand(); }\n"),
      Src("src/tasks/a.h",
          "#ifndef WRONG_H\n#define WRONG_H\n#endif\n"),
  };
  const auto findings = RunAllChecks(files);
  EXPECT_EQ(CountRule(findings, "layering"), 1u);
  EXPECT_EQ(CountRule(findings, "banned-random"), 1u);
  EXPECT_EQ(CountRule(findings, "header-guard"), 1u);
  for (std::size_t i = 1; i < findings.size(); ++i) {
    EXPECT_LE(findings[i - 1].file, findings[i].file);
  }
}

TEST(LintEngine, CleanFilesProduceNoFindings) {
  const std::vector<SourceFile> files = {
      Src("src/util/widget.h",
          "#ifndef NOISYBEEPS_UTIL_WIDGET_H_\n"
          "#define NOISYBEEPS_UTIL_WIDGET_H_\n"
          "int Widget(int n);\n"
          "#endif  // NOISYBEEPS_UTIL_WIDGET_H_\n"),
      Src("src/util/widget.cc",
          "#include \"util/widget.h\"\n"
          "int Widget(int n) { return n + 1; }\n"),
  };
  EXPECT_TRUE(RunAllChecks(files).empty());
}

// --- the finding baseline ---------------------------------------------------

TEST(LintBaseline, RoundTripsWarnFindingsKeyedByRuleAndFile) {
  const std::vector<Finding> findings = {
      {"src/a.cc", 3, "determinism-taint", "first", Severity::kWarn},
      {"src/a.cc", 9, "determinism-taint", "second", Severity::kWarn},
      {"src/b.cc", 1, "banned-random", "errors never baseline",
       Severity::kError},
  };
  const std::string json = FormatBaseline(findings);
  const std::vector<BaselineEntry> baseline = ParseBaseline(json);
  // The two warn findings share (rule, file) and collapse to one entry;
  // the error finding is excluded.
  ASSERT_EQ(baseline.size(), 1u) << json;
  EXPECT_EQ(baseline[0].rule_id, "determinism-taint");
  EXPECT_EQ(baseline[0].file, "src/a.cc");
}

TEST(LintBaseline, NewFindingsIgnoresBaselinedAndStaleEntries) {
  const std::vector<Finding> findings = {
      {"src/a.cc", 3, "determinism-taint", "msg", Severity::kWarn},
      {"src/b.cc", 1, "banned-random", "err", Severity::kError},
  };
  // No baseline: every warn finding is new (errors fail on their own).
  ASSERT_EQ(NewFindings(findings, {}).size(), 1u);
  EXPECT_EQ(NewFindings(findings, {})[0].file, "src/a.cc");
  // Covered plus a stale entry nothing matches: nothing is new.
  const std::vector<BaselineEntry> baseline = {
      {"determinism-taint", "src/a.cc"},
      {"shared-state-discipline", "src/long_gone.cc"},
  };
  EXPECT_TRUE(NewFindings(findings, baseline).empty());
}

TEST(LintBaseline, MalformedJsonYieldsAnEmptyBaseline) {
  EXPECT_TRUE(ParseBaseline("").empty());
  EXPECT_TRUE(ParseBaseline("not json at all").empty());
  EXPECT_TRUE(ParseBaseline("{\"version\": 1}").empty());
}

}  // namespace
}  // namespace noisybeeps::lint
