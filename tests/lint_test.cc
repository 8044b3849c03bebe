// Behavior of the individual nblint rules (stage two of the checker).
// Each rule runs through RunRule, i.e. over the real model with the rule's
// registered severity but without suppression processing.
#include "lint/lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace noisybeeps::lint {
namespace {

SourceFile Header(std::string path, std::string body) {
  return SourceFile{std::move(path), std::move(body)};
}

std::vector<Finding> RunRuleId(const char* id,
                         const std::vector<SourceFile>& files) {
  const Rule* rule = FindRule(id);
  if (rule == nullptr) {
    ADD_FAILURE() << "no such rule: " << id;
    return {};
  }
  return RunRule(*rule, files);
}

// --- header-guard ----------------------------------------------------------

constexpr char kGoodHeader[] =
    "#ifndef NOISYBEEPS_FOO_BAR_H_\n"
    "#define NOISYBEEPS_FOO_BAR_H_\n"
    "int f();\n"
    "#endif  // NOISYBEEPS_FOO_BAR_H_\n";

TEST(LintHeaderGuard, AcceptsCanonicalGuard) {
  EXPECT_TRUE(
      RunRuleId("header-guard", {Header("src/foo/bar.h", kGoodHeader)}).empty());
}

TEST(LintHeaderGuard, FlagsWrongGuardName) {
  const std::string body =
      "#ifndef WRONG_GUARD_H\n#define WRONG_GUARD_H\n#endif\n";
  const auto findings = RunRuleId("header-guard", {Header("src/foo/bar.h", body)});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule_id, "header-guard");
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_EQ(findings[0].severity, Severity::kError);
  EXPECT_NE(findings[0].message.find("NOISYBEEPS_FOO_BAR_H_"),
            std::string::npos);
}

TEST(LintHeaderGuard, FlagsMissingGuard) {
  const auto findings =
      RunRuleId("header-guard", {Header("src/foo/bar.h", "int f();\n")});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule_id, "header-guard");
}

TEST(LintHeaderGuard, FlagsMismatchedDefine) {
  const std::string body =
      "#ifndef NOISYBEEPS_FOO_BAR_H_\n#define NOISYBEEPS_OTHER_H_\n#endif\n";
  const auto findings = RunRuleId("header-guard", {Header("src/foo/bar.h", body)});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 2);
}

TEST(LintHeaderGuard, IgnoresNonSrcFiles) {
  EXPECT_TRUE(
      RunRuleId("header-guard", {Header("tools/x.h", "int f();\n")}).empty());
  EXPECT_TRUE(
      RunRuleId("header-guard", {Header("src/foo/bar.cc", "int f() { return 1; }\n")})
          .empty());
}

// --- banned-random ---------------------------------------------------------

TEST(LintBannedRandom, FlagsStdRandAndFriends) {
  const std::string body =
      "#include <random>\n"
      "int a() { return std::rand(); }\n"
      "std::mt19937 gen;\n"
      "int b() { return rand(); }\n";
  const auto findings =
      RunRuleId("banned-random", {Header("src/foo/bar.cc", body)});
  ASSERT_EQ(findings.size(), 4u);
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_EQ(findings[1].line, 2);
  EXPECT_EQ(findings[2].line, 3);
  EXPECT_EQ(findings[3].line, 4);
  for (const Finding& f : findings) EXPECT_EQ(f.rule_id, "banned-random");
}

TEST(LintBannedRandom, ExemptsRngCc) {
  const std::string body = "#include <random>\nstd::mt19937 gen;\n";
  EXPECT_TRUE(
      RunRuleId("banned-random", {Header("src/util/rng.cc", body)}).empty());
}

TEST(LintBannedRandom, IgnoresCommentsStringsAndSubstrings) {
  const std::string body =
      "// std::rand is banned\n"
      "const char* msg = \"std::rand\";\n"
      "int operand = 3;\n"
      "int brand = operand;\n";
  EXPECT_TRUE(
      RunRuleId("banned-random", {Header("src/foo/bar.cc", body)}).empty());
}

TEST(LintBannedRandom, BareRandNeedsCallParens) {
  // A variable merely NAMED rand is legal; calling rand() is not.
  EXPECT_TRUE(RunRuleId("banned-random",
                  {Header("src/foo/bar.cc", "int rand = 3; int y = rand;\n")})
                  .empty());
  EXPECT_EQ(
      RunRuleId("banned-random", {Header("src/foo/bar.cc", "int y = rand();\n")})
          .size(),
      1u);
}

TEST(LintBannedRandom, MemberAccessOnBannedTypeStillFires) {
  // std::mt19937::result_type is still a dependency on the banned engine.
  const auto findings =
      RunRuleId("banned-random",
          {Header("src/foo/bar.cc", "using T = std::mt19937::result_type;\n")});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("std::mt19937"), std::string::npos);
}

// --- raw-thread ------------------------------------------------------------

TEST(LintRawThread, FlagsThreadSpawnsOutsideParallelH) {
  const std::string body =
      "#include <thread>\n"
      "void f() { std::thread t([]{}); t.join(); }\n"
      "void g() { auto fut = std::async([]{}); }\n";
  const auto findings = RunRuleId("raw-thread", {Header("src/foo/bar.cc", body)});
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule_id, "raw-thread");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_EQ(findings[1].line, 3);
}

TEST(LintRawThread, ExemptsParallelHAndConcurrencyQueries) {
  const std::string spawn = "void f() { std::thread t([]{}); t.join(); }\n";
  EXPECT_TRUE(
      RunRuleId("raw-thread", {Header("src/util/parallel.h", spawn)}).empty());
  // Asking how many cores exist spawns nothing.
  const std::string query =
      "int n() { return (int)std::thread::hardware_concurrency(); }\n";
  EXPECT_TRUE(
      RunRuleId("raw-thread", {Header("src/foo/bar.cc", query)}).empty());
}

// --- checkpoint-atomicity --------------------------------------------------

TEST(LintCheckpointAtomicity, FlagsDirectCheckpointStreamWrites) {
  const std::string body =
      "void Save(const std::string& checkpoint_path) {\n"
      "  std::ofstream out(checkpoint_path, std::ios::binary);\n"
      "  std::ofstream raw(\"run.nbckpt\");\n"
      "}\n";
  const auto findings =
      RunRuleId("checkpoint-atomicity", {Header("tools/sweep.cc", body)});
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule_id, "checkpoint-atomicity");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_EQ(findings[1].line, 3);
  EXPECT_NE(findings[0].message.find("WriteCheckpointAtomic"),
            std::string::npos);
}

TEST(LintCheckpointAtomicity, ExemptsResilienceModuleAndTests) {
  const std::string body =
      "void W(const std::string& p) { std::ofstream out(p + \".ckpt\"); }\n";
  EXPECT_TRUE(RunRuleId("checkpoint-atomicity",
                  {Header("src/resilience/checkpoint.cc", body)})
                  .empty());
  // Negative tests write deliberately corrupt checkpoint files.
  EXPECT_TRUE(RunRuleId("checkpoint-atomicity",
                  {Header("tests/resilience_checkpoint_test.cc", body)})
                  .empty());
}

TEST(LintCheckpointAtomicity, IgnoresUnrelatedStreamsAndComments) {
  // ofstream writes of non-checkpoint files are fine...
  const std::string csv = "std::ofstream out(\"results.csv\");\n";
  EXPECT_TRUE(
      RunRuleId("checkpoint-atomicity", {Header("bench/b.cc", csv)}).empty());
  // ...as is merely TALKING about checkpoints next to an ofstream.
  const std::string comment =
      "std::ofstream out(path);  // not a checkpoint: plain CSV\n";
  EXPECT_TRUE(
      RunRuleId("checkpoint-atomicity", {Header("bench/b.cc", comment)}).empty());
  // And "ofstream" inside an identifier is not the stream type.
  const std::string fake = "my_std__ofstream_checkpoint(path);\n";
  EXPECT_TRUE(
      RunRuleId("checkpoint-atomicity", {Header("bench/b.cc", fake)}).empty());
}

// --- include-cycle ---------------------------------------------------------

TEST(LintIncludeCycle, AcceptsAcyclicModuleGraph) {
  const std::vector<SourceFile> files = {
      Header("src/util/a.h", "int a();\n"),
      Header("src/ecc/b.h", "#include \"util/a.h\"\n"),
      Header("src/coding/c.h",
             "#include \"ecc/b.h\"\n#include \"util/a.h\"\n"),
  };
  EXPECT_TRUE(RunRuleId("include-cycle", files).empty());
}

TEST(LintIncludeCycle, DetectsSeededCycle) {
  const std::vector<SourceFile> files = {
      Header("src/util/a.h", "#include \"ecc/b.h\"\n"),
      Header("src/ecc/b.h", "#include \"util/a.h\"\n"),
  };
  const auto findings = RunRuleId("include-cycle", files);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule_id, "include-cycle");
  EXPECT_NE(findings[0].message.find("->"), std::string::npos);
}

TEST(LintIncludeCycle, IntraModuleIncludesAreFine) {
  const std::vector<SourceFile> files = {
      Header("src/util/a.h", "#include \"util/b.h\"\n"),
      Header("src/util/b.h", "#include \"util/c.h\"\n"),
      Header("src/util/c.h", "int c();\n"),
  };
  EXPECT_TRUE(RunRuleId("include-cycle", files).empty());
}

// --- layering ---------------------------------------------------------------

TEST(LintLayering, AcceptsTheIntendedGraph) {
  const std::vector<SourceFile> files = {
      Header("src/fault/fault_plan.h", "#include \"util/require.h\"\n"),
      Header("src/fault/injection.h",
             "#include \"channel/channel.h\"\n"
             "#include \"fault/fault_plan.h\"\n"
             "#include \"protocol/round_engine.h\"\n"),
      Header("src/coding/simulator.h", "#include \"fault/fault_plan.h\"\n"),
      Header("src/analysis/budget.h", "#include \"tasks/input_set.h\"\n"),
      Header("bench/bench_faults.cc", "#include \"fault/injection.h\"\n"),
      Header("tools/nbsim.cc", "#include \"fault/fault_plan.h\"\n"),
      Header("tests/fault_plan_test.cc",
             "#include \"fault/fault_plan.h\"\n"),
  };
  EXPECT_TRUE(RunRuleId("layering", files).empty());
}

TEST(LintLayering, FlagsFaultReachingUpIntoCoding) {
  const std::vector<SourceFile> files = {
      Header("src/fault/injection.h", "#include \"coding/simulator.h\"\n"),
  };
  const auto findings = RunRuleId("layering", files);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule_id, "layering");
  EXPECT_EQ(findings[0].file, "src/fault/injection.h");
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_NE(findings[0].message.find("coding"), std::string::npos);
}

TEST(LintLayering, FlagsCoreDependingBackOnFault) {
  const std::vector<SourceFile> files = {
      Header("src/protocol/executor.h", "#include \"fault/injection.h\"\n"),
      Header("src/channel/channel.h",
             "int x;\n#include \"fault/fault_plan.h\"\n"),
      Header("src/analysis/budget.h", "#include \"fault/fault_plan.h\"\n"),
  };
  const auto findings = RunRuleId("layering", files);
  ASSERT_EQ(findings.size(), 3u);
  for (const Finding& f : findings) {
    EXPECT_EQ(f.rule_id, "layering");
  }
  // The second file's offending include sits on line 2.
  const auto channel = std::find_if(
      findings.begin(), findings.end(),
      [](const Finding& f) { return f.file == "src/channel/channel.h"; });
  ASSERT_NE(channel, findings.end());
  EXPECT_EQ(channel->line, 2);
}

TEST(LintLayering, RestrictedImportOutsideTheAllowedDirs) {
  // examples/ is not among the directories allowed to reach fault/.
  const auto findings = RunRuleId(
      "layering",
      {Header("examples/demo.cc", "#include \"fault/fault_plan.h\"\n")});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("fault"), std::string::npos);
}

TEST(LintLayering, UnknownModuleMustJoinTheTable) {
  const auto findings =
      RunRuleId("layering", {Header("src/viz/plot.h", "int p();\n")});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_NE(findings[0].message.find("layer table"), std::string::npos);
}

TEST(LintLayering, IgnoresCommentedIncludesAndSystemHeaders) {
  const std::vector<SourceFile> files = {
      Header("src/protocol/executor.h",
             "// #include \"fault/injection.h\"\n#include <vector>\n"),
      Header("src/fault/fault_plan.cc",
             "#include <string>\n// see coding/simulator.h for the verdict\n"),
  };
  EXPECT_TRUE(RunRuleId("layering", files).empty());
}

// --- require-precondition --------------------------------------------------

constexpr char kWidgetHeader[] =
    "#ifndef NOISYBEEPS_FOO_WIDGET_H_\n"
    "#define NOISYBEEPS_FOO_WIDGET_H_\n"
    "class Widget {\n"
    " public:\n"
    "  // Precondition: 0 <= eps < 1/2.\n"
    "  explicit Widget(double eps);\n"
    "};\n"
    "// Preconditions: n >= 1.\n"
    "Widget MakeWidget(int n);\n"
    "#endif  // NOISYBEEPS_FOO_WIDGET_H_\n";

TEST(LintRequire, PassesWhenDefinitionsCheck) {
  const std::string cc =
      "#include \"foo/widget.h\"\n"
      "Widget::Widget(double eps) { NB_REQUIRE(eps >= 0, \"eps\"); }\n"
      "Widget MakeWidget(int n) {\n"
      "  NB_REQUIRE(n >= 1, \"n\");\n"
      "  return Widget(0.1);\n"
      "}\n";
  const std::vector<SourceFile> files = {
      Header("src/foo/widget.h", kWidgetHeader),
      Header("src/foo/widget.cc", cc)};
  EXPECT_TRUE(RunRuleId("require-precondition", files).empty());
}

TEST(LintRequire, FlagsUncheckedConstructorAndFactory) {
  const std::string cc =
      "#include \"foo/widget.h\"\n"
      "Widget::Widget(double eps) { (void)eps; }\n"
      "Widget MakeWidget(int n) { (void)n; return Widget(0.1); }\n";
  const std::vector<SourceFile> files = {
      Header("src/foo/widget.h", kWidgetHeader),
      Header("src/foo/widget.cc", cc)};
  const auto findings = RunRuleId("require-precondition", files);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule_id, "require-precondition");
  EXPECT_EQ(findings[0].line, 5);  // the ctor's Precondition comment
  EXPECT_NE(findings[0].message.find("Widget"), std::string::npos);
  EXPECT_EQ(findings[1].line, 8);  // the factory's Precondition comment
}

TEST(LintRequire, UndocumentedFunctionsAreNotRequired) {
  const std::string header =
      "class Plain {\n public:\n  explicit Plain(int x);\n};\n";
  const std::string cc = "Plain::Plain(int x) { (void)x; }\n";
  const std::vector<SourceFile> files = {
      Header("src/foo/plain.h", header), Header("src/foo/plain.cc", cc)};
  EXPECT_TRUE(RunRuleId("require-precondition", files).empty());
}

TEST(LintRequire, FindsHeaderOnlyDefinitions) {
  const std::string header =
      "class Inline {\n public:\n"
      "  // Precondition: x > 0.\n"
      "  explicit Inline(int x) { (void)x; }\n"
      "};\n";
  const auto findings =
      RunRuleId("require-precondition", {Header("src/foo/inline.h", header)});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule_id, "require-precondition");
}

TEST(LintRequire, CommentAboveAMemberVariableDoesNotMisattach) {
  // The Precondition comment documents a member DATUM; the next recorded
  // function (the ctor further down) must not inherit it.
  const std::string header =
      "class Holder {\n public:\n"
      "  // Precondition: callers keep eps_ in range.\n"
      "  double eps_ = 0.0;\n"
      "  explicit Holder(int x) { (void)x; }\n"
      "};\n";
  EXPECT_TRUE(
      RunRuleId("require-precondition", {Header("src/foo/holder.h", header)})
          .empty());
}

// --- channel-hot-path ------------------------------------------------------

TEST(LintChannelHotPath, FlagsPerSampleFlipsInsideDeliver) {
  const std::string body =
      "void Foo::Deliver(int n, std::span<std::uint8_t> r, Rng& rng) const {\n"
      "  const bool flip = rng.UniformDouble() < eps_;\n"
      "  const bool again = rng.Bernoulli(eps_);\n"
      "  FillShared(r, flip != again);\n"
      "}\n";
  const auto findings =
      RunRuleId("channel-hot-path", {Header("src/channel/foo.cc", body)});
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule_id, "channel-hot-path");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_EQ(findings[1].line, 3);
  EXPECT_NE(findings[0].message.find("BernoulliSampler"), std::string::npos);
}

TEST(LintChannelHotPath, FlagsDrawsInEveryDeliveryFunction) {
  // A channel draws in a shared-draw channel's SharedOutcome, in
  // DeliverWords, or in a decorator's Deliver: all three are scanned.
  const std::string body =
      "bool Foo::SharedOutcome(std::int64_t n, Rng& rng) const {\n"
      "  return (n > 0) != rng.Bernoulli(eps_);\n"
      "}\n"
      "void Foo::DeliverWords(std::int64_t n, std::span<std::uint64_t> w,\n"
      "                       std::int64_t p, WordMode m, Rng& rng) const {\n"
      "  if (rng.UniformDouble() < eps_) w[0] ^= 1;\n"
      "}\n"
      "void Foo::Deliver(std::int64_t n, std::span<std::uint8_t> r,\n"
      "                  Rng& rng) const {\n"
      "  r[0] = rng.Bernoulli(eps_) ? 1 : 0;\n"
      "}\n";
  const auto findings =
      RunRuleId("channel-hot-path", {Header("src/channel/foo.cc", body)});
  ASSERT_EQ(findings.size(), 3u);
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_NE(findings[0].message.find("SharedOutcome"), std::string::npos);
  EXPECT_EQ(findings[1].line, 6);
  EXPECT_NE(findings[1].message.find("DeliverWords"), std::string::npos);
  EXPECT_EQ(findings[2].line, 10);
  EXPECT_NE(findings[2].message.find("a Deliver implementation"),
            std::string::npos);
}

TEST(LintChannelHotPath, PrecomputedSamplerDrawsAreClean) {
  const std::string body =
      "void Foo::Deliver(int n, std::span<std::uint8_t> r, Rng& rng) const {\n"
      "  // Bernoulli in a comment is fine; so is the sampler itself.\n"
      "  FillShared(r, (n > 0) != noise_.Sample(rng));\n"
      "}\n"
      "Foo::Foo(double eps) : noise_(BernoulliSampler(eps)) {}\n";
  EXPECT_TRUE(
      RunRuleId("channel-hot-path", {Header("src/channel/foo.cc", body)}).empty());
}

TEST(LintChannelHotPath, OnlyChannelSourcesAreInScope) {
  // Elsewhere a direct Bernoulli draw is legitimate (setup code, tests,
  // protocols) -- the rule polices the Monte Carlo inner loop only.
  const std::string body =
      "void Deliver(int n, std::span<std::uint8_t> r, Rng& rng) {\n"
      "  r[0] = rng.Bernoulli(0.5) ? 1 : 0;\n"
      "}\n";
  EXPECT_TRUE(
      RunRuleId("channel-hot-path", {Header("src/protocol/relay.cc", body)})
          .empty());
  EXPECT_TRUE(
      RunRuleId("channel-hot-path", {Header("tests/foo_test.cc", body)}).empty());
}

TEST(LintChannelHotPath, DeclarationsAndOtherFunctionsAreSkipped) {
  // A pure declaration has no body to scan, draws outside Deliver are out
  // of scope, and DeliverShared is a different identifier.
  const std::string body =
      "void Deliver(int n, std::span<std::uint8_t> r, Rng& rng) const "
      "override;\n"
      "bool Warmup(Rng& rng) { return rng.Bernoulli(0.5); }\n"
      "bool DeliverShared(int n, Rng& rng) { return rng.Bernoulli(eps_); }\n";
  EXPECT_TRUE(
      RunRuleId("channel-hot-path", {Header("src/channel/foo.h", body)}).empty());
}

// --- rng-stream-discipline -------------------------------------------------

TEST(LintRngDiscipline, FlagsByValueRngParameters) {
  const std::string body =
      "#include \"util/rng.h\"\n"
      "void RunRuleId(Rng rng);\n"
      "int Draw(int n, const Rng r2) { return n; }\n";
  const auto findings =
      RunRuleId("rng-stream-discipline", {Header("src/tasks/a.cc", body)});
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_EQ(findings[1].line, 3);
  EXPECT_NE(findings[0].message.find("by value"), std::string::npos);
}

TEST(LintRngDiscipline, ReferencesAndPointersAreClean) {
  const std::string body =
      "void A(Rng& rng);\n"
      "void B(const Rng& rng);\n"
      "void C(Rng* rng);\n"
      "void D(std::vector<Rng>& rngs);\n";
  EXPECT_TRUE(
      RunRuleId("rng-stream-discipline", {Header("src/tasks/a.cc", body)}).empty());
}

TEST(LintRngDiscipline, FlagsCopyInitFromAnotherRng) {
  const std::string body =
      "Rng base = MakeRng();\n"
      "Rng copy = base;\n";
  const auto findings =
      RunRuleId("rng-stream-discipline", {Header("src/tasks/a.cc", body)});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_NE(findings[0].message.find("Split"), std::string::npos);
}

TEST(LintRngDiscipline, SplitAndSeedConstructionAreClean) {
  const std::string body =
      "Rng base = MakeRng();\n"
      "Rng child = base.Split();\n"
      "Rng seeded(seed);\n"
      "Rng restored = Rng::Restore(state);\n";
  EXPECT_TRUE(
      RunRuleId("rng-stream-discipline", {Header("src/tasks/a.cc", body)}).empty());
}

TEST(LintRngDiscipline, TestsAndRngItselfAreExempt) {
  const std::string body = "Rng base = MakeRng();\nRng copy = base;\n";
  EXPECT_TRUE(RunRuleId("rng-stream-discipline",
                  {Header("tests/stream_identity_test.cc", body)})
                  .empty());
  EXPECT_TRUE(
      RunRuleId("rng-stream-discipline", {Header("src/util/rng.h", body)}).empty());
}

// --- float-equality --------------------------------------------------------

TEST(LintFloatEquality, FlagsFloatComparisonsInAnalysisAndEcc) {
  const std::string body =
      "bool Same(double a, double b) { return a == b; }\n"
      "bool Zero(float x) { return x != 0.5f; }\n";
  const auto findings =
      RunRuleId("float-equality", {Header("src/analysis/a.cc", body)});
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_EQ(findings[0].severity, Severity::kWarn);  // warn, not error
  EXPECT_EQ(findings[1].line, 2);
  EXPECT_FALSE(
      RunRuleId("float-equality", {Header("src/ecc/e.cc", body)}).empty());
}

TEST(LintFloatEquality, IntegerComparisonsAreClean) {
  const std::string body =
      "bool Same(int a, int b) { return a == b; }\n"
      "bool Ver(long v) { return v != 2; }\n";
  EXPECT_TRUE(
      RunRuleId("float-equality", {Header("src/analysis/a.cc", body)}).empty());
}

TEST(LintFloatEquality, OtherModulesAreOutOfScope) {
  const std::string body = "bool Same(double a, double b) { return a == b; }\n";
  EXPECT_TRUE(
      RunRuleId("float-equality", {Header("src/protocol/p.cc", body)}).empty());
  EXPECT_TRUE(
      RunRuleId("float-equality", {Header("tests/t.cc", body)}).empty());
}

// --- locale-formatting -----------------------------------------------------

TEST(LintLocaleFormatting, FlagsStreamingADoubleIntoAStringBuilder) {
  const std::string body =
      "#include <sstream>\n"
      "std::string Name(double eps) {\n"
      "  std::ostringstream os;\n"
      "  os << \"eps=\" << eps;\n"
      "  return os.str();\n"
      "}\n";
  const auto findings =
      RunRuleId("locale-formatting", {Header("src/channel/name.cc", body)});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 4);
  EXPECT_NE(findings[0].message.find("FormatDouble"), std::string::npos);
}

TEST(LintLocaleFormatting, FormatDoubleCallsAreClean) {
  const std::string body =
      "#include <sstream>\n"
      "std::string Name(double eps) {\n"
      "  std::ostringstream os;\n"
      "  os << \"eps=\" << FormatDouble(eps);\n"
      "  return os.str();\n"
      "}\n";
  EXPECT_TRUE(
      RunRuleId("locale-formatting", {Header("src/channel/name.cc", body)})
          .empty());
}

TEST(LintLocaleFormatting, UndeclaredStreamsAndIntsAreClean) {
  // std::cout is not a stream DECLARED in the repo; ints are locale-safe.
  const std::string body =
      "#include <sstream>\n"
      "void P(double eps, int n) {\n"
      "  std::cout << eps;\n"
      "  std::ostringstream os;\n"
      "  os << n;\n"
      "}\n";
  EXPECT_TRUE(
      RunRuleId("locale-formatting", {Header("src/analysis/p.cc", body)}).empty());
}

TEST(LintLocaleFormatting, FlagsToStringOfDouble) {
  const std::string body =
      "std::string F(double rate) { return std::to_string(rate); }\n"
      "std::string G(int n) { return std::to_string(n); }\n";
  const auto findings =
      RunRuleId("locale-formatting", {Header("src/analysis/f.cc", body)});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 1);
}

TEST(LintLocaleFormatting, FlagsPrintfFloatConversionsInSrcOnly) {
  const std::string body =
      "void P(double r) { std::printf(\"rate=%.3f\\n\", r); }\n"
      "void Q(int n) { std::printf(\"n=%d\\n\", n); }\n";
  const auto in_src =
      RunRuleId("locale-formatting", {Header("src/analysis/p.cc", body)});
  ASSERT_EQ(in_src.size(), 1u);
  EXPECT_EQ(in_src[0].line, 1);
  // Tool mains never call setlocale, so the C standard pins their printf
  // locale to "C"; library code gets no such guarantee.
  EXPECT_TRUE(
      RunRuleId("locale-formatting", {Header("tools/nbx.cc", body)}).empty());
}

TEST(LintLocaleFormatting, StreamStateAlsoCoversPairedHeaderTypes) {
  const std::vector<SourceFile> files = {
      Header("src/fault/plan.h", "struct Spec { double beep_prob = 0.5; };\n"),
      Header("src/fault/plan.cc",
             "#include \"fault/plan.h\"\n"
             "#include <sstream>\n"
             "std::string S(const Spec& spec) {\n"
             "  std::ostringstream os;\n"
             "  os << spec.beep_prob;\n"
             "  return os.str();\n"
             "}\n"),
  };
  const auto findings = RunRuleId("locale-formatting", files);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/fault/plan.cc");
  EXPECT_EQ(findings[0].line, 5);
}

// --- call sites (how the effect rules recognise a call) ---------------------

TEST(CallSites, ClassifiesFreeQualifiedAndMemberCalls) {
  // Free and std::-qualified calls to a raw I/O function touch the disk;
  // a method of the same name, or another namespace's, does not.
  const auto findings = RunRuleId(
      "io-seam-discipline",
      {Header("src/analysis/c.cc",
              "void Use(Log& log, Store* store) {\n"
              "  fopen(\"a\", \"r\");\n"
              "  std::rename(\"a\", \"b\");\n"
              "  log.close();\n"
              "  store->rename(\"x\");\n"
              "  Archive::open(\"y\");\n"
              "}\n")});
  ASSERT_EQ(findings.size(), 2u) << FormatText(findings);
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_NE(findings[0].message.find("(fopen)"), std::string::npos);
  EXPECT_EQ(findings[1].line, 3);
  EXPECT_NE(findings[1].message.find("(std::rename)"), std::string::npos);
}

TEST(CallSites, DeclarationsAndControlFlowAreNotCalls) {
  // `Type name(`, `T* name(` and `vector<T> name(` declare; if/while are
  // control flow.  Only the send() on the last line is a call.
  const auto findings = RunRuleId(
      "service-layering",
      {Header("src/service/d.cc",
              "void Use(int n) {\n"
              "  Endpoint connect(n);\n"
              "  Socket* accept(nullptr);\n"
              "  std::vector<int> listen(4);\n"
              "  if (n) { while (n) { --n; } }\n"
              "  n = send(n, nullptr, 0, 0);\n"
              "}\n")});
  ASSERT_EQ(findings.size(), 1u) << FormatText(findings);
  EXPECT_EQ(findings[0].line, 6);
}

TEST(CallSites, ReturnedCallsAreNotVetoedAsDeclarations) {
  // `return socket(` has an identifier before `socket(` -- the expression
  // keyword must not read as a declaring type.
  const auto findings = RunRuleId(
      "service-layering",
      {Header("src/service/r.cc", "int Open() { return socket(1, 2, 0); }\n")});
  ASSERT_EQ(findings.size(), 1u) << FormatText(findings);
}

// --- determinism-taint ------------------------------------------------------

TEST(DeterminismTaint, FlagsEverySourceKindWithItsLine) {
  const auto findings = RunRuleId(
      "determinism-taint",
      {Header("src/analysis/e.cc",
              "#include <chrono>\n"
              "#include <unordered_map>\n"
              "long Stamp() {\n"
              "  return std::chrono::steady_clock::now()\n"
              "      .time_since_epoch().count();\n"
              "}\n"
              "int Sum(const std::unordered_map<int, int>& m) {\n"
              "  int s = 0;\n"
              "  for (const auto& kv : m) { s += kv.second; }\n"
              "  return s + (m.begin() == m.end());\n"
              "}\n"
              "long Knob() {\n"
              "  return std::getenv(\"K\") != nullptr ? EnvInt64(\"N\", 1)\n"
              "                                     : 0;\n"
              "}\n"
              "long Address(const int* p) {\n"
              "  return reinterpret_cast<long>(p);\n"
              "}\n"
              "const int* Same(const void* p) {\n"
              "  return reinterpret_cast<const int*>(p);\n"
              "}\n")});
  ASSERT_EQ(findings.size(), 6u) << FormatText(findings);
  EXPECT_EQ(findings[0].line, 4);
  EXPECT_NE(findings[0].message.find("std::chrono::steady_clock::now"),
            std::string::npos)
      << findings[0].message;
  EXPECT_NE(findings[0].message.find("in Stamp;"), std::string::npos);
  EXPECT_EQ(findings[1].line, 9);  // range-for over the unordered_map
  EXPECT_EQ(findings[2].line, 10);  // m.begin()
  EXPECT_NE(findings[2].message.find("std::unordered_map::begin"),
            std::string::npos);
  EXPECT_EQ(findings[3].line, 13);  // getenv
  EXPECT_EQ(findings[4].line, 13);  // EnvInt64
  EXPECT_EQ(findings[5].line, 17);  // pointer-to-integer; the pointer cast
                                    // on line 20 is clean
}

TEST(DeterminismTaint, ClockAndFlagsSeamsAreExempt) {
  const std::vector<SourceFile> files = {
      Header("src/resilience/clock.cc",
             "#include <chrono>\n"
             "long SteadyNow() {\n"
             "  return std::chrono::steady_clock::now()\n"
             "      .time_since_epoch().count();\n"
             "}\n"),
      Header("src/util/flags.cc",
             "#include <cstdlib>\n"
             "long EnvInt64(const char* name, long fallback) {\n"
             "  const char* raw = std::getenv(name);\n"
             "  return raw == nullptr ? fallback : 1;\n"
             "}\n"),
      // Only src/ is in scope: tools and tests read clocks and the
      // environment legitimately.
      Header("tools/nbx.cc",
             "long Started() { return std::chrono::steady_clock::now()"
             ".time_since_epoch().count(); }\n"),
      Header("tests/x_test.cc",
             "long Knob() { return EnvInt64(\"NB_X\", 1); }\n"),
  };
  const auto findings = RunRuleId("determinism-taint", files);
  EXPECT_TRUE(findings.empty()) << FormatText(findings);
}

TEST(DeterminismTaint, AcceptsTheInjectableClockPattern) {
  // A checkpoint writer timestamping through Clock::NowMillis is the
  // sanctioned design -- injected time is replayable, so no finding.
  const auto findings = RunRuleId(
      "determinism-taint",
      {Header("src/resilience/run.cc",
              "struct Clock { virtual long NowMillis() = 0; };\n"
              "long StampCheckpoint(Clock& clock) {\n"
              "  return clock.NowMillis();\n"
              "}\n")});
  EXPECT_TRUE(findings.empty()) << FormatText(findings);
}

TEST(DeterminismTaint, CountingThroughTheInputIsNotIteration) {
  // Lookups into an unordered container are fine; only walking it is not.
  const auto findings = RunRuleId(
      "determinism-taint",
      {Header("src/util/u.cc",
              "#include <unordered_map>\n"
              "int Unique(const std::vector<int>& values) {\n"
              "  std::unordered_map<int, int> counts;\n"
              "  for (int v : values) ++counts[v];\n"
              "  int unique = 0;\n"
              "  for (int v : values) unique += counts[v] == 1;\n"
              "  return unique;\n"
              "}\n")});
  EXPECT_TRUE(findings.empty()) << FormatText(findings);
}

TEST(DeterminismTaint, SourcesInANamedLambdaNameTheLambda) {
  const auto findings = RunRuleId(
      "determinism-taint",
      {Header("src/util/l.cc",
              "auto Knob = [] { return std::getenv(\"K\") != nullptr; };\n")});
  ASSERT_EQ(findings.size(), 1u) << FormatText(findings);
  EXPECT_NE(findings[0].message.find("in Knob;"), std::string::npos)
      << findings[0].message;
}

// --- io-seam-discipline -----------------------------------------------------

TEST(IoSeamDiscipline, FlagsRawFileIoOutsideTheSeam) {
  const auto findings = RunRuleId(
      "io-seam-discipline",
      {Header("src/analysis/save.cc",
              "#include <cstdio>\n"
              "#include <fstream>\n"
              "void SaveStats() {\n"
              "  std::ofstream out(\"stats.txt\");\n"
              "}\n"
              "void TouchMarker() { std::fopen(\"marker\", \"w\"); }\n"
              "bool Exists() { return std::filesystem::exists(\"x\"); }\n")});
  ASSERT_EQ(findings.size(), 3u) << FormatText(findings);
  EXPECT_EQ(findings[0].file, "src/analysis/save.cc");
  EXPECT_EQ(findings[0].line, 4);
  EXPECT_NE(findings[0].message.find("(std::ofstream) in SaveStats;"),
            std::string::npos)
      << findings[0].message;
  EXPECT_NE(findings[0].message.find("failpoint::Fs"), std::string::npos);
  EXPECT_EQ(findings[1].line, 6);
  EXPECT_EQ(findings[2].line, 7);
}

TEST(IoSeamDiscipline, TheSeamAbsorbsTheEffectForItsCallers) {
  // The seam's own bodies touch the disk; a caller routing through the
  // seam stays clean, exactly like resilience/clock.h for wall-clock.
  const auto findings = RunRuleId(
      "io-seam-discipline",
      {Header("src/failpoint/fs.cc",
              "#include <fstream>\n"
              "void WriteWhole() { std::ofstream out(\"f\"); }\n"),
       Header("src/resilience/checkpoint.cc",
              "void WriteWhole();\n"
              "void WriteCheckpointAtomic() { WriteWhole(); }\n")});
  EXPECT_TRUE(findings.empty()) << FormatText(findings);
}

TEST(IoSeamDiscipline, OnlySrcIsInScope) {
  // Tests and tools read and write files legitimately (fixtures, CSV
  // plans); the seam rule polices the library and the benchmarks only.
  const auto findings = RunRuleId(
      "io-seam-discipline",
      {Header("tests/some_test.cc",
              "#include <fstream>\n"
              "void WriteFixture() { std::ofstream out(\"fixture\"); }\n"),
       Header("tools/nbtool.cc",
              "#include <fstream>\n"
              "void LoadPlan() { std::ifstream in(\"plan.csv\"); }\n"),
       Header("bench/bench_x.cc",
              "#include <fstream>\n"
              "void Dump() { std::ofstream out(\"dump.csv\"); }\n")});
  ASSERT_EQ(findings.size(), 1u) << FormatText(findings);
  EXPECT_EQ(findings[0].file, "bench/bench_x.cc");
}

TEST(IoSeamDiscipline, SuppressionAboveAnIfstreamSilencesIt) {
  // The shape nbbench uses to read /proc: the suppression comment sits on
  // its own line and targets the stream construction below it.
  const std::string body =
      "#include <fstream>\n"
      "double PeakRssMb() {\n"
      "  // NBLINT(io-seam-discipline): reads a kernel counter\n"
      "  std::ifstream status(\"/proc/self/status\");\n"
      "  return 0.0;\n"
      "}\n";
  const auto raw =
      RunRuleId("io-seam-discipline", {Header("bench/b.cc", body)});
  ASSERT_EQ(raw.size(), 1u) << FormatText(raw);
  EXPECT_EQ(raw[0].line, 4);
  const auto findings = RunAllChecks({Header("bench/b.cc", body)});
  EXPECT_TRUE(findings.empty()) << FormatText(findings);
}

// --- service-layering -------------------------------------------------------

TEST(ServiceLayering, FlagsRawSocketCallsOutsideNbserved) {
  const std::string body =
      "#include <sys/socket.h>\n"
      "int Open() {\n"
      "  int fd = socket(AF_UNIX, SOCK_STREAM, 0);\n"
      "  listen(fd, 8);\n"
      "  return fd;\n"
      "}\n";
  const auto findings = RunRuleId(
      "service-layering",
      {Header("src/service/s.cc", body), Header("tools/nbsim.cc", body),
       Header("tools/nbserved.cc", body), Header("tests/s_test.cc", body)});
  ASSERT_EQ(findings.size(), 4u) << FormatText(findings);
  EXPECT_EQ(findings[0].file, "src/service/s.cc");
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_NE(findings[0].message.find("(socket) in Open;"), std::string::npos)
      << findings[0].message;
  EXPECT_EQ(findings[2].file, "tools/nbsim.cc");
}

TEST(ServiceLayering, StdBindAndConnectMethodsAreNotSocketCalls) {
  const auto findings = RunRuleId(
      "service-layering",
      {Header("src/service/b.cc",
              "#include <functional>\n"
              "void Wire(Link& link, Handler& h) {\n"
              "  auto f = std::bind(&Handler::Run, &h);\n"
              "  link.connect(f);\n"
              "  link->shutdown();\n"
              "}\n")});
  EXPECT_TRUE(findings.empty()) << FormatText(findings);
}

}  // namespace
}  // namespace noisybeeps::lint
