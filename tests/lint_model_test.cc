// Structural-model details (model.h): named-lambda recognition and
// constructor member-brace-init handling.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "lint/model.h"

namespace noisybeeps::lint {
namespace {

FileModel Model(std::string body) {
  return FileModel::Build({"src/util/model_fixture.cc", std::move(body)});
}

const FunctionInfo* Definition(const FileModel& file,
                               const std::string& name) {
  for (const FunctionInfo& fn : file.functions()) {
    if (fn.name == name && fn.is_definition) return &fn;
  }
  return nullptr;
}

// --- named lambdas ----------------------------------------------------------

TEST(LintModelLambdas, NamespaceScopeLambdaIsADefinition) {
  const FileModel file = Model(
      "namespace noisybeeps {\n"
      "auto Twice = [](int x) { return x * 2; };\n"
      "}  // namespace noisybeeps\n");
  const FunctionInfo* fn = Definition(file, "Twice");
  ASSERT_NE(fn, nullptr);
  EXPECT_EQ(fn->qualified_name, "Twice");
  EXPECT_EQ(fn->class_name, "");
  EXPECT_EQ(fn->line, 2);
  // The body range brackets the lambda body, not the whole initializer.
  ASSERT_NE(fn->body_begin, kNpos);
  ASSERT_NE(fn->body_end, kNpos);
  EXPECT_LT(fn->body_begin, fn->body_end);
  EXPECT_EQ(file.tokens()[fn->params_begin].text, "(");
  EXPECT_EQ(file.tokens()[fn->params_end].text, ")");
}

TEST(LintModelLambdas, CaptureOnlyLambdaGetsAnEmptyParamRange) {
  const FileModel file = Model(
      "int g_total = 0;\n"
      "auto Bump = [] { g_total += 1; };\n");
  const FunctionInfo* fn = Definition(file, "Bump");
  ASSERT_NE(fn, nullptr);
  // Both ends point at the capture's ']': a well-formed empty range.
  EXPECT_EQ(fn->params_begin, fn->params_end);
  EXPECT_EQ(file.tokens()[fn->params_begin].text, "]");
}

TEST(LintModelLambdas, SpecifiersBetweenParamsAndBodyAreSkipped) {
  const FileModel file = Model(
      "auto Scale = [](double x) mutable noexcept -> double {\n"
      "  return x * 0.5;\n"
      "};\n");
  const FunctionInfo* fn = Definition(file, "Scale");
  ASSERT_NE(fn, nullptr);
  EXPECT_TRUE(fn->is_definition);
}

TEST(LintModelLambdas, BracketedInitializersAreNotLambdas) {
  // `ident = [...]` with no body following must record nothing.
  const FileModel file = Model(
      "int pick = table[0];\n"
      "int slot = [kIndex];\n");
  EXPECT_EQ(Definition(file, "pick"), nullptr);
  EXPECT_EQ(Definition(file, "slot"), nullptr);
}

// --- constructor member initializers ----------------------------------------

TEST(LintModelCtors, MemberBraceInitsAreNotTheBody) {
  const FileModel file = Model(
      "struct Widget {\n"
      "  Widget() : count_{1}, scale_{0.5} { count_ += 1; }\n"
      "  int count_;\n"
      "  double scale_;\n"
      "};\n");
  const FunctionInfo* ctor = Definition(file, "Widget");
  ASSERT_NE(ctor, nullptr);
  EXPECT_EQ(ctor->class_name, "Widget");
  // The body must start at the brace AFTER the init list, i.e. the body
  // range contains the `+=` statement and not the member initializers.
  bool saw_bump = false;
  for (std::size_t t = ctor->body_begin; t <= ctor->body_end; ++t) {
    if (file.tokens()[t].text == "+=") saw_bump = true;
    EXPECT_NE(file.tokens()[t].text, "0.5")
        << "body range swallowed the init list";
  }
  EXPECT_TRUE(saw_bump);
}

}  // namespace
}  // namespace noisybeeps::lint
