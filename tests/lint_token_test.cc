// The nblint lexer and structural model (stage one of the checker).
#include "lint/model.h"
#include "lint/token.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace noisybeeps::lint {
namespace {

// --- lexer ------------------------------------------------------------------

TEST(LintLexer, ClassifiesBasicTokenKinds) {
  const auto tokens = Lex("int x = 1.5; // done\n\"str\" 'c'");
  ASSERT_EQ(tokens.size(), 8u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ(tokens[0].text, "int");
  EXPECT_EQ(tokens[3].kind, TokenKind::kNumber);
  EXPECT_EQ(tokens[3].text, "1.5");
  EXPECT_EQ(tokens[5].kind, TokenKind::kComment);
  EXPECT_EQ(tokens[5].text, "// done");
  EXPECT_EQ(tokens[6].kind, TokenKind::kString);
  EXPECT_EQ(tokens[6].text, "\"str\"");
  EXPECT_EQ(tokens[7].kind, TokenKind::kChar);
  EXPECT_EQ(tokens[7].line, 2);
}

TEST(LintLexer, CommentsAreSingleTokensWithLineNumbers) {
  const auto tokens = Lex("a\n/* two\nlines */\nb");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[1].kind, TokenKind::kComment);
  EXPECT_EQ(tokens[1].line, 2);
  // The block comment spans lines 2-3, so 'b' sits on line 4.
  EXPECT_EQ(tokens[2].text, "b");
  EXPECT_EQ(tokens[2].line, 4);
}

TEST(LintLexer, MaximalMunchPunctuators) {
  const auto tokens = Lex("a<<=b::c->d<<e");
  std::vector<std::string> texts;
  for (const Token& t : tokens) texts.push_back(t.text);
  EXPECT_EQ(texts, (std::vector<std::string>{"a", "<<=", "b", "::", "c",
                                             "->", "d", "<<", "e"}));
}

TEST(LintLexer, DigitSeparatorIsNotACharLiteral) {
  const auto tokens = Lex("int big = 1'000'000; int after = 7;");
  ASSERT_GE(tokens.size(), 4u);
  EXPECT_EQ(tokens[3].kind, TokenKind::kNumber);
  EXPECT_EQ(tokens[3].text, "1'000'000");
  // The trailing declaration survives intact (nothing ate it as a char).
  EXPECT_EQ(tokens[tokens.size() - 2].text, "7");
}

TEST(LintLexer, RawStringsAndEscapes) {
  const auto tokens = Lex("auto a = R\"(no \"quote\" trouble)\"; int k;");
  ASSERT_GE(tokens.size(), 5u);
  EXPECT_EQ(tokens[3].kind, TokenKind::kString);
  EXPECT_EQ(StringLiteralText(tokens[3]), "no \"quote\" trouble");
  const auto esc = Lex("auto s = \"a\\\"b\"; int keep = 3;");
  EXPECT_EQ(esc[3].kind, TokenKind::kString);
  EXPECT_EQ(StringLiteralText(esc[3]), "a\\\"b");
  EXPECT_EQ(esc[esc.size() - 2].text, "3");
}

TEST(LintLexer, UnterminatedLiteralsDegradeGracefully) {
  EXPECT_FALSE(Lex("auto s = \"never closed").empty());
  EXPECT_FALSE(Lex("/* never closed").empty());
  EXPECT_FALSE(Lex("R\"(never closed").empty());
}

TEST(LintLexer, FloatLiteralClassification) {
  const auto is_float = [](const std::string& text) {
    const auto tokens = Lex(text);
    return tokens.size() == 1 && IsFloatLiteral(tokens[0]);
  };
  EXPECT_TRUE(is_float("1.5"));
  EXPECT_TRUE(is_float("1e9"));
  EXPECT_TRUE(is_float("0.5f"));
  EXPECT_TRUE(is_float("0x1p3"));  // hex float: p exponent
  EXPECT_FALSE(is_float("10"));
  EXPECT_FALSE(is_float("1'000'000"));
  EXPECT_FALSE(is_float("0x1e"));  // hex INTEGER: e is a digit, not exponent
  EXPECT_FALSE(is_float("0xFF"));
}

TEST(LintLexer, CommentTextStripsMarkers) {
  const auto tokens = Lex("// NBLINT(x): why\n/* block body */");
  EXPECT_EQ(CommentText(tokens[0]), "NBLINT(x): why");
  EXPECT_EQ(CommentText(tokens[1]), "block body");
}

// --- FileModel --------------------------------------------------------------

TEST(LintModel, ExtractsIncludesWithModules) {
  const FileModel model = FileModel::Build(
      {"src/protocol/engine.h",
       "#include <vector>\n"
       "#include \"channel/channel.h\"\n"
       "#include \"util/rng.h\"\n"
       "// #include \"fault/plan.h\" -- commented out\n"});
  ASSERT_EQ(model.includes().size(), 3u);
  EXPECT_TRUE(model.includes()[0].system);
  EXPECT_EQ(model.includes()[0].target, "vector");
  EXPECT_EQ(model.includes()[1].module, "channel");
  EXPECT_EQ(model.includes()[1].line, 2);
  EXPECT_EQ(model.includes()[2].module, "util");
  EXPECT_EQ(model.module(), "protocol");
  EXPECT_TRUE(model.is_header());
}

TEST(LintModel, FindsFunctionsAndBoundaries) {
  const FileModel model = FileModel::Build(
      {"src/channel/foo.cc",
       "int Helper(int a) { return a; }\n"
       "void Foo::Deliver(int n) {\n"
       "  Use(n);\n"
       "}\n"
       "bool Declared(int x);\n"});
  ASSERT_EQ(model.functions().size(), 3u);
  EXPECT_EQ(model.functions()[0].name, "Helper");
  EXPECT_TRUE(model.functions()[0].is_definition);
  EXPECT_EQ(model.functions()[1].qualified_name, "Foo::Deliver");
  EXPECT_EQ(model.functions()[1].class_name, "Foo");
  EXPECT_EQ(model.functions()[1].line, 2);
  EXPECT_EQ(model.functions()[2].name, "Declared");
  EXPECT_FALSE(model.functions()[2].is_definition);
}

TEST(LintModel, InClassMethodsGetTheirClassName) {
  const FileModel model = FileModel::Build(
      {"src/channel/foo.h",
       "class Chan : public Base {\n"
       " public:\n"
       "  bool Deliver(int n) { return n > 0; }\n"
       "};\n"});
  ASSERT_EQ(model.functions().size(), 1u);
  EXPECT_EQ(model.functions()[0].name, "Deliver");
  // The base clause must not hijack the class name.
  EXPECT_EQ(model.functions()[0].class_name, "Chan");
}

TEST(LintModel, CallsAreNotFunctions) {
  const FileModel model = FileModel::Build(
      {"src/util/x.cc",
       "int F() {\n"
       "  Helper(1);\n"
       "  return Other(2) + 3;\n"
       "}\n"});
  ASSERT_EQ(model.functions().size(), 1u);
  EXPECT_EQ(model.functions()[0].name, "F");
}

TEST(LintModel, ValueTypesRecordDeclarations) {
  const FileModel model = FileModel::Build(
      {"src/analysis/a.cc",
       "double rate = 0.5;\n"
       "std::ostringstream os;\n"
       "void G(double eps, float scale) {}\n"
       "double Compute(int n);\n"});
  EXPECT_EQ(model.value_types().at("rate"), "double");
  EXPECT_EQ(model.value_types().at("os"), "std::ostringstream");
  EXPECT_EQ(model.value_types().at("eps"), "double");
  EXPECT_EQ(model.value_types().at("scale"), "float");
  // Compute is a function RETURNING double, not a double variable.
  EXPECT_EQ(model.value_types().count("Compute"), 0u);
}

TEST(LintModel, LineMentionsScansCodeAndStringsOnly) {
  const FileModel model = FileModel::Build(
      {"src/tasks/t.cc",
       "Open(\"run.nbckpt\");\n"
       "int checkpoint_count = 0;\n"
       "int x = 0;  // a checkpoint remark\n"});
  EXPECT_TRUE(model.LineMentions(1, "ckpt"));
  EXPECT_TRUE(model.LineMentions(2, "checkpoint"));
  EXPECT_FALSE(model.LineMentions(3, "checkpoint"));  // comments excluded
}

// --- RepoModel --------------------------------------------------------------

TEST(LintModel, RepoGraphEdgesAndReachability) {
  const RepoModel repo({
      {"src/util/a.h", "int a();\n"},
      {"src/channel/b.h", "#include \"util/a.h\"\n"},
      {"src/protocol/c.h", "#include \"channel/b.h\"\n"},
  });
  EXPECT_EQ(repo.modules().size(), 3u);
  ASSERT_EQ(repo.edges().count("protocol"), 1u);
  EXPECT_EQ(repo.edges().at("protocol").at("channel").file,
            "src/protocol/c.h");
  EXPECT_TRUE(repo.DependsOn("protocol", "util"));  // transitive
  EXPECT_FALSE(repo.DependsOn("util", "protocol"));
}

TEST(LintModel, TypeOfConsultsThePairedHeader) {
  const RepoModel repo({
      {"src/fault/plan.h", "struct Spec { double beep_prob = 0.5; };\n"},
      {"src/fault/plan.cc", "#include \"fault/plan.h\"\nint x = 0;\n"},
  });
  const FileModel* cc = repo.FindFile("src/fault/plan.cc");
  ASSERT_NE(cc, nullptr);
  EXPECT_EQ(repo.TypeOf(*cc, "beep_prob"), "double");
  EXPECT_EQ(repo.TypeOf(*cc, "unknown"), "");
}

TEST(LintModel, CodeIndicesSkipComments) {
  const FileModel model =
      FileModel::Build({"src/util/c.cc", "// lead\nint x; /* mid */ int y;\n"});
  for (const std::size_t i : model.code()) {
    EXPECT_NE(model.tokens()[i].kind, TokenKind::kComment);
  }
  EXPECT_LT(model.code().size(), model.tokens().size());
}

}  // namespace
}  // namespace noisybeeps::lint
