#include "src/keynote/expr.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/keynote/lexer.h"

namespace discfs::keynote {
namespace {

// Helper: evaluate a boolean test expression against an environment.
bool EvalBool(const std::string& text, const AttributeMap& env) {
  auto expr = ParseExpression(text, {});
  EXPECT_TRUE(expr.ok()) << text << ": " << expr.status();
  auto v = EvalExpr(**expr, env);
  EXPECT_TRUE(v.ok()) << text << ": " << v.status();
  EXPECT_TRUE(std::holds_alternative<bool>(*v)) << text;
  return std::get<bool>(*v);
}

std::string EvalString(const std::string& text, const AttributeMap& env) {
  auto expr = ParseExpression(text, {});
  EXPECT_TRUE(expr.ok()) << text << ": " << expr.status();
  auto v = EvalExpr(**expr, env);
  EXPECT_TRUE(v.ok()) << text << ": " << v.status();
  EXPECT_TRUE(std::holds_alternative<std::string>(*v)) << text;
  return std::get<std::string>(*v);
}

TEST(Lexer, BasicTokens) {
  auto tokens = Tokenize("(a == \"b\") && !c || d -> ;");
  ASSERT_TRUE(tokens.ok());
  std::vector<TokenKind> kinds;
  for (const auto& t : *tokens) {
    kinds.push_back(t.kind);
  }
  EXPECT_EQ(kinds,
            (std::vector<TokenKind>{
                TokenKind::kLParen, TokenKind::kIdent, TokenKind::kEq,
                TokenKind::kString, TokenKind::kRParen, TokenKind::kAndAnd,
                TokenKind::kNot, TokenKind::kIdent, TokenKind::kOrOr,
                TokenKind::kIdent, TokenKind::kArrow, TokenKind::kSemi,
                TokenKind::kEnd}));
}

TEST(Lexer, StringEscapes) {
  auto tokens = Tokenize(R"("a\"b\\c\nd")");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "a\"b\\c\nd");
}

TEST(Lexer, UnterminatedStringRejected) {
  EXPECT_FALSE(Tokenize("\"abc").ok());
}

TEST(Lexer, KOfRecognizedOnlyBeforeParen) {
  auto tokens = Tokenize("2-of(\"a\",\"b\")");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kKOf);
  EXPECT_EQ((*tokens)[0].text, "2");

  // Without a following '(', "5-off" is number minus identifier.
  tokens = Tokenize("5-off");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kNumber);
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kMinus);
  EXPECT_EQ((*tokens)[2].kind, TokenKind::kIdent);
}

TEST(Lexer, RejectsUnknownCharacter) {
  EXPECT_FALSE(Tokenize("a # b").ok());
}

// ---- expression evaluation ----

TEST(Expr, StringEquality) {
  AttributeMap env{{"app_domain", "DisCFS"}};
  EXPECT_TRUE(EvalBool("app_domain == \"DisCFS\"", env));
  EXPECT_FALSE(EvalBool("app_domain == \"IPsec\"", env));
  EXPECT_TRUE(EvalBool("app_domain != \"IPsec\"", env));
}

TEST(Expr, UndefinedAttributeIsEmptyString) {
  EXPECT_TRUE(EvalBool("nonexistent == \"\"", {}));
  EXPECT_FALSE(EvalBool("nonexistent == \"x\"", {}));
}

TEST(Expr, NumericComparisonWhenBothNumeric) {
  AttributeMap env{{"count", "10"}};
  // Lexicographically "10" < "9"; numerically 10 > 9. Dynamic typing must
  // pick numeric here.
  EXPECT_TRUE(EvalBool("count > 9", env));
  EXPECT_TRUE(EvalBool("count >= 10", env));
  EXPECT_FALSE(EvalBool("count < 10", env));
  EXPECT_TRUE(EvalBool("count <= 10", env));
  EXPECT_TRUE(EvalBool("count == 10.0", env));
}

TEST(Expr, NumbersAreFiniteDecimals) {
  // strtod also reads "nan", hex and leading whitespace. None of them is a
  // KeyNote number, and a NaN operand compared equal to every number.
  AttributeMap five{{"HANDLE", "5"}};
  EXPECT_FALSE(EvalBool("HANDLE == \"nan\"", five));
  EXPECT_FALSE(EvalBool("HANDLE == \"0x5\"", five));
  EXPECT_FALSE(EvalBool("HANDLE == \" 5\"", five));
  EXPECT_FALSE(EvalBool("HANDLE == \"777\"", {{"HANDLE", "nan"}}));
  // Decimal spellings of one number still compare equal.
  EXPECT_TRUE(EvalBool("HANDLE == \"05\"", five));
  EXPECT_TRUE(EvalBool("HANDLE == \"5.0\"", five));
  EXPECT_TRUE(EvalBool("HANDLE == \"0.5e1\"", five));
}

TEST(Expr, EqualityKeyPartitionsLikeEquality) {
  // Decimal spellings of a few numbers.
  std::vector<std::string> values = {"5", "05", "5.0", "0.5e1", "+5", "5."};
  values.insert(values.end(), {"0", "-0", "+0.0", ".5", "0.5", "1", "1e0"});
  // strtod's syntax that KeyNote does not read as a number, and strings.
  values.insert(values.end(), {"nan", "NaN", "inf", "0x5", " 5", "5 "});
  values.insert(values.end(), {"1e999", "-1e999", "e5", "1e", "."});
  values.insert(values.end(), {"-", "", "abc"});
  for (const std::string& a : values) {
    for (const std::string& b : values) {
      AttributeMap env{{"a", a}, {"b", b}};
      EXPECT_EQ(EvalBool("a == b", env), EqualityKey(a) == EqualityKey(b))
          << "\"" << a << "\" vs \"" << b << "\"";
    }
  }
}

TEST(Expr, LexicographicWhenNotNumeric) {
  AttributeMap env{{"t", "20010523"}};
  EXPECT_TRUE(EvalBool("t < \"20020101\"", env));
  EXPECT_TRUE(EvalBool("\"abc\" < \"abd\"", {}));
  // Mixed numeric/non-numeric falls back to string comparison.
  EXPECT_TRUE(EvalBool("\"10x\" < \"9\"", {}));
}

TEST(Expr, BooleanConnectives) {
  AttributeMap env{{"a", "1"}, {"b", "2"}};
  EXPECT_TRUE(EvalBool("a == 1 && b == 2", env));
  EXPECT_FALSE(EvalBool("a == 1 && b == 3", env));
  EXPECT_TRUE(EvalBool("a == 9 || b == 2", env));
  EXPECT_TRUE(EvalBool("!(a == 9)", env));
  EXPECT_TRUE(EvalBool("true", env));
  EXPECT_FALSE(EvalBool("false", env));
}

TEST(Expr, OperatorPrecedenceAndOverOr) {
  // || binds looser than &&: false && false || true == true.
  EXPECT_TRUE(EvalBool("false && false || true", {}));
  EXPECT_FALSE(EvalBool("false && (false || true)", {}));
}

TEST(Expr, Arithmetic) {
  EXPECT_EQ(EvalString("1 + 2 * 3", {}), "7");
  EXPECT_EQ(EvalString("(1 + 2) * 3", {}), "9");
  EXPECT_EQ(EvalString("10 / 4", {}), "2.5");
  EXPECT_EQ(EvalString("10 % 3", {}), "1");
  EXPECT_EQ(EvalString("2 ^ 10", {}), "1024");
  EXPECT_EQ(EvalString("-5 + 3", {}), "-2");
  EXPECT_EQ(EvalString("2 ^ 3 ^ 2", {}), "512");  // right-associative
}

TEST(Expr, ArithmeticOnAttributes) {
  AttributeMap env{{"size", "4096"}};
  EXPECT_TRUE(EvalBool("size / 2 == 2048", env));
}

TEST(Expr, DivisionByZeroIsError) {
  auto expr = ParseExpression("1 / 0 == 1", {});
  ASSERT_TRUE(expr.ok());
  EXPECT_FALSE(EvalExpr(**expr, {}).ok());
}

TEST(Expr, NonNumericArithmeticIsError) {
  auto expr = ParseExpression("\"abc\" + 1 == 1", {});
  ASSERT_TRUE(expr.ok());
  EXPECT_FALSE(EvalExpr(**expr, {}).ok());
}

TEST(Expr, TypeMismatchBooleanWhereValueExpected) {
  auto expr = ParseExpression("(a == \"b\") + 1 == 2", {});
  ASSERT_TRUE(expr.ok());
  EXPECT_FALSE(EvalExpr(**expr, {}).ok());
}

TEST(Expr, StringConcat) {
  AttributeMap env{{"dir", "testdir"}};
  EXPECT_EQ(EvalString("\"/discfs/\" . dir", env), "/discfs/testdir");
  EXPECT_TRUE(EvalBool("\"a\" . \"b\" == \"ab\"", env));
}

TEST(Expr, RegexMatch) {
  AttributeMap env{{"file", "kernel.c"}};
  EXPECT_TRUE(EvalBool("file ~= \"\\.c$\"", env));
  EXPECT_FALSE(EvalBool("file ~= \"\\.h$\"", env));
  EXPECT_TRUE(EvalBool("file ~= \"^kern\"", env));
}

TEST(Expr, BadRegexIsError) {
  auto expr = ParseExpression("a ~= \"[\"", {});
  ASSERT_TRUE(expr.ok());
  EXPECT_FALSE(EvalExpr(**expr, {}).ok());
}

TEST(Expr, Indirection) {
  AttributeMap env{{"selector", "inner"}, {"inner", "42"}};
  EXPECT_TRUE(EvalBool("$selector == 42", env));
  EXPECT_TRUE(EvalBool("$(\"inner\") == 42", env));
}

TEST(Expr, LocalConstantsSubstitution) {
  ConstantMap constants{{"ADMIN", "dsa-hex:cafe"}};
  auto expr = ParseExpression("ADMIN == \"dsa-hex:cafe\"", constants);
  ASSERT_TRUE(expr.ok());
  auto v = EvalExpr(**expr, {});
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(std::get<bool>(*v));
}

TEST(Expr, ParseErrors) {
  EXPECT_FALSE(ParseExpression("a ==", {}).ok());
  EXPECT_FALSE(ParseExpression("(a == \"b\"", {}).ok());
  EXPECT_FALSE(ParseExpression("&& a", {}).ok());
  EXPECT_FALSE(ParseExpression("", {}).ok());
}

// ---- Conditions programs ----

ComplianceLattice::Value RunConditions(const std::string& text,
                                       const AttributeMap& env) {
  auto program = ParseConditions(text, {});
  EXPECT_TRUE(program.ok()) << text << ": " << program.status();
  return EvalConditions(*program, env, PermissionLattice::Get());
}

TEST(Conditions, PaperFigure5Credential) {
  // The exact conditions from the paper's Figure 5.
  std::string conditions =
      "(app_domain == \"DisCFS\") && (HANDLE == \"666240\") -> \"RWX\";";
  AttributeMap env{{"app_domain", "DisCFS"}, {"HANDLE", "666240"}};
  EXPECT_EQ(RunConditions(conditions, env), 7u);  // RWX

  env["HANDLE"] = "999999";
  EXPECT_EQ(RunConditions(conditions, env), 0u);  // false
}

TEST(Conditions, MultipleClausesJoin) {
  // Two clauses granting R and W respectively both fire: join = RW.
  std::string conditions =
      "op == \"read\" || op == \"any\" -> \"R\"; "
      "op == \"write\" || op == \"any\" -> \"W\";";
  EXPECT_EQ(RunConditions(conditions, {{"op", "any"}}), 6u);   // RW
  EXPECT_EQ(RunConditions(conditions, {{"op", "read"}}), 4u);  // R
  EXPECT_EQ(RunConditions(conditions, {{"op", "none"}}), 0u);
}

TEST(Conditions, BareTestYieldsTop) {
  EXPECT_EQ(RunConditions("handle == \"1\";", {{"handle", "1"}}), 7u);
  EXPECT_EQ(RunConditions("handle == \"1\"", {{"handle", "2"}}), 0u);
}

TEST(Conditions, EmptyProgramYieldsTop) {
  EXPECT_EQ(RunConditions("", {}), 7u);
  EXPECT_EQ(RunConditions("   ", {}), 7u);
}

TEST(Conditions, NestedBraceProgram) {
  std::string conditions =
      "app_domain == \"DisCFS\" -> { handle == \"5\" -> \"RW\"; "
      "handle == \"6\" -> \"R\"; };";
  EXPECT_EQ(RunConditions(conditions,
                          {{"app_domain", "DisCFS"}, {"handle", "5"}}),
            6u);
  EXPECT_EQ(RunConditions(conditions,
                          {{"app_domain", "DisCFS"}, {"handle", "6"}}),
            4u);
  EXPECT_EQ(RunConditions(conditions,
                          {{"app_domain", "other"}, {"handle", "5"}}),
            0u);
}

TEST(Conditions, UnknownReturnValueCountsAsBottom) {
  EXPECT_EQ(RunConditions("true -> \"SUPERUSER\";", {}), 0u);
}

TEST(Conditions, ErroringClauseDoesNotPoisonOthers) {
  std::string conditions =
      "1/0 == 1 -> \"RWX\"; op == \"read\" -> \"R\";";
  EXPECT_EQ(RunConditions(conditions, {{"op", "read"}}), 4u);
}

TEST(Conditions, TimeOfDayPolicy) {
  // The paper's example: leisure files unavailable during office hours.
  std::string conditions =
      "(app_domain == \"DisCFS\") && "
      "(time_of_day < \"0900\" || time_of_day >= \"1700\") -> \"R\";";
  EXPECT_EQ(RunConditions(conditions, {{"app_domain", "DisCFS"},
                                       {"time_of_day", "0830"}}),
            4u);
  EXPECT_EQ(RunConditions(conditions, {{"app_domain", "DisCFS"},
                                       {"time_of_day", "1200"}}),
            0u);
  EXPECT_EQ(RunConditions(conditions, {{"app_domain", "DisCFS"},
                                       {"time_of_day", "2300"}}),
            4u);
}

TEST(Conditions, TotalOrderLatticeValues) {
  TotalOrderLattice lattice({"false", "maybe", "true"});
  auto program = ParseConditions(
      "a == \"1\" -> \"maybe\"; b == \"1\" -> \"true\";", {});
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(EvalConditions(*program, {{"a", "1"}}, lattice), 1u);
  EXPECT_EQ(EvalConditions(*program, {{"b", "1"}}, lattice), 2u);
  EXPECT_EQ(EvalConditions(*program, {{"a", "1"}, {"b", "1"}}, lattice), 2u);
  EXPECT_EQ(EvalConditions(*program, {}, lattice), 0u);
}

TEST(Conditions, TrailingSemicolonsAndWhitespace) {
  EXPECT_EQ(RunConditions(" ;; true -> \"R\" ;; ", {}), 4u);
}

// ---- lattice laws ----

TEST(PermissionLatticeTest, NamesRoundTrip) {
  const auto& lat = PermissionLattice::Get();
  for (uint32_t v = 0; v < 8; ++v) {
    auto back = lat.FromName(lat.Name(v));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, v);
  }
  EXPECT_FALSE(lat.FromName("RWRW").has_value());
  EXPECT_EQ(lat.FromName("true"), lat.Top());
}

TEST(PermissionLatticeTest, OctalCorrespondence) {
  const auto& lat = PermissionLattice::Get();
  EXPECT_EQ(lat.FromName("R"), 4u);
  EXPECT_EQ(lat.FromName("W"), 2u);
  EXPECT_EQ(lat.FromName("X"), 1u);
  EXPECT_EQ(lat.FromName("RWX"), 7u);
  EXPECT_EQ(lat.FromName("false"), 0u);
}

TEST(PermissionLatticeTest, LatticeLaws) {
  const auto& lat = PermissionLattice::Get();
  for (uint32_t a = 0; a < 8; ++a) {
    for (uint32_t b = 0; b < 8; ++b) {
      EXPECT_EQ(lat.Meet(a, b), lat.Meet(b, a));
      EXPECT_EQ(lat.Join(a, b), lat.Join(b, a));
      // Absorption.
      EXPECT_EQ(lat.Join(a, lat.Meet(a, b)), a);
      EXPECT_EQ(lat.Meet(a, lat.Join(a, b)), a);
      for (uint32_t c = 0; c < 8; ++c) {
        EXPECT_EQ(lat.Meet(a, lat.Meet(b, c)), lat.Meet(lat.Meet(a, b), c));
        EXPECT_EQ(lat.Join(a, lat.Join(b, c)), lat.Join(lat.Join(a, b), c));
      }
    }
  }
}

TEST(TotalOrderLatticeTest, MeetJoinAreMinMax) {
  TotalOrderLattice lat({"no", "ro", "rw"});
  EXPECT_EQ(lat.Meet(0, 2), 0u);
  EXPECT_EQ(lat.Join(0, 2), 2u);
  EXPECT_EQ(lat.Bottom(), 0u);
  EXPECT_EQ(lat.Top(), 2u);
  EXPECT_EQ(lat.Name(1), "ro");
}

}  // namespace
}  // namespace discfs::keynote
