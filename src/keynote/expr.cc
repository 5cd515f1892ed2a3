#include "src/keynote/expr.h"

#include <cmath>
#include <cstdlib>
#include <regex>

#include "src/keynote/lexer.h"
#include "src/util/strings.h"

namespace discfs::keynote {
namespace {

std::unique_ptr<Expr> MakeLeaf(Expr::Kind kind, std::string text) {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->text = std::move(text);
  return e;
}

std::unique_ptr<Expr> MakeNode(Expr::Kind kind,
                               std::unique_ptr<Expr> a,
                               std::unique_ptr<Expr> b = nullptr) {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->children.push_back(std::move(a));
  if (b != nullptr) {
    e->children.push_back(std::move(b));
  }
  return e;
}

// Recursive-descent parser over the token stream. Also used for the
// Conditions program structure (clauses / nested braces).
class Parser {
 public:
  Parser(std::vector<Token> tokens, const ConstantMap& constants)
      : tokens_(std::move(tokens)), constants_(constants) {}

  Result<std::unique_ptr<Expr>> ParseFullExpression() {
    ASSIGN_OR_RETURN(std::unique_ptr<Expr> e, ParseTest());
    RETURN_IF_ERROR(Expect(TokenKind::kEnd));
    return e;
  }

  Result<ConditionsProgram> ParseFullProgram() {
    ASSIGN_OR_RETURN(ConditionsProgram p, ParseProgram(/*nested=*/false));
    RETURN_IF_ERROR(Expect(TokenKind::kEnd));
    return p;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  Token Take() { return tokens_[pos_++]; }
  bool At(TokenKind k) const { return Peek().kind == k; }
  bool Accept(TokenKind k) {
    if (At(k)) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status Expect(TokenKind k) {
    if (!Accept(k)) {
      return InvalidArgumentError(
          StrPrintf("expected %s but found %s at offset %zu",
                    TokenKindName(k), TokenKindName(Peek().kind), Peek().pos));
    }
    return OkStatus();
  }

  Result<ConditionsProgram> ParseProgram(bool nested) {
    ConditionsProgram program;
    while (true) {
      // Allow empty programs and trailing semicolons.
      if (At(TokenKind::kEnd) || (nested && At(TokenKind::kRBrace))) {
        break;
      }
      if (Accept(TokenKind::kSemi)) {
        continue;
      }
      ASSIGN_OR_RETURN(ConditionsClause clause, ParseClause());
      program.clauses.push_back(std::move(clause));
      if (!At(TokenKind::kSemi) &&
          !(At(TokenKind::kEnd) || (nested && At(TokenKind::kRBrace)))) {
        return InvalidArgumentError(
            StrPrintf("expected ';' between clauses at offset %zu",
                      Peek().pos));
      }
    }
    return program;
  }

  Result<ConditionsClause> ParseClause() {
    ConditionsClause clause;
    ASSIGN_OR_RETURN(clause.test, ParseTest());
    if (Accept(TokenKind::kArrow)) {
      if (At(TokenKind::kString)) {
        clause.value_name = Take().text;
      } else if (Accept(TokenKind::kLBrace)) {
        ASSIGN_OR_RETURN(ConditionsProgram sub, ParseProgram(/*nested=*/true));
        RETURN_IF_ERROR(Expect(TokenKind::kRBrace));
        clause.subprogram =
            std::make_unique<ConditionsProgram>(std::move(sub));
      } else {
        return InvalidArgumentError(StrPrintf(
            "expected return value string or '{' after '->' at offset %zu",
            Peek().pos));
      }
    }
    return clause;
  }

  Result<std::unique_ptr<Expr>> ParseTest() { return ParseOr(); }

  Result<std::unique_ptr<Expr>> ParseOr() {
    ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseAnd());
    while (Accept(TokenKind::kOrOr)) {
      ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseAnd());
      lhs = MakeNode(Expr::Kind::kOr, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<std::unique_ptr<Expr>> ParseAnd() {
    ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseNot());
    while (Accept(TokenKind::kAndAnd)) {
      ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseNot());
      lhs = MakeNode(Expr::Kind::kAnd, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<std::unique_ptr<Expr>> ParseNot() {
    if (Accept(TokenKind::kNot)) {
      ASSIGN_OR_RETURN(std::unique_ptr<Expr> e, ParseNot());
      return MakeNode(Expr::Kind::kNot, std::move(e));
    }
    return ParseComparison();
  }

  Result<std::unique_ptr<Expr>> ParseComparison() {
    ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseConcat());
    Expr::CmpOp op;
    switch (Peek().kind) {
      case TokenKind::kEq:
        op = Expr::CmpOp::kEq;
        break;
      case TokenKind::kNe:
        op = Expr::CmpOp::kNe;
        break;
      case TokenKind::kLt:
        op = Expr::CmpOp::kLt;
        break;
      case TokenKind::kGt:
        op = Expr::CmpOp::kGt;
        break;
      case TokenKind::kLe:
        op = Expr::CmpOp::kLe;
        break;
      case TokenKind::kGe:
        op = Expr::CmpOp::kGe;
        break;
      case TokenKind::kRegex:
        op = Expr::CmpOp::kRegex;
        break;
      default:
        return lhs;  // bare value/boolean expression
    }
    Take();
    ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseConcat());
    auto node = MakeNode(Expr::Kind::kCompare, std::move(lhs), std::move(rhs));
    node->cmp_op = op;
    return node;
  }

  Result<std::unique_ptr<Expr>> ParseConcat() {
    ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseAdditive());
    while (Accept(TokenKind::kDot)) {
      ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseAdditive());
      lhs = MakeNode(Expr::Kind::kConcat, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<std::unique_ptr<Expr>> ParseAdditive() {
    ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseMultiplicative());
    while (At(TokenKind::kPlus) || At(TokenKind::kMinus)) {
      char op = Take().text[0];
      ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseMultiplicative());
      auto node = MakeNode(Expr::Kind::kArith, std::move(lhs), std::move(rhs));
      node->arith_op = op;
      lhs = std::move(node);
    }
    return lhs;
  }

  Result<std::unique_ptr<Expr>> ParseMultiplicative() {
    ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParsePower());
    while (At(TokenKind::kStar) || At(TokenKind::kSlash) ||
           At(TokenKind::kPercent)) {
      char op = Take().text[0];
      ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParsePower());
      auto node = MakeNode(Expr::Kind::kArith, std::move(lhs), std::move(rhs));
      node->arith_op = op;
      lhs = std::move(node);
    }
    return lhs;
  }

  Result<std::unique_ptr<Expr>> ParsePower() {
    ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseUnary());
    if (Accept(TokenKind::kCaret)) {
      ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParsePower());  // right-assoc
      auto node = MakeNode(Expr::Kind::kArith, std::move(lhs), std::move(rhs));
      node->arith_op = '^';
      return node;
    }
    return lhs;
  }

  Result<std::unique_ptr<Expr>> ParseUnary() {
    if (Accept(TokenKind::kMinus)) {
      ASSIGN_OR_RETURN(std::unique_ptr<Expr> e, ParseUnary());
      return MakeNode(Expr::Kind::kNegate, std::move(e));
    }
    return ParsePrimary();
  }

  Result<std::unique_ptr<Expr>> ParsePrimary() {
    if (At(TokenKind::kString)) {
      return MakeLeaf(Expr::Kind::kStringLit, Take().text);
    }
    if (At(TokenKind::kNumber)) {
      return MakeLeaf(Expr::Kind::kStringLit, Take().text);
    }
    if (At(TokenKind::kIdent)) {
      Token t = Take();
      if (t.text == "true" || t.text == "false") {
        return MakeLeaf(Expr::Kind::kBoolLit, t.text);
      }
      // Local-Constants substitution happens here, at parse time.
      auto it = constants_.find(t.text);
      if (it != constants_.end()) {
        return MakeLeaf(Expr::Kind::kStringLit, it->second);
      }
      return MakeLeaf(Expr::Kind::kAttr, t.text);
    }
    if (Accept(TokenKind::kDollar)) {
      ASSIGN_OR_RETURN(std::unique_ptr<Expr> e, ParsePrimary());
      return MakeNode(Expr::Kind::kIndirect, std::move(e));
    }
    if (Accept(TokenKind::kLParen)) {
      ASSIGN_OR_RETURN(std::unique_ptr<Expr> e, ParseTest());
      RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      return e;
    }
    return InvalidArgumentError(
        StrPrintf("unexpected %s at offset %zu", TokenKindName(Peek().kind),
                  Peek().pos));
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  const ConstantMap& constants_;
};

// ---- evaluation ----

Result<std::string> AsString(const EvalValue& v) {
  if (std::holds_alternative<bool>(v)) {
    return InvalidArgumentError("boolean used where a value was expected");
  }
  return std::get<std::string>(v);
}

Result<bool> AsBool(const EvalValue& v) {
  if (std::holds_alternative<bool>(v)) {
    return std::get<bool>(v);
  }
  return InvalidArgumentError("value used where a boolean was expected");
}

// Strict full-string numeric parse: a finite decimal number,
// [+-]? (digits [. digits?] | . digits) ([eE] [+-]? digits)?. strtod's
// wider syntax (leading whitespace, hex, "inf", "nan") is not KeyNote's,
// and a NaN operand would make `==` true against every number.
std::optional<double> ParseNumber(const std::string& s) {
  auto is_digit = [](char c) { return c >= '0' && c <= '9'; };
  size_t i = 0;
  auto skip_digits = [&] {
    size_t start = i;
    while (i < s.size() && is_digit(s[i])) {
      ++i;
    }
    return i - start;
  };
  if (i < s.size() && (s[i] == '+' || s[i] == '-')) {
    ++i;
  }
  size_t mantissa_digits = skip_digits();
  if (i < s.size() && s[i] == '.') {
    ++i;
    mantissa_digits += skip_digits();
  }
  if (mantissa_digits == 0) {
    return std::nullopt;
  }
  if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
    ++i;
    if (i < s.size() && (s[i] == '+' || s[i] == '-')) {
      ++i;
    }
    if (skip_digits() == 0) {
      return std::nullopt;
    }
  }
  if (i != s.size()) {
    return std::nullopt;
  }
  double v = std::strtod(s.c_str(), nullptr);
  if (!std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

std::string FormatNumber(double v) {
  // Integral results print without a decimal point so string round-trips
  // (e.g. HANDLE arithmetic) behave predictably.
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 1e15) {
    return StrPrintf("%lld", static_cast<long long>(v));
  }
  return StrPrintf("%.17g", v);
}

}  // namespace

Result<std::unique_ptr<Expr>> ParseExpression(std::string_view text,
                                              const ConstantMap& constants) {
  ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(std::move(tokens), constants);
  return parser.ParseFullExpression();
}

Result<ConditionsProgram> ParseConditions(std::string_view text,
                                          const ConstantMap& constants) {
  ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(std::move(tokens), constants);
  return parser.ParseFullProgram();
}

std::string EqualityKey(const std::string& value) {
  std::optional<double> n = ParseNumber(value);
  if (!n.has_value()) {
    return "s" + value;
  }
  // %.17g prints distinct doubles distinctly; -0 == 0 shares 0's key.
  return StrPrintf("n%.17g", *n == 0 ? 0.0 : *n);
}

Result<EvalValue> EvalExpr(const Expr& expr, const AttributeMap& env) {
  switch (expr.kind) {
    case Expr::Kind::kStringLit:
      return EvalValue(expr.text);
    case Expr::Kind::kBoolLit:
      return EvalValue(expr.text == "true");
    case Expr::Kind::kAttr: {
      auto it = env.find(expr.text);
      // RFC 2704: undefined attributes evaluate to the empty string.
      return EvalValue(it == env.end() ? std::string() : it->second);
    }
    case Expr::Kind::kIndirect: {
      ASSIGN_OR_RETURN(EvalValue inner, EvalExpr(*expr.children[0], env));
      ASSIGN_OR_RETURN(std::string name, AsString(inner));
      auto it = env.find(name);
      return EvalValue(it == env.end() ? std::string() : it->second);
    }
    case Expr::Kind::kAnd: {
      ASSIGN_OR_RETURN(EvalValue l, EvalExpr(*expr.children[0], env));
      ASSIGN_OR_RETURN(bool lb, AsBool(l));
      if (!lb) {
        return EvalValue(false);  // short-circuit
      }
      ASSIGN_OR_RETURN(EvalValue r, EvalExpr(*expr.children[1], env));
      ASSIGN_OR_RETURN(bool rb, AsBool(r));
      return EvalValue(rb);
    }
    case Expr::Kind::kOr: {
      ASSIGN_OR_RETURN(EvalValue l, EvalExpr(*expr.children[0], env));
      ASSIGN_OR_RETURN(bool lb, AsBool(l));
      if (lb) {
        return EvalValue(true);
      }
      ASSIGN_OR_RETURN(EvalValue r, EvalExpr(*expr.children[1], env));
      ASSIGN_OR_RETURN(bool rb, AsBool(r));
      return EvalValue(rb);
    }
    case Expr::Kind::kNot: {
      ASSIGN_OR_RETURN(EvalValue v, EvalExpr(*expr.children[0], env));
      ASSIGN_OR_RETURN(bool b, AsBool(v));
      return EvalValue(!b);
    }
    case Expr::Kind::kCompare: {
      ASSIGN_OR_RETURN(EvalValue lv, EvalExpr(*expr.children[0], env));
      ASSIGN_OR_RETURN(EvalValue rv, EvalExpr(*expr.children[1], env));
      ASSIGN_OR_RETURN(std::string ls, AsString(lv));
      ASSIGN_OR_RETURN(std::string rs, AsString(rv));
      if (expr.cmp_op == Expr::CmpOp::kRegex) {
        try {
          std::regex re(rs, std::regex::extended);
          return EvalValue(std::regex_search(ls, re));
        } catch (const std::regex_error&) {
          return InvalidArgumentError("invalid regular expression: " + rs);
        }
      }
      int cmp;
      auto ln = ParseNumber(ls);
      auto rn = ParseNumber(rs);
      if (ln.has_value() && rn.has_value()) {
        cmp = (*ln < *rn) ? -1 : (*ln > *rn ? 1 : 0);
      } else {
        cmp = ls.compare(rs);
        cmp = cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
      }
      switch (expr.cmp_op) {
        case Expr::CmpOp::kEq:
          return EvalValue(cmp == 0);
        case Expr::CmpOp::kNe:
          return EvalValue(cmp != 0);
        case Expr::CmpOp::kLt:
          return EvalValue(cmp < 0);
        case Expr::CmpOp::kGt:
          return EvalValue(cmp > 0);
        case Expr::CmpOp::kLe:
          return EvalValue(cmp <= 0);
        case Expr::CmpOp::kGe:
          return EvalValue(cmp >= 0);
        case Expr::CmpOp::kRegex:
          break;  // handled above
      }
      return InternalError("unreachable comparison op");
    }
    case Expr::Kind::kConcat: {
      ASSIGN_OR_RETURN(EvalValue lv, EvalExpr(*expr.children[0], env));
      ASSIGN_OR_RETURN(EvalValue rv, EvalExpr(*expr.children[1], env));
      ASSIGN_OR_RETURN(std::string ls, AsString(lv));
      ASSIGN_OR_RETURN(std::string rs, AsString(rv));
      return EvalValue(ls + rs);
    }
    case Expr::Kind::kArith: {
      ASSIGN_OR_RETURN(EvalValue lv, EvalExpr(*expr.children[0], env));
      ASSIGN_OR_RETURN(EvalValue rv, EvalExpr(*expr.children[1], env));
      ASSIGN_OR_RETURN(std::string ls, AsString(lv));
      ASSIGN_OR_RETURN(std::string rs, AsString(rv));
      auto ln = ParseNumber(ls);
      auto rn = ParseNumber(rs);
      if (!ln.has_value() || !rn.has_value()) {
        return InvalidArgumentError("non-numeric operand in arithmetic");
      }
      double result;
      switch (expr.arith_op) {
        case '+':
          result = *ln + *rn;
          break;
        case '-':
          result = *ln - *rn;
          break;
        case '*':
          result = *ln * *rn;
          break;
        case '/':
          if (*rn == 0) {
            return InvalidArgumentError("division by zero");
          }
          result = *ln / *rn;
          break;
        case '%':
          if (*rn == 0) {
            return InvalidArgumentError("modulo by zero");
          }
          result = std::fmod(*ln, *rn);
          break;
        case '^':
          result = std::pow(*ln, *rn);
          break;
        default:
          return InternalError("unknown arithmetic op");
      }
      return EvalValue(FormatNumber(result));
    }
    case Expr::Kind::kNegate: {
      ASSIGN_OR_RETURN(EvalValue v, EvalExpr(*expr.children[0], env));
      ASSIGN_OR_RETURN(std::string s, AsString(v));
      auto n = ParseNumber(s);
      if (!n.has_value()) {
        return InvalidArgumentError("non-numeric operand to unary minus");
      }
      return EvalValue(FormatNumber(-*n));
    }
  }
  return InternalError("unreachable expression kind");
}

ComplianceLattice::Value EvalConditions(const ConditionsProgram& program,
                                        const AttributeMap& env,
                                        const ComplianceLattice& lattice) {
  // An empty Conditions field imposes no restrictions.
  if (program.clauses.empty()) {
    return lattice.Top();
  }
  ComplianceLattice::Value acc = lattice.Bottom();
  for (const ConditionsClause& clause : program.clauses) {
    Result<EvalValue> test = EvalExpr(*clause.test, env);
    if (!test.ok()) {
      continue;  // clause error => contributes bottom
    }
    auto as_bool = std::get_if<bool>(&test.value());
    if (as_bool == nullptr || !*as_bool) {
      continue;
    }
    ComplianceLattice::Value clause_value;
    if (clause.value_name.has_value()) {
      auto v = lattice.FromName(*clause.value_name);
      if (!v.has_value()) {
        continue;  // unknown return value name => bottom
      }
      clause_value = *v;
    } else if (clause.subprogram != nullptr) {
      clause_value = EvalConditions(*clause.subprogram, env, lattice);
    } else {
      clause_value = lattice.Top();
    }
    acc = lattice.Join(acc, clause_value);
  }
  return acc;
}

}  // namespace discfs::keynote
