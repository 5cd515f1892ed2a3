// The KeyNote Conditions expression language (RFC 2704 §7, pragmatic
// variant).
//
// Differences from the RFC, documented here once:
//  * Typing is dynamic: a comparison is numeric when BOTH operands are
//    finite decimal numbers, lexicographic otherwise (the RFC separates
//    numeric and string productions syntactically).
//  * Runtime errors (type mismatch, division by zero, bad regex, unknown
//    return value name) make the enclosing clause evaluate to the lattice
//    bottom, mirroring the RFC rule that assertion errors yield _MIN_TRUST.
//  * Undefined attributes evaluate to the empty string (RFC-conformant).
//
// Grammar (precedence low to high):
//   program    := clause (';' clause)* [';']
//   clause     := test ['->' (STRING | '{' program '}')]
//   test       := or_expr
//   or_expr    := and_expr ('||' and_expr)*
//   and_expr   := not_expr ('&&' not_expr)*
//   not_expr   := '!' not_expr | comparison
//   comparison := concat (cmp_op concat)?          cmp_op: == != < > <= >= ~=
//   concat     := additive ('.' additive)*
//   additive   := multiplicative (('+'|'-') multiplicative)*
//   multiplicative := power (('*'|'/'|'%') power)*
//   power      := unary ('^' power)?
//   unary      := '-' unary | primary
//   primary    := STRING | NUMBER | IDENT | 'true' | 'false'
//              | '$' primary | '(' test ')'
#ifndef DISCFS_SRC_KEYNOTE_EXPR_H_
#define DISCFS_SRC_KEYNOTE_EXPR_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "src/keynote/lattice.h"
#include "src/util/status.h"

namespace discfs::keynote {

// The action attribute set: name -> string value.
using AttributeMap = std::map<std::string, std::string>;

// Values computed while evaluating expressions: booleans (from tests) or
// strings (attributes, literals, arithmetic results rendered as strings).
using EvalValue = std::variant<bool, std::string>;

class Expr {
 public:
  enum class Kind {
    kStringLit,  // text
    kAttr,       // text = attribute name
    kBoolLit,    // text = "true"/"false"
    kIndirect,   // $child — attribute named by child's string value
    kAnd,
    kOr,
    kNot,
    kCompare,  // op
    kConcat,
    kArith,  // op in + - * / % ^
    kNegate,
  };

  enum class CmpOp { kEq, kNe, kLt, kGt, kLe, kGe, kRegex };

  Kind kind;
  std::string text;                           // literal / attribute name
  CmpOp cmp_op = CmpOp::kEq;                  // for kCompare
  char arith_op = 0;                          // for kArith
  std::vector<std::unique_ptr<Expr>> children;
};

// A clause "test -> value" (or "test -> { subprogram }", or bare "test").
struct ConditionsClause;

struct ConditionsProgram {
  std::vector<ConditionsClause> clauses;
};

struct ConditionsClause {
  std::unique_ptr<Expr> test;
  // Exactly one of the following is meaningful:
  std::optional<std::string> value_name;            // -> "RWX"
  std::unique_ptr<ConditionsProgram> subprogram;    // -> { ... }
  // Neither set: a bare test contributes the lattice top when true.
};

// Local-Constants: identifiers substituted as string literals at parse time.
using ConstantMap = std::map<std::string, std::string>;

Result<std::unique_ptr<Expr>> ParseExpression(std::string_view text,
                                              const ConstantMap& constants);

// Parses a whole Conditions field. An empty/whitespace field yields an empty
// program, which evaluates to the lattice top (no restrictions).
Result<ConditionsProgram> ParseConditions(std::string_view text,
                                          const ConstantMap& constants);

// The class of `value` under EvalExpr's `==`: two values compare equal
// exactly when their keys are equal. A finite decimal number keys by its
// numeric value ("5", "05", "5.0" and "5e0" share one key); anything else
// keys by its text.
std::string EqualityKey(const std::string& value);

// Evaluates an expression against the attribute set. Errors are returned,
// not thrown; the compliance layer maps them to the lattice bottom.
Result<EvalValue> EvalExpr(const Expr& expr, const AttributeMap& env);

// Evaluates a Conditions program: join over the clauses whose test is true
// of each clause's value. Errors inside a clause zero out only that clause.
ComplianceLattice::Value EvalConditions(const ConditionsProgram& program,
                                        const AttributeMap& env,
                                        const ComplianceLattice& lattice);

}  // namespace discfs::keynote

#endif  // DISCFS_SRC_KEYNOTE_EXPR_H_
