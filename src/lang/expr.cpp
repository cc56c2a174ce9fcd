#include "lang/expr.hpp"

#include <algorithm>

#include "support/diagnostics.hpp"

namespace rc11::lang {

namespace detail {

struct ExprNode {
  enum class Kind : std::uint8_t { Const, Reg, Unary, Binary } kind{};
  Value value = 0;  // Const
  RegId reg = 0;    // Reg
  UnOp un{};
  BinOp bin{};
  std::shared_ptr<const ExprNode> lhs;
  std::shared_ptr<const ExprNode> rhs;
};

namespace {

Value eval_unary(UnOp op, Value v) {
  switch (op) {
    case UnOp::Neg: return -v;
    case UnOp::Not: return v == 0 ? 1 : 0;
  }
  RC11_REQUIRE(false, "unreachable unary op");
  return 0;
}

Value eval_binary(BinOp op, Value a, Value b) {
  switch (op) {
    case BinOp::Add: return a + b;
    case BinOp::Sub: return a - b;
    case BinOp::Mul: return a * b;
    case BinOp::Mod:
      rc11::support::require(b != 0, "modulo by zero in program expression");
      return a % b;
    case BinOp::Eq: return a == b ? 1 : 0;
    case BinOp::Ne: return a != b ? 1 : 0;
    case BinOp::Lt: return a < b ? 1 : 0;
    case BinOp::Le: return a <= b ? 1 : 0;
    case BinOp::Gt: return a > b ? 1 : 0;
    case BinOp::Ge: return a >= b ? 1 : 0;
    case BinOp::And: return (a != 0 && b != 0) ? 1 : 0;
    case BinOp::Or: return (a != 0 || b != 0) ? 1 : 0;
  }
  RC11_REQUIRE(false, "unreachable binary op");
  return 0;
}

Value eval_node(const ExprNode* n, const std::vector<Value>& regs) {
  using Kind = ExprNode::Kind;
  switch (n->kind) {
    case Kind::Const: return n->value;
    case Kind::Reg:
      RC11_REQUIRE(n->reg < regs.size(), "register out of range in eval");
      return regs[n->reg];
    case Kind::Unary: return eval_unary(n->un, eval_node(n->lhs.get(), regs));
    case Kind::Binary:
      return eval_binary(n->bin, eval_node(n->lhs.get(), regs),
                         eval_node(n->rhs.get(), regs));
  }
  RC11_REQUIRE(false, "unreachable expr kind");
  return 0;
}

std::int64_t max_reg_node(const ExprNode* n) {
  using Kind = ExprNode::Kind;
  switch (n->kind) {
    case Kind::Const: return -1;
    case Kind::Reg: return n->reg;
    case Kind::Unary: return max_reg_node(n->lhs.get());
    case Kind::Binary:
      return std::max(max_reg_node(n->lhs.get()), max_reg_node(n->rhs.get()));
  }
  return -1;
}

std::string to_string_node(const ExprNode* n) {
  using Kind = ExprNode::Kind;
  switch (n->kind) {
    case Kind::Const: return std::to_string(n->value);
    case Kind::Reg: {
      std::string s = "r";
      s += std::to_string(n->reg);
      return s;
    }
    case Kind::Unary: {
      std::string s = n->un == UnOp::Neg ? "-" : "!";
      s += to_string_node(n->lhs.get());
      return s;
    }
    case Kind::Binary: {
      const char* op = "?";
      switch (n->bin) {
        case BinOp::Add: op = "+"; break;
        case BinOp::Sub: op = "-"; break;
        case BinOp::Mul: op = "*"; break;
        case BinOp::Mod: op = "%"; break;
        case BinOp::Eq: op = "=="; break;
        case BinOp::Ne: op = "!="; break;
        case BinOp::Lt: op = "<"; break;
        case BinOp::Le: op = "<="; break;
        case BinOp::Gt: op = ">"; break;
        case BinOp::Ge: op = ">="; break;
        case BinOp::And: op = "&&"; break;
        case BinOp::Or: op = "||"; break;
      }
      std::string s = "(";
      s += to_string_node(n->lhs.get());
      s += ' ';
      s += op;
      s += ' ';
      s += to_string_node(n->rhs.get());
      s += ')';
      return s;
    }
  }
  return "?";
}

}  // namespace
}  // namespace detail

using detail::ExprNode;

Expr Expr::constant(Value v) {
  auto n = std::make_shared<ExprNode>();
  n->kind = ExprNode::Kind::Const;
  n->value = v;
  return Expr{std::move(n)};
}

Expr Expr::reg(RegId r) {
  auto n = std::make_shared<ExprNode>();
  n->kind = ExprNode::Kind::Reg;
  n->reg = r;
  return Expr{std::move(n)};
}

Expr Expr::unary(UnOp op, Expr operand) {
  RC11_REQUIRE(operand.valid(), "unary over empty expression");
  auto n = std::make_shared<ExprNode>();
  n->kind = ExprNode::Kind::Unary;
  n->un = op;
  n->lhs = std::move(operand.node_);
  return Expr{std::move(n)};
}

Expr Expr::binary(BinOp op, Expr lhs, Expr rhs) {
  RC11_REQUIRE(lhs.valid() && rhs.valid(), "binary over empty expression");
  auto n = std::make_shared<ExprNode>();
  n->kind = ExprNode::Kind::Binary;
  n->bin = op;
  n->lhs = std::move(lhs.node_);
  n->rhs = std::move(rhs.node_);
  return Expr{std::move(n)};
}

Value Expr::eval(const std::vector<Value>& regs) const {
  RC11_REQUIRE(node_ != nullptr, "evaluating empty expression");
  return detail::eval_node(node_.get(), regs);
}

std::int64_t Expr::max_reg() const {
  RC11_REQUIRE(node_ != nullptr, "max_reg of empty expression");
  return detail::max_reg_node(node_.get());
}

std::string Expr::to_string() const {
  return node_ ? detail::to_string_node(node_.get()) : "<empty>";
}

Expr operator+(Expr a, Expr b) { return Expr::binary(BinOp::Add, std::move(a), std::move(b)); }
Expr operator-(Expr a, Expr b) { return Expr::binary(BinOp::Sub, std::move(a), std::move(b)); }
Expr operator*(Expr a, Expr b) { return Expr::binary(BinOp::Mul, std::move(a), std::move(b)); }
Expr operator%(Expr a, Expr b) { return Expr::binary(BinOp::Mod, std::move(a), std::move(b)); }
Expr operator==(Expr a, Expr b) { return Expr::binary(BinOp::Eq, std::move(a), std::move(b)); }
Expr operator!=(Expr a, Expr b) { return Expr::binary(BinOp::Ne, std::move(a), std::move(b)); }
Expr operator<(Expr a, Expr b) { return Expr::binary(BinOp::Lt, std::move(a), std::move(b)); }
Expr operator<=(Expr a, Expr b) { return Expr::binary(BinOp::Le, std::move(a), std::move(b)); }
Expr operator>(Expr a, Expr b) { return Expr::binary(BinOp::Gt, std::move(a), std::move(b)); }
Expr operator>=(Expr a, Expr b) { return Expr::binary(BinOp::Ge, std::move(a), std::move(b)); }
Expr operator&&(Expr a, Expr b) { return Expr::binary(BinOp::And, std::move(a), std::move(b)); }
Expr operator||(Expr a, Expr b) { return Expr::binary(BinOp::Or, std::move(a), std::move(b)); }
Expr operator!(Expr a) { return Expr::unary(UnOp::Not, std::move(a)); }

Expr is_even(Expr a) {
  return (std::move(a) % Expr::constant(2)) == Expr::constant(0);
}

}  // namespace rc11::lang
