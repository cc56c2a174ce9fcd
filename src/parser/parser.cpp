#include "parser/parser.hpp"

#include "assertions/assertions.hpp"

#include <cctype>
#include <limits>
#include <set>
#include <fstream>
#include <sstream>

#include "support/diagnostics.hpp"

namespace rc11::parser {

using lang::c;
using lang::Expr;
using lang::LocId;
using lang::Reg;
using lang::System;
using lang::ThreadBuilder;
using memsem::LocKind;

namespace {

// --------------------------------------------------------------------------
// Lexer
// --------------------------------------------------------------------------

enum class Tok : std::uint8_t {
  Ident, Number,
  // punctuation / operators
  Semi, Comma, LParen, RParen, LBrace, RBrace, Dot,
  Assign,        // :=  with an optional order suffix (:=R, :=NA, ...)
  Arrow,         // <-  with an optional order suffix (<-A, <-NA, ...)
  Plus, Minus, Star, Percent,
  Eq,  // single '=' (declaration initialisers only)
  Colon,     // ':' (outline annotations)
  Implies,   // '==>' (outline assertions)
  EqEq, NotEq, Lt, Le, Gt, Ge, AndAnd, OrOr, Not,
  End,
};

struct Token {
  Tok kind = Tok::End;
  std::string text;
  /// Memory-order annotation glued onto := / <- (the uppercase run directly
  /// after the operator): "" for none, otherwise whatever the program wrote
  /// ("R", "A", "NA", or a typo the parser rejects with the accepted list).
  std::string suffix;
  long long number = 0;
  int line = 1;
  int col = 1;
};

class Lexer {
 public:
  explicit Lexer(std::string_view src) : src_(src) { advance(); }

  [[nodiscard]] const Token& peek() const { return current_; }

  Token take() {
    Token t = current_;
    advance();
    return t;
  }

  [[noreturn]] void error(const std::string& msg) const {
    support::fail("parse error at ", current_.line, ":", current_.col, ": ",
                  msg, current_.kind == Tok::End
                          ? " (at end of input)"
                          : " (near '" + current_.text + "')");
  }

 private:
  void advance() {
    skip_ws_and_comments();
    current_ = Token{};
    current_.line = line_;
    current_.col = col_;
    if (pos_ >= src_.size()) {
      current_.kind = Tok::End;
      return;
    }
    const char ch = src_[pos_];
    if (std::isalpha(static_cast<unsigned char>(ch)) || ch == '_') {
      std::string ident;
      while (pos_ < src_.size() &&
             (std::isalnum(static_cast<unsigned char>(src_[pos_])) ||
              src_[pos_] == '_')) {
        ident.push_back(src_[pos_]);
        bump();
      }
      current_.kind = Tok::Ident;
      current_.text = std::move(ident);
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(ch))) {
      constexpr long long kMax = std::numeric_limits<long long>::max();
      long long value = 0;
      bool too_large = false;
      std::string text;
      while (pos_ < src_.size() &&
             std::isdigit(static_cast<unsigned char>(src_[pos_]))) {
        const int digit = src_[pos_] - '0';
        if (value > (kMax - digit) / 10) too_large = true;
        if (!too_large) value = value * 10 + digit;
        text.push_back(src_[pos_]);
        bump();
      }
      if (too_large) {
        support::fail("parse error at ", current_.line, ":", current_.col,
                      ": integer literal ", text, " is too large");
      }
      current_.kind = Tok::Number;
      current_.number = value;
      current_.text = std::move(text);
      return;
    }
    const auto two = src_.substr(pos_, 2);
    const auto three = src_.substr(pos_, 3);
    const auto set = [&](Tok kind, std::size_t len, std::string_view text) {
      current_.kind = kind;
      current_.text = std::string{text};
      for (std::size_t i = 0; i < len; ++i) bump();
    };
    // := and <- swallow a directly-attached uppercase order suffix (":=R",
    // "<-NA", also typos like ":=RR") so the parser can validate it against
    // the orders the context accepts and report the bad token precisely.
    const auto set_access = [&](Tok kind, std::string_view text) {
      set(kind, 2, text);
      while (pos_ < src_.size() && src_[pos_] >= 'A' && src_[pos_] <= 'Z') {
        current_.suffix.push_back(src_[pos_]);
        bump();
      }
      current_.text += current_.suffix;
    };
    if (two == ":=") return set_access(Tok::Assign, two);
    if (two == "<-") return set_access(Tok::Arrow, two);
    if (three == "==>") return set(Tok::Implies, 3, three);
    if (two == "==") return set(Tok::EqEq, 2, two);
    if (ch == '=') return set(Tok::Eq, 1, "=");
    if (two == "!=") return set(Tok::NotEq, 2, two);
    if (two == "<=") return set(Tok::Le, 2, two);
    if (two == ">=") return set(Tok::Ge, 2, two);
    if (two == "&&") return set(Tok::AndAnd, 2, two);
    if (two == "||") return set(Tok::OrOr, 2, two);
    switch (ch) {
      case ';': return set(Tok::Semi, 1, ";");
      case ':': return set(Tok::Colon, 1, ":");
      case ',': return set(Tok::Comma, 1, ",");
      case '(': return set(Tok::LParen, 1, "(");
      case ')': return set(Tok::RParen, 1, ")");
      case '{': return set(Tok::LBrace, 1, "{");
      case '}': return set(Tok::RBrace, 1, "}");
      case '.': return set(Tok::Dot, 1, ".");
      case '+': return set(Tok::Plus, 1, "+");
      case '-': return set(Tok::Minus, 1, "-");
      case '*': return set(Tok::Star, 1, "*");
      case '%': return set(Tok::Percent, 1, "%");
      case '<': return set(Tok::Lt, 1, "<");
      case '>': return set(Tok::Gt, 1, ">");
      case '!': return set(Tok::Not, 1, "!");
      default:
        support::fail("parse error at ", line_, ":", col_,
                      ": unexpected character '", std::string(1, ch), "'");
    }
  }

  void skip_ws_and_comments() {
    while (pos_ < src_.size()) {
      const char ch = src_[pos_];
      if (ch == ' ' || ch == '\t' || ch == '\r' || ch == '\n') {
        bump();
      } else if (ch == '/' && pos_ + 1 < src_.size() && src_[pos_ + 1] == '/') {
        while (pos_ < src_.size() && src_[pos_] != '\n') bump();
      } else {
        break;
      }
    }
  }

  void bump() {
    if (src_[pos_] == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    ++pos_;
  }

  std::string_view src_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
  Token current_;
};

// --------------------------------------------------------------------------
// Parser
// --------------------------------------------------------------------------

class Parser {
 public:
  explicit Parser(std::string_view src) : lex_(src) {}

  ParsedProgram run() {
    parse_declarations();
    while (lex_.peek().kind != Tok::End) {
      if (peek_ident("outline")) {
        parse_outline();
        break;
      }
      parse_thread();
    }
    if (lex_.peek().kind != Tok::End) {
      lex_.error("unexpected trailing input after the outline block");
    }
    support::require(!out_.thread_names.empty(),
                     "program declares no threads");
    return std::move(out_);
  }

  /// Parses the source as a single assertion expression, resolving names
  /// against `program`'s tables (for parser::parse_assertion).
  assertions::Assertion run_assertion(const ParsedProgram& program) {
    out_.sys = program.sys;
    out_.locations = program.locations;
    out_.registers = program.registers;
    out_.thread_names = program.thread_names;
    auto a = parse_assertion();
    if (lex_.peek().kind != Tok::End) {
      lex_.error("unexpected trailing input after the assertion");
    }
    return a;
  }

 private:
  // --- helpers ---
  Token expect(Tok kind, const char* what) {
    if (lex_.peek().kind != kind) lex_.error(std::string("expected ") + what);
    return lex_.take();
  }

  /// Reports an error anchored at an already-taken token (the lexer's own
  /// error() points at the *next* token, which is wrong for a bad order
  /// suffix noticed only after the operator was consumed).
  [[noreturn]] static void error_at(const Token& tok, const std::string& msg) {
    support::fail("parse error at ", tok.line, ":", tok.col, ": ", msg,
                  " (near '", tok.text, "')");
  }

  /// Validates the order suffix of a store operator token.
  static memsem::MemOrder store_order(const Token& op) {
    if (op.suffix.empty()) return memsem::MemOrder::Relaxed;
    if (op.suffix == "R") return memsem::MemOrder::Release;
    if (op.suffix == "NA") return memsem::MemOrder::NonAtomic;
    error_at(op, "unknown memory order ':=" + op.suffix +
                     "' on a store; accepted orders are ':=' (relaxed), "
                     "':=R' (release) and ':=NA' (non-atomic)");
  }

  /// Validates the order suffix of a load operator token.
  static memsem::MemOrder load_order(const Token& op) {
    if (op.suffix.empty()) return memsem::MemOrder::Relaxed;
    if (op.suffix == "A") return memsem::MemOrder::Acquire;
    if (op.suffix == "NA") return memsem::MemOrder::NonAtomic;
    error_at(op, "unknown memory order '<-" + op.suffix +
                     "' on a load; accepted orders are '<-' (relaxed), "
                     "'<-A' (acquire) and '<-NA' (non-atomic)");
  }

  /// Validates the order suffix of an object-method read (pop/deq), which
  /// accepts only plain and acquire.
  static bool method_acquires(const Token& op, const std::string& method) {
    if (op.suffix.empty()) return false;
    if (op.suffix == "A") return true;
    error_at(op, "unknown memory order '<-" + op.suffix + "' on '" + method +
                     "'; accepted orders are '<-' (relaxed) and '<-A' "
                     "(acquire)");
  }

  bool accept(Tok kind) {
    if (lex_.peek().kind == kind) {
      lex_.take();
      return true;
    }
    return false;
  }

  [[nodiscard]] bool peek_ident(std::string_view word) const {
    return lex_.peek().kind == Tok::Ident && lex_.peek().text == word;
  }

  bool accept_ident(std::string_view word) {
    if (peek_ident(word)) {
      lex_.take();
      return true;
    }
    return false;
  }

  [[nodiscard]] bool is_location(const std::string& name) const {
    return out_.locations.count(name) > 0;
  }

  LocId location(const std::string& name, LocKind want, const char* use) {
    const auto it = out_.locations.find(name);
    if (it == out_.locations.end()) lex_.error("unknown location '" + name + "'");
    const auto kind = out_.sys.locations().kind(it->second);
    if (kind != want) {
      lex_.error("location '" + name + "' cannot be used as a " + use);
    }
    return it->second;
  }

  /// The container a method names: push and pop need a stack, enq and deq
  /// a queue.
  LocId container(const std::string& name, bool stack) {
    return stack ? location(name, LocKind::Stack, "stack")
                 : location(name, LocKind::Queue, "queue");
  }

  /// Resolves a register named by `tok` in the code of `tb`'s thread.
  /// Registers are thread-local: only outline assertions may name another
  /// thread's registers.
  Reg reg_lookup(const Token& tok, const ThreadBuilder& tb) {
    const auto& name = tok.text;
    const auto it = out_.registers.find(name);
    if (it == out_.registers.end()) {
      lex_.error("unknown register '" + name +
                 "' (declare it with 'reg " + name + ";')");
    }
    if (it->second.thread != tb.id()) {
      error_at(tok, "register '" + name + "' belongs to thread '" +
                        out_.thread_names.at(it->second.thread) +
                        "'; registers are local to their thread");
    }
    return it->second;
  }

  // --- declarations ---
  void parse_declarations() {
    for (;;) {
      if (peek_ident("var")) {
        lex_.take();
        parse_var_decl();
      } else if (peek_ident("lock") || peek_ident("stack") ||
                 peek_ident("queue")) {
        const auto kw = lex_.take().text;
        parse_object_decl(kw == "lock"
                              ? LocKind::Lock
                              : (kw == "stack" ? LocKind::Stack
                                               : LocKind::Queue));
      } else {
        break;
      }
    }
  }

  memsem::Component parse_component() {
    if (accept_ident("library")) return memsem::Component::Library;
    accept_ident("client");  // optional, the default
    return memsem::Component::Client;
  }

  void check_fresh_name(const std::string& name) {
    if (out_.locations.count(name) || out_.registers.count(name)) {
      lex_.error("duplicate name '" + name + "'");
    }
  }

  void parse_var_decl() {
    const auto comp = parse_component();
    const auto name = expect(Tok::Ident, "variable name").text;
    check_fresh_name(name);
    lang::Value init = 0;
    if (accept(Tok::Eq)) {
      init = parse_signed_literal();
    }
    expect(Tok::Semi, "';'");
    const auto loc = comp == memsem::Component::Client
                         ? out_.sys.client_var(name, init)
                         : out_.sys.library_var(name, init);
    out_.locations.emplace(name, loc);
  }

  void parse_object_decl(LocKind kind) {
    const auto comp = parse_component();
    const auto name = expect(Tok::Ident, "object name").text;
    check_fresh_name(name);
    expect(Tok::Semi, "';'");
    const bool client = comp == memsem::Component::Client;
    LocId loc = 0;
    switch (kind) {
      case LocKind::Lock:
        loc = client ? out_.sys.client_lock(name) : out_.sys.library_lock(name);
        break;
      case LocKind::Stack:
        loc = client ? out_.sys.client_stack(name)
                     : out_.sys.library_stack(name);
        break;
      case LocKind::Queue:
        loc = client ? out_.sys.client_queue(name)
                     : out_.sys.library_queue(name);
        break;
      case LocKind::Var:
        RC11_REQUIRE(false, "parse_object_decl on a variable kind");
    }
    out_.locations.emplace(name, loc);
  }

  lang::Value parse_signed_literal() {
    const bool negative = accept(Tok::Minus);
    const auto tok = expect(Tok::Number, "number");
    return negative ? -tok.number : tok.number;
  }

  // --- threads ---
  void parse_thread() {
    if (!accept_ident("thread")) lex_.error("expected 'thread'");
    std::string name = "t";
    name += std::to_string(out_.thread_names.size());
    if (lex_.peek().kind == Tok::Ident) name = lex_.take().text;
    out_.thread_names.push_back(name);
    expect(Tok::LBrace, "'{'");
    auto tb = out_.sys.thread();
    parse_block_body(tb);
  }

  /// Parses statements until the closing '}' (which is consumed).
  void parse_block_body(ThreadBuilder& tb) {
    while (!accept(Tok::RBrace)) {
      if (lex_.peek().kind == Tok::End) lex_.error("expected '}'");
      parse_statement(tb);
    }
  }

  void parse_statement(ThreadBuilder& tb) {
    if (accept_ident("reg")) return parse_reg_decl(tb);
    if (peek_ident("if")) return parse_if(tb);
    if (peek_ident("while")) return parse_while(tb);
    if (peek_ident("do")) return parse_do_until(tb);

    const Token name_tok = expect(Tok::Ident, "statement");
    const auto& name = name_tok.text;

    // Object method call without destination: l.acquire(); l.release();
    // s.push(e); s.pushR(e); q.enq(e); q.enqR(e);
    if (lex_.peek().kind == Tok::Dot) {
      lex_.take();
      const auto method = expect(Tok::Ident, "method name").text;
      expect(Tok::LParen, "'('");
      if (method == "acquire") {
        expect(Tok::RParen, "')'");
        tb.acquire(location(name, LocKind::Lock, "lock"));
      } else if (method == "release") {
        expect(Tok::RParen, "')'");
        tb.release(location(name, LocKind::Lock, "lock"));
      } else if (method == "push" || method == "pushR" || method == "enq" ||
                 method == "enqR") {
        Expr value = parse_expr(tb);
        expect(Tok::RParen, "')'");
        const auto loc = container(name, method.rfind("push", 0) == 0);
        if (method.back() == 'R') {
          tb.push_rel(loc, std::move(value));
        } else {
          tb.push(loc, std::move(value));
        }
      } else {
        lex_.error("unknown method '" + method + "'");
      }
      expect(Tok::Semi, "';'");
      return;
    }

    // Stores: x := e;  x :=R e;  x :=NA e;  and local assignment r := e;
    if (lex_.peek().kind == Tok::Assign) {
      const Token op = lex_.take();
      Expr value = parse_expr(tb);
      expect(Tok::Semi, "';'");
      if (is_location(name)) {
        const auto x = location(name, LocKind::Var, "variable");
        switch (store_order(op)) {
          case memsem::MemOrder::Release:
            tb.store_rel(x, std::move(value));
            break;
          case memsem::MemOrder::NonAtomic:
            tb.store_na(x, std::move(value));
            break;
          default:
            tb.store(x, std::move(value));
            break;
        }
      } else {
        if (!op.suffix.empty()) {
          error_at(op, "':=" + op.suffix +
                           "' needs a shared variable target (register "
                           "assignment takes no memory order)");
        }
        tb.assign(reg_lookup(name_tok, tb), std::move(value));
      }
      return;
    }

    // Reads and RMW/method calls with a destination register:
    //   r <- x; r <-A x; r <-NA x; r <- CAS(...); r <- FAI(x);
    //   r <- l.acquire(); r <- s.pop(); r <-A s.pop(); r <-A q.deq();
    if (lex_.peek().kind == Tok::Arrow) {
      const Token op = lex_.take();
      const auto dst = reg_lookup(name_tok, tb);
      const auto src = expect(Tok::Ident, "read source").text;

      if (lex_.peek().kind == Tok::Dot) {  // object method
        lex_.take();
        const auto method = expect(Tok::Ident, "method name").text;
        expect(Tok::LParen, "'('");
        expect(Tok::RParen, "')'");
        expect(Tok::Semi, "';'");
        if (method == "acquire") {
          if (!op.suffix.empty()) {
            error_at(op, "lock methods take no <-" + op.suffix + " annotation");
          }
          tb.acquire(location(src, LocKind::Lock, "lock"), dst);
        } else if (method == "pop" || method == "deq") {
          const auto loc = container(src, method == "pop");
          if (method_acquires(op, method)) {
            tb.pop_acq(dst, loc);
          } else {
            tb.pop(dst, loc);
          }
        } else {
          lex_.error("unknown method '" + method + "' in read position");
        }
        return;
      }

      if (src == "CAS") {
        if (!op.suffix.empty()) {
          error_at(op, "CAS is always RA; drop the " + op.suffix +
                           " annotation");
        }
        expect(Tok::LParen, "'('");
        const auto var = expect(Tok::Ident, "variable").text;
        expect(Tok::Comma, "','");
        Expr expected = parse_expr(tb);
        expect(Tok::Comma, "','");
        Expr desired = parse_expr(tb);
        expect(Tok::RParen, "')'");
        expect(Tok::Semi, "';'");
        tb.cas(dst, location(var, LocKind::Var, "variable"),
               std::move(expected), std::move(desired));
        return;
      }
      if (src == "FAI") {
        if (!op.suffix.empty()) {
          error_at(op, "FAI is always RA; drop the " + op.suffix +
                           " annotation");
        }
        expect(Tok::LParen, "'('");
        const auto var = expect(Tok::Ident, "variable").text;
        expect(Tok::RParen, "')'");
        expect(Tok::Semi, "';'");
        tb.fai(dst, location(var, LocKind::Var, "variable"));
        return;
      }

      // Plain load.
      expect(Tok::Semi, "';'");
      const auto x = location(src, LocKind::Var, "variable");
      switch (load_order(op)) {
        case memsem::MemOrder::Acquire:
          tb.load_acq(dst, x);
          break;
        case memsem::MemOrder::NonAtomic:
          tb.load_na(dst, x);
          break;
        default:
          tb.load(dst, x);
          break;
      }
      return;
    }

    lex_.error("expected ':=', ':=R', ':=NA', '<-', '<-A', '<-NA' or a "
               "method call");
  }

  void parse_reg_decl(ThreadBuilder& tb) {
    // 'reg [library] name [= n];' — library registers belong to inlined
    // implementation code and are excluded from the client projection used
    // by refinement checking.
    const auto comp = accept_ident("library") ? memsem::Component::Library
                                              : memsem::Component::Client;
    const auto name = expect(Tok::Ident, "register name").text;
    check_fresh_name(name);
    lang::Value init = 0;
    if (accept(Tok::Eq)) {
      init = parse_signed_literal();
    }
    expect(Tok::Semi, "';'");
    out_.registers.emplace(name, tb.reg(name, init, comp));
  }

  void parse_if(ThreadBuilder& tb) {
    lex_.take();  // 'if'
    expect(Tok::LParen, "'('");
    Expr cond = parse_expr(tb);
    expect(Tok::RParen, "')'");
    expect(Tok::LBrace, "'{'");
    // Laid out as ThreadBuilder::if_else does, but only a present else
    // branch gets the jump over it:
    //   if !cond goto ELSE; <then>; [goto END; ELSE: <else>;] END:
    lang::Instr br;
    br.kind = lang::IKind::Branch;
    br.e1 = !std::move(cond);
    const auto to_else = tb.emit(std::move(br));
    parse_block_body(tb);
    if (accept_ident("else")) {
      expect(Tok::LBrace, "'{'");
      lang::Instr jp;
      jp.kind = lang::IKind::Jump;
      const auto to_end = tb.emit(std::move(jp));
      tb.patch_target(to_else, tb.here());
      parse_block_body(tb);
      tb.patch_target(to_end, tb.here());
    } else {
      tb.patch_target(to_else, tb.here());
    }
  }

  void parse_while(ThreadBuilder& tb) {
    lex_.take();  // 'while'
    expect(Tok::LParen, "'('");
    Expr cond = parse_expr(tb);
    expect(Tok::RParen, "')'");
    expect(Tok::LBrace, "'{'");
    tb.while_(std::move(cond), [&] { parse_block_body(tb); });
  }

  void parse_do_until(ThreadBuilder& tb) {
    lex_.take();  // 'do'
    expect(Tok::LBrace, "'{'");
    // Source order matches emission order: body first, then the condition,
    // then the back-edge — so the loop is laid out directly.
    const auto head = tb.here();
    parse_block_body(tb);
    if (!accept_ident("until")) lex_.error("expected 'until'");
    expect(Tok::LParen, "'('");
    Expr cond = parse_expr(tb);
    expect(Tok::RParen, "')'");
    expect(Tok::Semi, "';'");
    lang::Instr br;
    br.kind = lang::IKind::Branch;
    br.e1 = !std::move(cond);
    br.target = head;
    tb.emit(std::move(br));
  }

  // --- outline block (assertion language of Section 5.1) ---

  lang::ThreadId thread_by_name(const std::string& name) {
    for (std::size_t i = 0; i < out_.thread_names.size(); ++i) {
      if (out_.thread_names[i] == name) {
        return static_cast<lang::ThreadId>(i);
      }
    }
    lex_.error("unknown thread '" + name + "'");
  }

  void parse_outline() {
    lex_.take();  // 'outline'
    expect(Tok::LBrace, "'{'");
    support::require(!out_.thread_names.empty(),
                     "outline block before any thread");
    out_.outline.emplace(out_.sys);
    while (!accept(Tok::RBrace)) {
      if (lex_.peek().kind == Tok::End) lex_.error("expected '}'");
      if (accept_ident("invariant")) {
        auto a = parse_assertion();
        expect(Tok::Semi, "';'");
        out_.outline->invariant(std::move(a));
      } else if (accept_ident("at")) {
        const auto thread = thread_by_name(expect(Tok::Ident, "thread").text);
        const auto pc = parse_pc(thread, "program counter");
        if (!accept(Tok::Colon)) lex_.error("expected ':'");
        auto a = parse_assertion();
        expect(Tok::Semi, "';'");
        out_.outline->annotate(thread, pc, std::move(a));
      } else if (accept_ident("post")) {
        const auto thread = thread_by_name(expect(Tok::Ident, "thread").text);
        if (!accept(Tok::Colon)) lex_.error("expected ':'");
        auto a = parse_assertion();
        expect(Tok::Semi, "';'");
        out_.outline->postcondition(thread, std::move(a));
      } else {
        lex_.error("expected 'invariant', 'at' or 'post'");
      }
    }
  }

  // Assertion grammar: impl -> or -> and -> unary -> atom.
  assertions::Assertion parse_assertion() {
    auto lhs = parse_a_or();
    if (accept(Tok::Implies)) {
      return assertions::implies(std::move(lhs), parse_assertion());
    }
    return lhs;
  }

  assertions::Assertion parse_a_or() {
    auto lhs = parse_a_and();
    while (accept(Tok::OrOr)) {
      lhs = std::move(lhs) || parse_a_and();
    }
    return lhs;
  }

  assertions::Assertion parse_a_and() {
    auto lhs = parse_a_unary();
    while (accept(Tok::AndAnd)) {
      lhs = std::move(lhs) && parse_a_unary();
    }
    return lhs;
  }

  assertions::Assertion parse_a_unary() {
    if (accept(Tok::Not)) return !parse_a_unary();
    if (accept(Tok::LParen)) {
      auto inner = parse_assertion();
      expect(Tok::RParen, "')'");
      return inner;
    }
    return parse_a_atom();
  }

  lang::LocId loc_arg(LocKind want, const char* use) {
    return location(expect(Tok::Ident, "location").text, want, use);
  }

  lang::Value value_arg() { return parse_signed_literal(); }

  assertions::Assertion parse_a_atom() {
    const auto tok = expect(Tok::Ident, "assertion atom");
    const auto& word = tok.text;
    if (word == "true") return assertions::Assertion::always();
    if (word == "false") return !assertions::Assertion::always();
    if (word == "possible" || word == "definite") {
      expect(Tok::LParen, "'('");
      const auto t = thread_by_name(expect(Tok::Ident, "thread").text);
      expect(Tok::Comma, "','");
      const auto x = loc_arg(LocKind::Var, "variable");
      expect(Tok::Comma, "','");
      const auto v = value_arg();
      expect(Tok::RParen, "')'");
      return word == "possible" ? assertions::possible_obs(t, x, v)
                                : assertions::definite_obs(t, x, v);
    }
    if (word == "cond") {
      expect(Tok::LParen, "'('");
      const auto t = thread_by_name(expect(Tok::Ident, "thread").text);
      expect(Tok::Comma, "','");
      const auto x = loc_arg(LocKind::Var, "variable");
      expect(Tok::Comma, "','");
      const auto u = value_arg();
      expect(Tok::Comma, "','");
      const auto y = loc_arg(LocKind::Var, "variable");
      expect(Tok::Comma, "','");
      const auto v = value_arg();
      expect(Tok::RParen, "')'");
      return assertions::cond_obs(t, x, u, y, v);
    }
    if (word == "covered" || word == "hidden") {
      expect(Tok::LParen, "'('");
      const auto x = loc_arg(LocKind::Var, "variable");
      expect(Tok::Comma, "','");
      const auto v = value_arg();
      expect(Tok::RParen, "')'");
      return word == "covered" ? assertions::covered_var(x, v)
                               : assertions::hidden_var(x, v);
    }
    if (word == "held") {
      expect(Tok::LParen, "'('");
      const auto t = thread_by_name(expect(Tok::Ident, "thread").text);
      expect(Tok::Comma, "','");
      const auto l = loc_arg(LocKind::Lock, "lock");
      expect(Tok::RParen, "')'");
      return assertions::lock_held_by(t, l);
    }
    if (word == "canpop") {
      expect(Tok::LParen, "'('");
      const auto s = loc_arg(LocKind::Stack, "stack");
      expect(Tok::Comma, "','");
      const auto v = value_arg();
      expect(Tok::RParen, "')'");
      return assertions::stack_can_pop(s, v);
    }
    if (word == "popempty") {
      expect(Tok::LParen, "'('");
      const auto s = loc_arg(LocKind::Stack, "stack");
      expect(Tok::RParen, "')'");
      return assertions::stack_pop_empty_only(s);
    }
    if (word == "done") {
      expect(Tok::LParen, "'('");
      const auto t = thread_by_name(expect(Tok::Ident, "thread").text);
      expect(Tok::RParen, "')'");
      return assertions::thread_done(t);
    }
    if (word == "pc") {
      expect(Tok::LParen, "'('");
      const auto t = thread_by_name(expect(Tok::Ident, "thread").text);
      expect(Tok::RParen, "')'");
      if (accept(Tok::EqEq)) {
        return assertions::at_pc(t, parse_pc(t, "pc value"));
      }
      if (accept_ident("in")) {
        expect(Tok::LBrace, "'{'");
        std::set<std::uint32_t> pcs;
        do {
          pcs.insert(parse_pc(t, "pc value"));
        } while (accept(Tok::Comma));
        expect(Tok::RBrace, "'}'");
        return assertions::pc_in(t, std::move(pcs));
      }
      lex_.error("expected '==' or 'in' after pc(...)");
    }
    // Register comparison: REG == n | REG != n | REG in {..}.
    if (out_.registers.count(word) > 0) {
      const auto r = out_.registers.at(word);
      if (accept(Tok::EqEq)) return assertions::reg_eq(r, value_arg());
      if (accept(Tok::NotEq)) return !assertions::reg_eq(r, value_arg());
      if (accept_ident("in")) {
        return assertions::reg_in(r, parse_value_set());
      }
      lex_.error("expected '==', '!=' or 'in' after a register");
    }
    lex_.error("unknown assertion atom '" + word + "'");
  }

  std::set<lang::Value> parse_value_set() {
    expect(Tok::LBrace, "'{'");
    std::set<lang::Value> values;
    do {
      values.insert(parse_signed_literal());
    } while (accept(Tok::Comma));
    expect(Tok::RBrace, "'}'");
    return values;
  }

  /// A program point of thread `t`: 0 up to its terminal pc (one past its
  /// last instruction, where the thread ends).  Anything else — a negative
  /// literal, or one that would wrap in 32 bits — is a positioned error,
  /// never a silently different pc.
  std::uint32_t parse_pc(lang::ThreadId t, const char* what) {
    const Token first = lex_.peek();
    const bool negative = accept(Tok::Minus);
    const auto tok = expect(Tok::Number, what);
    const auto terminal = out_.sys.code(t).size();
    if (negative || static_cast<unsigned long long>(tok.number) > terminal) {
      error_at(first, support::concat("pc ", negative ? "-" : "", tok.text,
                                      " is out of range for thread '",
                                      out_.thread_names[t], "' (pcs 0..",
                                      terminal, ")"));
    }
    return static_cast<std::uint32_t>(tok.number);
  }

  // --- expressions (precedence climbing) ---
  Expr parse_expr(ThreadBuilder& tb) { return parse_or(tb); }

  Expr parse_or(ThreadBuilder& tb) {
    Expr lhs = parse_and(tb);
    while (accept(Tok::OrOr)) {
      lhs = std::move(lhs) || parse_and(tb);
    }
    return lhs;
  }

  Expr parse_and(ThreadBuilder& tb) {
    Expr lhs = parse_cmp(tb);
    while (accept(Tok::AndAnd)) {
      lhs = std::move(lhs) && parse_cmp(tb);
    }
    return lhs;
  }

  Expr parse_cmp(ThreadBuilder& tb) {
    Expr lhs = parse_add(tb);
    for (;;) {
      if (accept(Tok::EqEq)) lhs = std::move(lhs) == parse_add(tb);
      else if (accept(Tok::NotEq)) lhs = std::move(lhs) != parse_add(tb);
      else if (accept(Tok::Lt)) lhs = std::move(lhs) < parse_add(tb);
      else if (accept(Tok::Le)) lhs = std::move(lhs) <= parse_add(tb);
      else if (accept(Tok::Gt)) lhs = std::move(lhs) > parse_add(tb);
      else if (accept(Tok::Ge)) lhs = std::move(lhs) >= parse_add(tb);
      else return lhs;
    }
  }

  Expr parse_add(ThreadBuilder& tb) {
    Expr lhs = parse_mul(tb);
    for (;;) {
      if (accept(Tok::Plus)) lhs = std::move(lhs) + parse_mul(tb);
      else if (accept(Tok::Minus)) lhs = std::move(lhs) - parse_mul(tb);
      else return lhs;
    }
  }

  Expr parse_mul(ThreadBuilder& tb) {
    Expr lhs = parse_unary(tb);
    for (;;) {
      if (accept(Tok::Star)) lhs = std::move(lhs) * parse_unary(tb);
      else if (accept(Tok::Percent)) lhs = std::move(lhs) % parse_unary(tb);
      else return lhs;
    }
  }

  Expr parse_unary(ThreadBuilder& tb) {
    if (accept(Tok::Not)) return !parse_unary(tb);
    if (accept(Tok::Minus)) {
      return Expr::unary(lang::UnOp::Neg, parse_unary(tb));
    }
    return parse_primary(tb);
  }

  Expr parse_primary(ThreadBuilder& tb) {
    if (lex_.peek().kind == Tok::Number) {
      return c(lex_.take().number);
    }
    if (accept(Tok::LParen)) {
      Expr inner = parse_expr(tb);
      expect(Tok::RParen, "')'");
      return inner;
    }
    if (lex_.peek().kind == Tok::Ident) {
      const Token tok = lex_.take();
      const auto& name = tok.text;
      if (name == "even") {
        expect(Tok::LParen, "'('");
        Expr inner = parse_expr(tb);
        expect(Tok::RParen, "')'");
        return lang::is_even(std::move(inner));
      }
      if (is_location(name)) {
        lex_.error("shared variable '" + name +
                   "' cannot appear in an expression; load it into a "
                   "register first (the paper's Exp_L restriction)");
      }
      return Expr{reg_lookup(tok, tb)};
    }
    lex_.error("expected an expression");
  }

  Lexer lex_;
  ParsedProgram out_;
};

}  // namespace

LocId ParsedProgram::loc(std::string_view name) const {
  const auto it = locations.find(std::string{name});
  support::require(it != locations.end(), "unknown location ", name);
  return it->second;
}

Reg ParsedProgram::reg(std::string_view name) const {
  const auto it = registers.find(std::string{name});
  support::require(it != registers.end(), "unknown register ", name);
  return it->second;
}

ParsedProgram parse_program(std::string_view source) {
  return Parser{source}.run();
}

assertions::Assertion parse_assertion(const ParsedProgram& program,
                                      std::string_view source) {
  return Parser{source}.run_assertion(program);
}

ParsedProgram parse_file(const std::string& path) {
  std::ifstream in{path};
  support::require(in.good(), "cannot open program file ", path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_program(buffer.str());
}

}  // namespace rc11::parser
