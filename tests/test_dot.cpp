// Tests for Graphviz DOT emission: the shared support::dot_escape helper
// (quote/backslash/control/non-ASCII robustness) and the state-graph and
// witness DOT renderers built on it.

#include <gtest/gtest.h>

#include <string>

#include "explore/dot.hpp"
#include "parser/parser.hpp"
#include "refinement/refinement.hpp"
#include "support/text.hpp"
#include "witness/witness.hpp"

namespace {

using namespace rc11;
using support::dot_escape;

TEST(DotEscape, PassesPlainTextThrough) {
  EXPECT_EQ(dot_escape("t0: x :=R 1"), "t0: x :=R 1");
  EXPECT_EQ(dot_escape(""), "");
}

TEST(DotEscape, EscapesQuotesAndBackslashes) {
  EXPECT_EQ(dot_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(dot_escape("a\\b"), "a\\\\b");
  // A label ending in a backslash must not swallow the closing quote.
  EXPECT_EQ(dot_escape("trailing\\"), "trailing\\\\");
}

TEST(DotEscape, TurnsNewlinesIntoDotBreaks) {
  EXPECT_EQ(dot_escape("two\nlines"), "two\\nlines");
}

TEST(DotEscape, RendersControlAndNonAsciiBytesVisibly) {
  EXPECT_EQ(dot_escape(std::string{"a\tb"}), "a\\\\x09b");
  EXPECT_EQ(dot_escape(std::string{"\x01"}), "\\\\x01");
  EXPECT_EQ(dot_escape(std::string{"\x7F"}), "\\\\x7F");
  EXPECT_EQ(dot_escape(std::string{"\xC3\xA9"}), "\\\\xC3\\\\xA9");
}

TEST(DotEscape, EscapedOutputNeverBreaksOutOfAQuotedLabel) {
  // Property: the escaped form contains no raw quote (every " is preceded by
  // a backslash that itself is not escaped away) and no raw newline.
  const std::string hostile = "\"]; evil [label=\"\n\\\"";
  const auto escaped = dot_escape(hostile);
  EXPECT_EQ(escaped.find('\n'), std::string::npos);
  for (std::size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] != '"') continue;
    std::size_t backslashes = 0;
    for (std::size_t j = i; j-- > 0 && escaped[j] == '\\';) ++backslashes;
    EXPECT_EQ(backslashes % 2, 1u) << "unescaped quote at index " << i;
  }
}

TEST(DotExport, StateGraphUsesEscapedMultiLineCaptions) {
  const auto program = parser::parse_program(R"(
var x = 0;
thread t1 { reg r1; r1 <- x; }
)");
  refinement::GraphOptions opts;
  opts.max_states = 1'000;
  opts.want_labels = true;
  const auto graph = refinement::build_graph(program.sys, opts);
  const auto dot = explore::to_dot(program.sys, graph);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  // Register captions are multi-line; the newline must arrive as the DOT
  // escape, never as a raw byte inside the quoted label.
  EXPECT_NE(dot.find("\\n"), std::string::npos);
  for (std::size_t pos = dot.find("label=\""); pos != std::string::npos;
       pos = dot.find("label=\"", pos + 1)) {
    const auto end = dot.find('"', pos + 7);
    ASSERT_NE(end, std::string::npos);
    EXPECT_EQ(dot.substr(pos, end - pos).find('\n'), std::string::npos);
  }
}

TEST(DotExport, WitnessRendererEscapesHostileStrings) {
  witness::Witness w;
  w.kind = "invariant";
  w.what = "bad \"label\"\nwith newline";
  w.state_dump = "dump\nline";
  w.steps.push_back({0, "step \\ with \"stuff\"", 42});
  const auto dot = witness::to_dot(w);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  std::size_t raw_quotes = 0;
  for (std::size_t i = 1; i < dot.size(); ++i) {
    if (dot[i] == '"' && dot[i - 1] == '\\') ++raw_quotes;
  }
  EXPECT_GT(raw_quotes, 0u) << "hostile quotes must be escaped";
}

}  // namespace
