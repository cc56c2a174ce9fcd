// Tests for interning and diagnostics helpers.

#include <gtest/gtest.h>

#include "support/diagnostics.hpp"
#include "support/intern.hpp"

namespace {

using namespace rc11::support;

TEST(SymbolTable, InternIsIdempotent) {
  SymbolTable t;
  const auto a = t.intern("x");
  const auto b = t.intern("y");
  EXPECT_NE(a, b);
  EXPECT_EQ(t.intern("x"), a);
  EXPECT_EQ(t.size(), 2u);
}

TEST(SymbolTable, LookupAndNames) {
  SymbolTable t;
  const auto a = t.intern("alpha");
  EXPECT_EQ(t.lookup("alpha"), a);
  EXPECT_EQ(t.lookup("beta"), kInvalidSymbol);
  EXPECT_EQ(t.name(a), "alpha");
  EXPECT_TRUE(t.contains("alpha"));
  EXPECT_FALSE(t.contains("beta"));
}

TEST(SymbolTable, DenseIds) {
  SymbolTable t;
  for (int i = 0; i < 100; ++i) {
    std::string name = "s";
    name += std::to_string(i);
    EXPECT_EQ(t.intern(name), static_cast<SymbolId>(i));
  }
}

TEST(Diagnostics, RequirePassesAndFails) {
  EXPECT_NO_THROW(require(true, "fine"));
  EXPECT_THROW(require(false, "value was ", 42), Error);
  try {
    require(false, "value was ", 42);
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "value was 42");
  }
}

TEST(Diagnostics, InternalInvariantMacro) {
  EXPECT_NO_THROW(RC11_REQUIRE(1 + 1 == 2, "arithmetic"));
  EXPECT_THROW(RC11_REQUIRE(false, "broken"), InternalError);
}

TEST(Diagnostics, ConcatFormatsPieces) {
  EXPECT_EQ(concat("a", 1, "b", 2.5), "a1b2.5");
}

}  // namespace
