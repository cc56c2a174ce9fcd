// Unit tests of the memory-state validator.  Its invariants are checked at
// every reachable state of every matrix input by the matrix's P1 row
// (matrix::well_formed, tests/matrix.hpp).

#include <gtest/gtest.h>

#include "memsem/validate.hpp"

namespace {

using namespace rc11;

TEST(Validator, AcceptsInitialStates) {
  memsem::LocationTable locs;
  locs.add_var("x", memsem::Component::Client, 0);
  locs.add_object("l", memsem::Component::Library, memsem::LocKind::Lock);
  locs.add_object("s", memsem::Component::Library, memsem::LocKind::Stack);
  const memsem::MemState m{locs, 3};
  EXPECT_EQ(memsem::validate(m), std::nullopt);
}

TEST(Validator, MonotoneIsReflexive) {
  memsem::LocationTable locs;
  locs.add_var("x", memsem::Component::Client, 0);
  const memsem::MemState m{locs, 2};
  EXPECT_EQ(memsem::validate_view_monotone(m, m), std::nullopt);
}

TEST(Validator, DetectsBackwardViews) {
  memsem::LocationTable locs;
  const auto x = locs.add_var("x", memsem::Component::Client, 0);
  memsem::MemState before{locs, 2};
  memsem::MemState after = before;
  before.write(0, x, 1, memsem::MemOrder::Relaxed, before.mo(x)[0]);
  // `after` never advanced, so thread 0's view in `after` is behind.
  EXPECT_NE(memsem::validate_view_monotone(before, after), std::nullopt);
}

}  // namespace
