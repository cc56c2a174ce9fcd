#include "support/rational.hpp"

#include <numeric>
#include <ostream>
#include <stdexcept>

namespace rc11::support {

namespace {

// __int128 is a GCC/Clang extension; __extension__ keeps -Wpedantic quiet.
__extension__ using Wide = __int128;

std::int64_t narrow_checked(Wide v) {
  if (v > Wide(INT64_MAX) || v < Wide(INT64_MIN)) {
    throw RationalOverflow{};
  }
  return static_cast<std::int64_t>(v);
}

Wide wide_gcd(Wide a, Wide b) {
  if (a < 0) a = -a;
  if (b < 0) b = -b;
  while (b != 0) {
    const Wide t = a % b;
    a = b;
    b = t;
  }
  return a;
}

}  // namespace

Rational::Rational(std::int64_t num, std::int64_t den) {
  if (den == 0) {
    throw std::invalid_argument("rc11::support::Rational: zero denominator");
  }
  Wide n = num;
  Wide d = den;
  if (d < 0) {
    n = -n;
    d = -d;
  }
  if (n == 0) {
    num_ = 0;
    den_ = 1;
    return;
  }
  const Wide g = wide_gcd(n, d);
  num_ = narrow_checked(n / g);
  den_ = narrow_checked(d / g);
}

namespace {

Rational make_reduced(Wide n, Wide d) {
  if (d < 0) {
    n = -n;
    d = -d;
  }
  if (n == 0) {
    return Rational{};
  }
  const Wide g = wide_gcd(n, d);
  n /= g;
  d /= g;
  if (n > Wide(INT64_MAX) || n < Wide(INT64_MIN) || d > Wide(INT64_MAX)) {
    throw RationalOverflow{};
  }
  return Rational{static_cast<std::int64_t>(n), static_cast<std::int64_t>(d)};
}

}  // namespace

Rational Rational::operator+(const Rational& rhs) const {
  return make_reduced(Wide(num_) * rhs.den_ + Wide(rhs.num_) * den_,
                      Wide(den_) * rhs.den_);
}

Rational Rational::operator-(const Rational& rhs) const {
  return make_reduced(Wide(num_) * rhs.den_ - Wide(rhs.num_) * den_,
                      Wide(den_) * rhs.den_);
}

Rational Rational::operator*(const Rational& rhs) const {
  return make_reduced(Wide(num_) * rhs.num_, Wide(den_) * rhs.den_);
}

Rational Rational::operator/(const Rational& rhs) const {
  if (rhs.num_ == 0) {
    throw std::invalid_argument("rc11::support::Rational: division by zero");
  }
  return make_reduced(Wide(num_) * rhs.den_, Wide(den_) * rhs.num_);
}

Rational Rational::operator-() const {
  Rational r;
  r.num_ = -num_;  // |num_| <= INT64_MAX after reduction, so negation is safe
  r.den_ = den_;
  return r;
}

std::strong_ordering Rational::operator<=>(const Rational& rhs) const noexcept {
  const Wide lhs_scaled = Wide(num_) * rhs.den_;
  const Wide rhs_scaled = Wide(rhs.num_) * den_;
  if (lhs_scaled < rhs_scaled) return std::strong_ordering::less;
  if (lhs_scaled > rhs_scaled) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

Rational Rational::midpoint(const Rational& a, const Rational& b) {
  return (a + b) / Rational{2};
}

Rational Rational::mediant(const Rational& a, const Rational& b) {
  return make_reduced(Wide(a.num_) + b.num_, Wide(a.den_) + b.den_);
}

Rational Rational::successor() const { return *this + Rational{1}; }

std::string Rational::to_string() const {
  if (den_ == 1) {
    return std::to_string(num_);
  }
  return std::to_string(num_) + "/" + std::to_string(den_);
}

std::ostream& operator<<(std::ostream& os, const Rational& r) {
  return os << r.to_string();
}

}  // namespace rc11::support
