#pragma once
// A software model of fixed-size binary floating point arithmetic.
//
// Section 4 of the paper proves GQR P-complete "under a fixed size floating
// point model of arithmetic" and its construction leans on two properties:
//
//   1. fl(a + b) = a   whenever |b| < eps * |a|   (sufficiently small addends
//      are absorbed by round-to-nearest),
//   2. |x| < omega  =>  x is a machine zero        (underflow flushes),
//
// where eps is the roundoff unit and omega the smallest representable
// magnitude.  SoftFloat<P, Emin, Emax> realizes exactly this model with a
// P-bit significand, round-to-nearest-even, flush-to-zero below 2^Emin and
// saturation-to-error above 2^Emax.  P=53 reproduces IEEE double (modulo
// denormals, which the paper's model does not have); small P lets tests and
// benches sweep the precision axis cheaply.
//
// Representation: magnitude = mant * 2^(exp - (P-1)) with mant in
// [2^(P-1), 2^P) for nonzero values, i.e. `exp` is the exponent of the MSB.

#include <cmath>
#include <compare>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "obs/counters.h"

namespace pfact::numeric {

// Rounding mode applied by every SoftFloat operation on the current thread.
// kNearestEven is the model the paper's Section 4 analysis assumes; the
// other modes exist so the robustness layer can *inject* a rounding-mode
// slip (a classic silent-corruption scenario in real FP stacks) and verify
// it is detected downstream. Thread-local so concurrent guarded runs do not
// perturb each other.
enum class SoftFloatRounding {
  kNearestEven,   // IEEE round-to-nearest, ties to even (default)
  kTowardZero,    // truncate all dropped bits
  kAwayFromZero,  // round up whenever any dropped bit is set
  kCount_,        // sentinel: number of modes
};

inline SoftFloatRounding& softfloat_rounding() {
  thread_local SoftFloatRounding mode = SoftFloatRounding::kNearestEven;
  return mode;
}

// RAII scope for a rounding-mode override; restores the prior mode even if
// the guarded run exits by exception.
class ScopedSoftFloatRounding {
 public:
  explicit ScopedSoftFloatRounding(SoftFloatRounding mode)
      : prev_(softfloat_rounding()) {
    softfloat_rounding() = mode;
  }
  ~ScopedSoftFloatRounding() { softfloat_rounding() = prev_; }
  ScopedSoftFloatRounding(const ScopedSoftFloatRounding&) = delete;
  ScopedSoftFloatRounding& operator=(const ScopedSoftFloatRounding&) = delete;

 private:
  SoftFloatRounding prev_;
};

template <int P, int Emin = -1022, int Emax = 1023>
class SoftFloat {
  static_assert(P >= 2 && P <= 56, "significand width out of range");
  static_assert(Emin < 0 && Emax > 0 && Emin < Emax);

 public:
  constexpr SoftFloat() = default;
  SoftFloat(double d) { *this = from_double(d); }  // NOLINT: implicit for
                                                   // numeric-literal init.

  static constexpr int precision() { return P; }
  // Roundoff unit: half ulp of 1.0 under round-to-nearest.
  static double eps() { return std::ldexp(1.0, -P); }
  // Smallest representable magnitude (the paper's omega).
  static double omega() { return std::ldexp(1.0, Emin); }

  static SoftFloat from_double(double d) {
    if (d != d) throw std::domain_error("SoftFloat: NaN");
    if (std::isinf(d)) throw std::overflow_error("SoftFloat: infinite");
    if (d == 0.0) return SoftFloat{};
    int e = 0;
    double m = std::frexp(std::fabs(d), &e);  // |d| = m * 2^e, m in [0.5,1)
    auto mant = static_cast<std::uint64_t>(std::ldexp(m, 53));
    return make(d < 0 ? -1 : 1, mant, e - 53, false);
  }

  double to_double() const {
    if (is_zero()) return 0.0;
    return sign_ * std::ldexp(static_cast<double>(mant_), exp_ - (P - 1));
  }

  bool is_zero() const { return mant_ == 0; }
  int signum() const { return mant_ == 0 ? 0 : sign_; }

  SoftFloat operator-() const {
    SoftFloat out = *this;
    out.sign_ = -out.sign_;
    return out;
  }

  SoftFloat abs() const {
    SoftFloat out = *this;
    out.sign_ = 1;
    return out;
  }

  friend SoftFloat operator+(const SoftFloat& a, const SoftFloat& b) {
    PFACT_COUNT(kSoftFloatAdds);
    if (a.is_zero()) return b;
    if (b.is_zero()) return a;
    const SoftFloat& big = a.cmp_mag(b) >= 0 ? a : b;
    const SoftFloat& sml = a.cmp_mag(b) >= 0 ? b : a;
    int gap = big.exp_ - sml.exp_;
    if (gap > P + 3) return big;  // property 1: the small addend is absorbed
    // Align both significands to the small operand's LSB scale.
    auto wide_big = static_cast<__int128>(big.mant_) << gap;
    auto wide_sml = static_cast<__int128>(sml.mant_);
    __int128 sum = big.sign_ * wide_big + sml.sign_ * wide_sml;
    if (sum == 0) return SoftFloat{};
    int sign = sum < 0 ? -1 : 1;
    unsigned __int128 mag = sign < 0 ? static_cast<unsigned __int128>(-sum)
                                     : static_cast<unsigned __int128>(sum);
    return make(sign, mag, sml.exp_ - (P - 1), false);
  }

  friend SoftFloat operator-(const SoftFloat& a, const SoftFloat& b) {
    return a + (-b);
  }

  friend SoftFloat operator*(const SoftFloat& a, const SoftFloat& b) {
    PFACT_COUNT(kSoftFloatMuls);
    if (a.is_zero() || b.is_zero()) return SoftFloat{};
    unsigned __int128 prod =
        static_cast<unsigned __int128>(a.mant_) * b.mant_;
    return make(a.sign_ * b.sign_, prod,
                (a.exp_ - (P - 1)) + (b.exp_ - (P - 1)), false);
  }

  friend SoftFloat operator/(const SoftFloat& a, const SoftFloat& b) {
    PFACT_COUNT(kSoftFloatDivs);
    if (b.is_zero()) throw std::domain_error("SoftFloat: division by zero");
    if (a.is_zero()) return SoftFloat{};
    unsigned __int128 num = static_cast<unsigned __int128>(a.mant_)
                            << (P + 3);
    unsigned __int128 q = num / b.mant_;
    bool sticky = (num % b.mant_) != 0;
    int exp_lsb = (a.exp_ - (P - 1)) - (P + 3) - (b.exp_ - (P - 1));
    return make(a.sign_ * b.sign_, q, exp_lsb, sticky);
  }

  SoftFloat& operator+=(const SoftFloat& b) { return *this = *this + b; }
  SoftFloat& operator-=(const SoftFloat& b) { return *this = *this - b; }
  SoftFloat& operator*=(const SoftFloat& b) { return *this = *this * b; }
  SoftFloat& operator/=(const SoftFloat& b) { return *this = *this / b; }

  friend SoftFloat sqrt(const SoftFloat& a) {
    PFACT_COUNT(kSoftFloatSqrts);
    if (a.is_zero()) return SoftFloat{};
    if (a.sign_ < 0) throw std::domain_error("SoftFloat: sqrt of negative");
    // Shift so the wide value has even LSB exponent, then integer sqrt.
    int exp_lsb = a.exp_ - (P - 1);
    int t = P + 3;
    if ((exp_lsb - t) % 2 != 0) ++t;
    unsigned __int128 wide = static_cast<unsigned __int128>(a.mant_) << t;
    unsigned __int128 s = isqrt(wide);
    bool sticky = s * s != wide;
    return make(1, s, (exp_lsb - t) / 2, sticky);
  }

  friend bool operator==(const SoftFloat& a, const SoftFloat& b) {
    if (a.is_zero() && b.is_zero()) return true;
    return a.sign_ == b.sign_ && a.exp_ == b.exp_ && a.mant_ == b.mant_;
  }

  friend std::strong_ordering operator<=>(const SoftFloat& a,
                                          const SoftFloat& b) {
    int sa = a.signum();
    int sb = b.signum();
    if (sa != sb) return sa <=> sb;
    if (sa == 0) return std::strong_ordering::equal;
    int c = a.cmp_mag(b) * sa;
    if (c < 0) return std::strong_ordering::less;
    if (c > 0) return std::strong_ordering::greater;
    return std::strong_ordering::equal;
  }

  std::string to_string() const { return std::to_string(to_double()); }

 private:
  // Builds a rounded, normalized value sign * mant * 2^exp_lsb.
  static SoftFloat make(int sign, unsigned __int128 mant, int exp_lsb,
                        bool sticky) {
    if (mant == 0) return SoftFloat{};
    int len = bit_length(mant);
    std::uint64_t m = 0;
    if (len > P) {
      int drop = len - P;
      unsigned __int128 dropped = mant & ((static_cast<unsigned __int128>(1)
                                           << drop) -
                                          1);
      m = static_cast<std::uint64_t>(mant >> drop);
      unsigned __int128 round_bit = static_cast<unsigned __int128>(1)
                                    << (drop - 1);
      bool round = (dropped & round_bit) != 0;
      bool low_sticky = sticky || (dropped & (round_bit - 1)) != 0;
      exp_lsb += drop;
      bool increment = false;
      switch (softfloat_rounding()) {
        case SoftFloatRounding::kNearestEven:
          PFACT_COUNT(kSoftFloatRoundNearestEven);
          increment = round && (low_sticky || (m & 1u));
          break;
        case SoftFloatRounding::kTowardZero:
          PFACT_COUNT(kSoftFloatRoundTowardZero);
          increment = false;
          break;
        case SoftFloatRounding::kAwayFromZero:
          PFACT_COUNT(kSoftFloatRoundAwayFromZero);
          increment = round || low_sticky;
          break;
        case SoftFloatRounding::kCount_:
          break;
      }
      if (increment) {
        ++m;
        if (m == (1ull << P)) {  // carry out of the significand
          m >>= 1;
          ++exp_lsb;
        }
      }
    } else {
      m = static_cast<std::uint64_t>(mant) << (P - len);
      exp_lsb -= (P - len);
    }
    int exp_msb = exp_lsb + (P - 1);
    if (exp_msb < Emin) return SoftFloat{};  // property 2: flush to zero
    if (exp_msb > Emax) throw std::overflow_error("SoftFloat: overflow");
    SoftFloat out;
    out.sign_ = static_cast<std::int8_t>(sign);
    out.exp_ = exp_msb;
    out.mant_ = m;
    return out;
  }

  int cmp_mag(const SoftFloat& b) const {
    if (is_zero() || b.is_zero()) return (mant_ != 0) - (b.mant_ != 0);
    if (exp_ != b.exp_) return exp_ < b.exp_ ? -1 : 1;
    if (mant_ != b.mant_) return mant_ < b.mant_ ? -1 : 1;
    return 0;
  }

  static int bit_length(unsigned __int128 v) {
    int n = 0;
    while (v != 0) {
      ++n;
      v >>= 1;
    }
    return n;
  }

  static unsigned __int128 isqrt(unsigned __int128 v) {
    if (v == 0) return 0;
    // Newton iteration seeded from a slight over-estimate built out of a
    // double sqrt of the high bits; from above, Newton decreases monotonely.
    int len = bit_length(v);
    unsigned __int128 x;
    if (len <= 52) {
      x = static_cast<unsigned __int128>(
              std::sqrt(static_cast<double>(static_cast<std::uint64_t>(v)))) +
          2;
    } else {
      int shift = len - 52;
      if (shift % 2 != 0) ++shift;
      double est = std::sqrt(
          static_cast<double>(static_cast<std::uint64_t>(v >> shift)));
      x = (static_cast<unsigned __int128>(est) + 2) << (shift / 2);
    }
    for (int i = 0; i < 64; ++i) {
      unsigned __int128 nx = (x + v / x) >> 1;
      if (nx >= x) break;
      x = nx;
    }
    while (x * x > v) --x;
    while ((x + 1) * (x + 1) <= v) ++x;
    return x;
  }

  std::int8_t sign_ = 1;
  std::int32_t exp_ = 0;
  std::uint64_t mant_ = 0;
};

template <int P, int Emin, int Emax>
SoftFloat<P, Emin, Emax> abs(const SoftFloat<P, Emin, Emax>& a) {
  return a.abs();
}

// The model instances used throughout the experiments.
using Float24 = SoftFloat<24, -126, 127>;   // IEEE single (no denormals)
using Float53 = SoftFloat<53, -1022, 1023>; // IEEE double (no denormals)

}  // namespace pfact::numeric
