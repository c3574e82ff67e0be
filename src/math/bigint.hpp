#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

namespace reconf::math {

/// Arbitrary-precision signed integer (sign + little-endian 32-bit limbs).
///
/// Scope: exactly what BigRational needs — addition, subtraction,
/// multiplication, shifts, comparison, Stein's GCD, and small-divisor
/// division for decimal printing. Magnitudes in this library stay in the
/// hundreds of bits (products of ~20-bit task parameters across <=64 tasks),
/// so schoolbook algorithms are entirely adequate.
class BigInt {
 public:
  BigInt() = default;
  BigInt(std::int64_t value);  // NOLINT: implicit by design

  [[nodiscard]] static BigInt from_string(const std::string& decimal);

  [[nodiscard]] bool is_zero() const noexcept { return limbs_.empty(); }
  [[nodiscard]] bool is_negative() const noexcept { return negative_; }

  /// Number of significant bits of |*this| (0 for zero).
  [[nodiscard]] std::size_t bit_length() const noexcept;

  /// Value as int64 if it fits; asserts otherwise.
  [[nodiscard]] std::int64_t to_int64() const;

  /// True if the value fits in int64.
  [[nodiscard]] bool fits_int64() const noexcept;

  /// Closest double (may round; infinity on exponent overflow).
  [[nodiscard]] double to_double() const noexcept;

  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] BigInt abs() const;
  [[nodiscard]] BigInt negated() const;

  BigInt& operator+=(const BigInt& o);
  BigInt& operator-=(const BigInt& o);
  BigInt& operator*=(const BigInt& o);
  BigInt& operator<<=(std::size_t bits);
  BigInt& operator>>=(std::size_t bits);

  friend BigInt operator+(BigInt a, const BigInt& b) { return a += b; }
  friend BigInt operator-(BigInt a, const BigInt& b) { return a -= b; }
  friend BigInt operator*(BigInt a, const BigInt& b) { return a *= b; }
  friend BigInt operator<<(BigInt a, std::size_t bits) { return a <<= bits; }
  friend BigInt operator>>(BigInt a, std::size_t bits) { return a >>= bits; }

  friend bool operator==(const BigInt& a, const BigInt& b) noexcept {
    return a.negative_ == b.negative_ && a.limbs_ == b.limbs_;
  }
  friend std::strong_ordering operator<=>(const BigInt& a,
                                          const BigInt& b) noexcept;

  /// Divides by a small positive divisor in place; returns the remainder.
  std::uint32_t divmod_small(std::uint32_t divisor);

  /// GCD of absolute values (Stein's algorithm — shift/subtract only).
  [[nodiscard]] static BigInt gcd(const BigInt& a, const BigInt& b);

  /// Truncated division |a| / |b| with sign handling (quotient only).
  /// Used by BigRational reduction.
  [[nodiscard]] static BigInt divide_exact(const BigInt& dividend,
                                           const BigInt& divisor);

 private:
  /// Compares magnitudes: -1, 0, +1.
  [[nodiscard]] static int compare_magnitude(const BigInt& a,
                                             const BigInt& b) noexcept;
  static void add_magnitude(std::vector<std::uint32_t>& acc,
                            const std::vector<std::uint32_t>& o);
  /// acc -= o; requires magnitude(acc) >= magnitude(o).
  static void sub_magnitude(std::vector<std::uint32_t>& acc,
                            const std::vector<std::uint32_t>& o);
  void trim() noexcept;
  [[nodiscard]] std::size_t trailing_zero_bits() const noexcept;

  bool negative_ = false;
  std::vector<std::uint32_t> limbs_;  // little-endian; empty == 0
};

}  // namespace reconf::math
