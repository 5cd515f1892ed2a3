// Arbitrary-precision unsigned integers for the DSA/DH substrate.
//
// Representation: little-endian vector of 32-bit limbs, normalized so the
// most-significant limb is non-zero (zero is the empty vector). All values
// are non-negative; subtraction requires a >= b. Division is Knuth vol.2
// Algorithm D. This is deliberately a small, auditable bignum — enough for
// 1024-bit DSA/DH at benchmark-friendly speed, not a general math library.
// Modular exponentiation runs in MontgomeryCtx below, on 64-bit words.
#ifndef DISCFS_SRC_CRYPTO_BIGNUM_H_
#define DISCFS_SRC_CRYPTO_BIGNUM_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/util/bytes.h"
#include "src/util/status.h"

namespace discfs {

class BigNum {
 public:
  BigNum() = default;
  explicit BigNum(uint64_t v);

  // Big-endian byte import/export (the network/KeyNote encoding).
  static BigNum FromBytes(const Bytes& be);
  // Fixed-width big-endian export, zero-padded on the left. If the value
  // needs more than `width` bytes the result is truncated from the left
  // (callers size width from the modulus, so this does not happen in
  // correct use).
  Bytes ToBytes(size_t width = 0) const;

  static Result<BigNum> FromHex(std::string_view hex);
  std::string ToHex() const;  // lowercase, no leading zeros, "0" for zero

  static Result<BigNum> FromDecimal(std::string_view dec);
  std::string ToDecimal() const;

  bool IsZero() const { return limbs_.empty(); }
  bool IsOdd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  // Number of significant bits; 0 for zero.
  size_t BitLength() const;
  bool Bit(size_t i) const;
  uint64_t ToUint64() const;  // low 64 bits

  // -1 / 0 / +1 as a < b, a == b, a > b.
  static int Compare(const BigNum& a, const BigNum& b);

  static BigNum Add(const BigNum& a, const BigNum& b);
  // Requires a >= b.
  static BigNum Sub(const BigNum& a, const BigNum& b);
  static BigNum Mul(const BigNum& a, const BigNum& b);
  // Requires !divisor.IsZero(). Returns {quotient, remainder}.
  static std::pair<BigNum, BigNum> DivMod(const BigNum& a, const BigNum& b);
  static BigNum Mod(const BigNum& a, const BigNum& m);

  static BigNum ShiftLeft(const BigNum& a, size_t bits);
  static BigNum ShiftRight(const BigNum& a, size_t bits);

  // (a * b) mod m, (a ^ e) mod m. Require !m.IsZero(). ModExp routes odd
  // moduli through a MontgomeryCtx and falls back to ModExpReference for
  // even moduli.
  static BigNum ModMul(const BigNum& a, const BigNum& b, const BigNum& m);
  static BigNum ModExp(const BigNum& base, const BigNum& exp, const BigNum& m);
  // Pre-Montgomery implementation (4-bit windows over ModMul's schoolbook
  // multiply + Knuth reduction). Works for any modulus; kept as the
  // equivalence-test and benchmark reference.
  static BigNum ModExpReference(const BigNum& base, const BigNum& exp,
                                const BigNum& m);
  // Modular inverse; error if gcd(a, m) != 1. Extended Euclid over
  // BigNum division; the reference for ModInverseBinary.
  static Result<BigNum> ModInverse(const BigNum& a, const BigNum& m);
  // The same result and the same error as ModInverse, by binary extended
  // Euclid on 64-bit words when m is odd and at most 512 bits wide (a DSA
  // q); other moduli go through ModInverse.
  static Result<BigNum> ModInverseBinary(const BigNum& a, const BigNum& m);

  static BigNum Gcd(const BigNum& a, const BigNum& b);

  // Miller-Rabin with `rounds` random bases supplied by `rand_below`
  // (callback returning a uniform value in [2, n-2]).
  static bool IsProbablePrime(
      const BigNum& n, int rounds,
      const std::function<BigNum(const BigNum& excl_hi)>& rand_below);

  // Uniform value in [0, bound) from a source of random bytes.
  static BigNum RandomBelow(const BigNum& bound,
                            const std::function<Bytes(size_t)>& rand_bytes);

  bool operator==(const BigNum& o) const { return limbs_ == o.limbs_; }
  bool operator!=(const BigNum& o) const { return limbs_ != o.limbs_; }
  bool operator<(const BigNum& o) const { return Compare(*this, o) < 0; }
  bool operator<=(const BigNum& o) const { return Compare(*this, o) <= 0; }
  bool operator>(const BigNum& o) const { return Compare(*this, o) > 0; }
  bool operator>=(const BigNum& o) const { return Compare(*this, o) >= 0; }

 private:
  friend class MontgomeryCtx;

  void Normalize();
  // The value as `words` little-endian 64-bit words (it must fit), and
  // back.
  void ToWords(uint64_t* out, size_t words) const;
  static BigNum FromWords(const uint64_t* words, size_t n);
  // Knuth Algorithm D core shared by DivMod and Mod: returns the
  // remainder; fills *quotient when non-null (the hot reductions pass
  // null and skip materializing quotient limbs).
  static BigNum DivModImpl(const BigNum& a, const BigNum& b,
                           BigNum* quotient);

  std::vector<uint32_t> limbs_;  // little-endian, no trailing zero limbs
};

// Montgomery-domain arithmetic for a fixed odd modulus over 64-bit limbs
// (BigNum keeps 32-bit limbs; an element here holds width() = ceil(|m| /
// 64) words, R = 2^(64 width())). MulMont is word-level CIOS with
// interleaved REDC and 128-bit products: one fused loop over the limbs,
// its scratch on the stack for moduli up to kStackLimbs words (4096 bits)
// and on the heap past that. Construction is the only place that divides.
//
// Two exponentiations:
//  * ModExp(base, exp): 4-bit fixed windows, a 16-entry table per call.
//    For bases that change every call (DH's peer value).
//  * Fixed-base comb (Lim and Lee, CRYPTO '94; HAC 14.6.3 with v = 1):
//    BuildComb(base, bits) splits an exponent of up to `bits` bits into
//    kCombRows rows of cols = ceil(bits / kCombRows) bits and stores the
//    2^kCombRows products of base^(2^(r cols)) over every subset of rows.
//    ModExp(comb, exp) then costs cols - 1 squarings and at most cols
//    multiplies, and ModExpDouble shares the squarings between two combs
//    of one shape. A 160-bit DSA exponent takes 26 squarings and about 27
//    multiplies per base, against 156 squarings and about 52 for windows.
//    Building a comb costs (kCombRows - 1) cols squarings and 57
//    multiplies; its table is 2^kCombRows elements.
//
// Thread-safe after construction: all methods are const and touch no
// shared mutable state.
class MontgomeryCtx {
 public:
  // Montgomery-domain element: exactly `width()` little-endian words.
  using Elem = std::vector<uint64_t>;

  static constexpr size_t kStackLimbs = 64;
  static constexpr size_t kCombRows = 6;

  // A Lim-Lee comb for one base under one context. Only the context that
  // built it may use it.
  class Comb {
   public:
    Comb() = default;
    // Widest exponent the comb covers; ModExp takes windows past it.
    size_t max_exp_bits() const { return kCombRows * cols_; }

   private:
    friend class MontgomeryCtx;
    size_t cols_ = 0;
    // 2^kCombRows elements; entry i is the product of base^(2^(r cols))
    // over the set bits r of i.
    std::vector<uint64_t> table_;
  };

  // Fails unless m is odd and > 1 (REDC needs gcd(m, 2^64) == 1).
  static Result<MontgomeryCtx> Create(const BigNum& m);

  const BigNum& modulus() const { return m_; }
  size_t width() const { return n_; }

  // base^exp mod m by 4-bit windows.
  BigNum ModExp(const BigNum& base, const BigNum& exp) const;

  // A comb for `base`, sized for exponents of up to `exp_bits` bits.
  Comb BuildComb(const BigNum& base, size_t exp_bits) const;
  // base^exp mod m through the comb.
  BigNum ModExp(const Comb& base, const BigNum& exp) const;
  // a^ea * b^eb mod m, one squaring per column for both bases when the
  // combs share a shape and both exponents fit; else two comb powers.
  BigNum ModExpDouble(const Comb& a, const BigNum& ea, const Comb& b,
                      const BigNum& eb) const;

  // Domain conversion and the kernel (exposed for tests and benches).
  Elem ToMont(const BigNum& a) const;
  BigNum FromMont(const uint64_t* a) const;
  // out = a * b * R^-1 mod m over width() words each. out may alias a
  // or b. Allocates nothing up to kStackLimbs words.
  void MulMont(const uint64_t* a, const uint64_t* b, uint64_t* out) const;

 private:
  explicit MontgomeryCtx(BigNum m);

  // base^exp for a Montgomery-form base, by 4-bit windows; exp > 0.
  BigNum ExpWindows(const uint64_t* base, const BigNum& exp) const;

  BigNum m_;
  size_t n_ = 0;        // word width of every element
  uint64_t n0inv_ = 0;  // -m^-1 mod 2^64
  Elem m_words_;        // m
  Elem rr_;             // R^2 mod m (Montgomery form of R)
  Elem one_;            // R mod m   (Montgomery form of 1)
};

inline BigNum operator+(const BigNum& a, const BigNum& b) {
  return BigNum::Add(a, b);
}
inline BigNum operator-(const BigNum& a, const BigNum& b) {
  return BigNum::Sub(a, b);
}
inline BigNum operator*(const BigNum& a, const BigNum& b) {
  return BigNum::Mul(a, b);
}
inline BigNum operator/(const BigNum& a, const BigNum& b) {
  return BigNum::DivMod(a, b).first;
}
inline BigNum operator%(const BigNum& a, const BigNum& b) {
  return BigNum::Mod(a, b);
}

}  // namespace discfs

#endif  // DISCFS_SRC_CRYPTO_BIGNUM_H_
