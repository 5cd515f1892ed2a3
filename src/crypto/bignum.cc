#include "src/crypto/bignum.h"

#include <algorithm>
#include <cassert>

#include "src/util/hex.h"

namespace discfs {

namespace {
constexpr uint64_t kBase = 1ULL << 32;
}  // namespace

BigNum::BigNum(uint64_t v) {
  if (v != 0) {
    limbs_.push_back(static_cast<uint32_t>(v));
    if (v >> 32) {
      limbs_.push_back(static_cast<uint32_t>(v >> 32));
    }
  }
}

void BigNum::Normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) {
    limbs_.pop_back();
  }
}

void BigNum::ToWords(uint64_t* out, size_t words) const {
  std::fill(out, out + words, 0);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    out[i / 2] |= static_cast<uint64_t>(limbs_[i]) << (32 * (i % 2));
  }
}

BigNum BigNum::FromWords(const uint64_t* words, size_t n) {
  BigNum out;
  out.limbs_.resize(2 * n);
  for (size_t i = 0; i < n; ++i) {
    out.limbs_[2 * i] = static_cast<uint32_t>(words[i]);
    out.limbs_[2 * i + 1] = static_cast<uint32_t>(words[i] >> 32);
  }
  out.Normalize();
  return out;
}

BigNum BigNum::FromBytes(const Bytes& be) {
  BigNum out;
  out.limbs_.assign((be.size() + 3) / 4, 0);
  for (size_t i = 0; i < be.size(); ++i) {
    size_t byte_index = be.size() - 1 - i;  // position from LSB
    out.limbs_[i / 4] |= static_cast<uint32_t>(be[byte_index]) << (8 * (i % 4));
  }
  out.Normalize();
  return out;
}

Bytes BigNum::ToBytes(size_t width) const {
  size_t nbytes = (BitLength() + 7) / 8;
  if (width == 0) {
    width = std::max<size_t>(nbytes, 1);
  }
  Bytes out(width, 0);
  size_t n = std::min(nbytes, width);
  for (size_t i = 0; i < n; ++i) {
    uint32_t limb = limbs_[i / 4];
    out[width - 1 - i] = static_cast<uint8_t>(limb >> (8 * (i % 4)));
  }
  return out;
}

Result<BigNum> BigNum::FromHex(std::string_view hex) {
  std::string padded(hex);
  if (padded.size() % 2 != 0) {
    padded.insert(padded.begin(), '0');
  }
  ASSIGN_OR_RETURN(Bytes bytes, HexDecode(padded));
  return FromBytes(bytes);
}

std::string BigNum::ToHex() const {
  if (IsZero()) {
    return "0";
  }
  std::string out = HexEncode(ToBytes());
  size_t first = out.find_first_not_of('0');
  return out.substr(first);
}

Result<BigNum> BigNum::FromDecimal(std::string_view dec) {
  if (dec.empty()) {
    return InvalidArgumentError("empty decimal string");
  }
  BigNum out;
  BigNum ten(10);
  for (char c : dec) {
    if (c < '0' || c > '9') {
      return InvalidArgumentError("invalid decimal digit");
    }
    out = Add(Mul(out, ten), BigNum(static_cast<uint64_t>(c - '0')));
  }
  return out;
}

std::string BigNum::ToDecimal() const {
  if (IsZero()) {
    return "0";
  }
  std::string out;
  BigNum n = *this;
  BigNum ten(10);
  while (!n.IsZero()) {
    auto [q, r] = DivMod(n, ten);
    out.push_back(static_cast<char>('0' + r.ToUint64()));
    n = std::move(q);
  }
  std::reverse(out.begin(), out.end());
  return out;
}

size_t BigNum::BitLength() const {
  if (limbs_.empty()) {
    return 0;
  }
  uint32_t top = limbs_.back();
  size_t bits = (limbs_.size() - 1) * 32;
  while (top) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigNum::Bit(size_t i) const {
  size_t limb = i / 32;
  if (limb >= limbs_.size()) {
    return false;
  }
  return (limbs_[limb] >> (i % 32)) & 1;
}

uint64_t BigNum::ToUint64() const {
  uint64_t v = 0;
  if (!limbs_.empty()) {
    v = limbs_[0];
  }
  if (limbs_.size() > 1) {
    v |= static_cast<uint64_t>(limbs_[1]) << 32;
  }
  return v;
}

int BigNum::Compare(const BigNum& a, const BigNum& b) {
  if (a.limbs_.size() != b.limbs_.size()) {
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  }
  for (size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) {
      return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
    }
  }
  return 0;
}

BigNum BigNum::Add(const BigNum& a, const BigNum& b) {
  BigNum out;
  size_t n = std::max(a.limbs_.size(), b.limbs_.size());
  out.limbs_.resize(n + 1, 0);
  uint64_t carry = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t sum = carry;
    if (i < a.limbs_.size()) {
      sum += a.limbs_[i];
    }
    if (i < b.limbs_.size()) {
      sum += b.limbs_[i];
    }
    out.limbs_[i] = static_cast<uint32_t>(sum);
    carry = sum >> 32;
  }
  out.limbs_[n] = static_cast<uint32_t>(carry);
  out.Normalize();
  return out;
}

BigNum BigNum::Sub(const BigNum& a, const BigNum& b) {
  assert(Compare(a, b) >= 0 && "BigNum::Sub requires a >= b");
  BigNum out;
  out.limbs_.resize(a.limbs_.size(), 0);
  int64_t borrow = 0;
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    int64_t diff = static_cast<int64_t>(a.limbs_[i]) - borrow;
    if (i < b.limbs_.size()) {
      diff -= b.limbs_[i];
    }
    if (diff < 0) {
      diff += static_cast<int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_[i] = static_cast<uint32_t>(diff);
  }
  out.Normalize();
  return out;
}

BigNum BigNum::Mul(const BigNum& a, const BigNum& b) {
  if (a.IsZero() || b.IsZero()) {
    return BigNum();
  }
  BigNum out;
  out.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    uint64_t carry = 0;
    uint64_t ai = a.limbs_[i];
    for (size_t j = 0; j < b.limbs_.size(); ++j) {
      uint64_t cur = out.limbs_[i + j] + ai * b.limbs_[j] + carry;
      out.limbs_[i + j] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
    }
    size_t k = i + b.limbs_.size();
    while (carry) {
      uint64_t cur = out.limbs_[k] + carry;
      out.limbs_[k] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
      ++k;
    }
  }
  out.Normalize();
  return out;
}

BigNum BigNum::ShiftLeft(const BigNum& a, size_t bits) {
  if (a.IsZero()) {
    return BigNum();
  }
  size_t limb_shift = bits / 32;
  size_t bit_shift = bits % 32;
  BigNum out;
  out.limbs_.assign(a.limbs_.size() + limb_shift + 1, 0);
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    uint64_t v = static_cast<uint64_t>(a.limbs_[i]) << bit_shift;
    out.limbs_[i + limb_shift] |= static_cast<uint32_t>(v);
    out.limbs_[i + limb_shift + 1] |= static_cast<uint32_t>(v >> 32);
  }
  out.Normalize();
  return out;
}

BigNum BigNum::ShiftRight(const BigNum& a, size_t bits) {
  size_t limb_shift = bits / 32;
  size_t bit_shift = bits % 32;
  if (limb_shift >= a.limbs_.size()) {
    return BigNum();
  }
  BigNum out;
  out.limbs_.assign(a.limbs_.size() - limb_shift, 0);
  for (size_t i = 0; i < out.limbs_.size(); ++i) {
    uint64_t v = a.limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < a.limbs_.size()) {
      v |= static_cast<uint64_t>(a.limbs_[i + limb_shift + 1])
           << (32 - bit_shift);
    }
    out.limbs_[i] = static_cast<uint32_t>(v);
  }
  out.Normalize();
  return out;
}

BigNum BigNum::DivModImpl(const BigNum& a, const BigNum& b,
                          BigNum* quotient) {
  assert(!b.IsZero() && "division by zero");
  if (Compare(a, b) < 0) {
    if (quotient != nullptr) {
      *quotient = BigNum();
    }
    return a;
  }
  // Single-limb divisor fast path.
  if (b.limbs_.size() == 1) {
    uint64_t d = b.limbs_[0];
    BigNum q;
    if (quotient != nullptr) {
      q.limbs_.assign(a.limbs_.size(), 0);
    }
    uint64_t rem = 0;
    for (size_t i = a.limbs_.size(); i-- > 0;) {
      uint64_t cur = (rem << 32) | a.limbs_[i];
      if (quotient != nullptr) {
        q.limbs_[i] = static_cast<uint32_t>(cur / d);
      }
      rem = cur % d;
    }
    if (quotient != nullptr) {
      q.Normalize();
      *quotient = std::move(q);
    }
    return BigNum(rem);
  }

  // Knuth TAOCP vol.2, 4.3.1, Algorithm D. With quotient == nullptr, q̂
  // only drives the subtraction — no quotient limbs are materialized.
  const size_t n = b.limbs_.size();
  const size_t m = a.limbs_.size() - n;

  // D1: normalize so the divisor's top limb has its high bit set.
  int shift = 0;
  uint32_t top = b.limbs_.back();
  while ((top & 0x80000000u) == 0) {
    top <<= 1;
    ++shift;
  }
  BigNum un = ShiftLeft(a, shift);
  BigNum vn = ShiftLeft(b, shift);
  un.limbs_.resize(a.limbs_.size() + 1, 0);  // extra high limb for D4
  vn.limbs_.resize(n, 0);

  BigNum q;
  if (quotient != nullptr) {
    q.limbs_.assign(m + 1, 0);
  }

  const uint64_t v_hi = vn.limbs_[n - 1];
  const uint64_t v_lo = vn.limbs_[n - 2];

  for (size_t j = m + 1; j-- > 0;) {
    // D3: estimate q̂.
    uint64_t numer =
        (static_cast<uint64_t>(un.limbs_[j + n]) << 32) | un.limbs_[j + n - 1];
    uint64_t qhat = numer / v_hi;
    uint64_t rhat = numer % v_hi;
    while (qhat >= kBase ||
           qhat * v_lo > ((rhat << 32) | un.limbs_[j + n - 2])) {
      --qhat;
      rhat += v_hi;
      if (rhat >= kBase) {
        break;
      }
    }

    // D4: multiply and subtract.
    int64_t borrow = 0;
    uint64_t carry = 0;
    for (size_t i = 0; i < n; ++i) {
      uint64_t p = qhat * vn.limbs_[i] + carry;
      carry = p >> 32;
      int64_t t = static_cast<int64_t>(un.limbs_[i + j]) -
                  static_cast<int64_t>(p & 0xffffffffu) - borrow;
      if (t < 0) {
        t += static_cast<int64_t>(kBase);
        borrow = 1;
      } else {
        borrow = 0;
      }
      un.limbs_[i + j] = static_cast<uint32_t>(t);
    }
    int64_t t = static_cast<int64_t>(un.limbs_[j + n]) -
                static_cast<int64_t>(carry) - borrow;
    bool negative = t < 0;
    un.limbs_[j + n] = static_cast<uint32_t>(t);

    // D5/D6: if we subtracted too much, add the divisor back once.
    if (negative) {
      --qhat;
      uint64_t c = 0;
      for (size_t i = 0; i < n; ++i) {
        uint64_t s =
            static_cast<uint64_t>(un.limbs_[i + j]) + vn.limbs_[i] + c;
        un.limbs_[i + j] = static_cast<uint32_t>(s);
        c = s >> 32;
      }
      un.limbs_[j + n] = static_cast<uint32_t>(un.limbs_[j + n] + c);
    }
    if (quotient != nullptr) {
      q.limbs_[j] = static_cast<uint32_t>(qhat);
    }
  }

  if (quotient != nullptr) {
    q.Normalize();
    *quotient = std::move(q);
  }
  un.limbs_.resize(n);
  un.Normalize();
  return ShiftRight(un, shift);
}

std::pair<BigNum, BigNum> BigNum::DivMod(const BigNum& a, const BigNum& b) {
  BigNum q;
  BigNum r = DivModImpl(a, b, &q);
  return {std::move(q), std::move(r)};
}

BigNum BigNum::Mod(const BigNum& a, const BigNum& m) {
  return DivModImpl(a, m, nullptr);
}

BigNum BigNum::ModMul(const BigNum& a, const BigNum& b, const BigNum& m) {
  return Mod(Mul(a, b), m);
}

BigNum BigNum::ModExp(const BigNum& base, const BigNum& exp, const BigNum& m) {
  if (m.IsOdd() && m.BitLength() > 1) {
    auto ctx = MontgomeryCtx::Create(m);
    assert(ctx.ok());
    return ctx->ModExp(base, exp);
  }
  return ModExpReference(base, exp, m);
}

BigNum BigNum::ModExpReference(const BigNum& base, const BigNum& exp,
                               const BigNum& m) {
  if (m.BitLength() == 1) {
    return BigNum();  // mod 1
  }
  if (exp.IsZero()) {
    return Mod(BigNum(1), m);
  }
  // 4-bit fixed-window exponentiation: precompute b^0..b^15 once, then per
  // window do 4 squarings plus at most one table multiply. Versus
  // square-and-multiply this trades ~bits/2 multiplies for ~bits*15/64 (a
  // zero window skips its multiply) plus the 14-entry table fill — a clear
  // win from DSA-sized exponents (160+ bits) up.
  BigNum table[16];
  table[0] = BigNum(1);
  table[1] = Mod(base, m);
  for (size_t i = 2; i < 16; ++i) {
    table[i] = ModMul(table[i - 1], table[1], m);
  }
  size_t bits = exp.BitLength();
  size_t windows = (bits + 3) / 4;
  auto window_digit = [&exp](size_t w) {
    unsigned d = 0;
    for (size_t j = 4; j-- > 0;) {
      d = (d << 1) | (exp.Bit(w * 4 + j) ? 1u : 0u);
    }
    return d;
  };
  // The top window contains the exponent's most significant set bit, so its
  // digit is non-zero and seeds the accumulator without leading squarings.
  BigNum result = table[window_digit(windows - 1)];
  for (size_t w = windows - 1; w-- > 0;) {
    for (int s = 0; s < 4; ++s) {
      result = ModMul(result, result, m);
    }
    unsigned d = window_digit(w);
    if (d != 0) {
      result = ModMul(result, table[d], m);
    }
  }
  return result;
}

namespace {

using U128 = unsigned __int128;

// Inverse of odd x modulo 2^64 (Newton iteration: x is its own inverse
// mod 2^3 for odd x; each step doubles the bits of precision).
uint64_t InverseMod64(uint64_t x) {
  uint64_t inv = x;
  for (int i = 0; i < 5; ++i) {
    inv *= 2 - x * inv;
  }
  return inv;
}

unsigned Window4(const BigNum& exp, size_t w) {
  unsigned d = 0;
  for (size_t j = 4; j-- > 0;) {
    d = (d << 1) | (exp.Bit(w * 4 + j) ? 1u : 0u);
  }
  return d;
}

// Column k of a comb over `cols` columns: bit r is exp's bit r cols + k.
unsigned CombColumn(const BigNum& exp, size_t cols, size_t k) {
  unsigned idx = 0;
  for (size_t r = MontgomeryCtx::kCombRows; r-- > 0;) {
    idx = (idx << 1) | (exp.Bit(r * cols + k) ? 1u : 0u);
  }
  return idx;
}

}  // namespace

Result<MontgomeryCtx> MontgomeryCtx::Create(const BigNum& m) {
  if (!m.IsOdd() || m.BitLength() <= 1) {
    return InvalidArgumentError("Montgomery modulus must be odd and > 1");
  }
  return MontgomeryCtx(m);
}

MontgomeryCtx::MontgomeryCtx(BigNum m) : m_(std::move(m)) {
  n_ = (m_.limbs_.size() + 1) / 2;
  m_words_.resize(n_);
  m_.ToWords(m_words_.data(), n_);
  n0inv_ = 0 - InverseMod64(m_words_[0]);
  // R = 2^(64 n). The two divisions below are the only ones this context
  // ever performs.
  BigNum r2 = BigNum::Mod(BigNum::ShiftLeft(BigNum(1), 128 * n_), m_);
  BigNum r1 = BigNum::Mod(BigNum::ShiftLeft(BigNum(1), 64 * n_), m_);
  rr_.resize(n_);
  r2.ToWords(rr_.data(), n_);
  one_.resize(n_);
  r1.ToWords(one_.data(), n_);
}

void MontgomeryCtx::MulMont(const uint64_t* a, const uint64_t* b,
                            uint64_t* out) const {
  const size_t n = n_;
  const uint64_t* m = m_words_.data();
  // Only the first n + 2 words of the scratch are used, and zeroed here.
  uint64_t stack[kStackLimbs + 2];
  std::vector<uint64_t> heap;
  uint64_t* t = stack;
  if (n > kStackLimbs) {
    heap.resize(n + 2);
    t = heap.data();
  }
  std::fill(t, t + n + 2, 0);
  // CIOS (Koc et al.): interleave one word of the product with one REDC
  // step, shifting t down a word per iteration. t < 2m throughout, so one
  // conditional subtract at the end completes the reduction. Each 128-bit
  // sum below is at most (2^64 - 1)^2 + 2 (2^64 - 1) = 2^128 - 1.
  for (size_t i = 0; i < n; ++i) {
    const uint64_t bi = b[i];
    uint64_t carry = 0;
    for (size_t j = 0; j < n; ++j) {
      U128 cur = static_cast<U128>(a[j]) * bi + t[j] + carry;
      t[j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    U128 top = static_cast<U128>(t[n]) + carry;
    t[n] = static_cast<uint64_t>(top);
    t[n + 1] = static_cast<uint64_t>(top >> 64);

    const uint64_t mu = t[0] * n0inv_;
    carry = static_cast<uint64_t>(
        (static_cast<U128>(mu) * m[0] + t[0]) >> 64);
    for (size_t j = 1; j < n; ++j) {
      U128 cur = static_cast<U128>(mu) * m[j] + t[j] + carry;
      t[j - 1] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    top = static_cast<U128>(t[n]) + carry;
    t[n - 1] = static_cast<uint64_t>(top);
    t[n] = t[n + 1] + static_cast<uint64_t>(top >> 64);
  }

  bool ge = t[n] != 0;
  if (!ge) {
    ge = true;  // equality also subtracts (yields zero)
    for (size_t i = n; i-- > 0;) {
      if (t[i] != m[i]) {
        ge = t[i] > m[i];
        break;
      }
    }
  }
  // a and b are fully consumed, so out may alias either.
  if (ge) {
    uint64_t borrow = 0;
    for (size_t i = 0; i < n; ++i) {
      U128 d = static_cast<U128>(t[i]) - m[i] - borrow;
      out[i] = static_cast<uint64_t>(d);
      borrow = static_cast<uint64_t>(d >> 64) & 1;
    }
  } else {
    std::copy(t, t + n, out);
  }
}

MontgomeryCtx::Elem MontgomeryCtx::ToMont(const BigNum& a) const {
  Elem e(n_);
  BigNum::Mod(a, m_).ToWords(e.data(), n_);
  MulMont(e.data(), rr_.data(), e.data());
  return e;
}

BigNum MontgomeryCtx::FromMont(const uint64_t* a) const {
  Elem unit(n_, 0);
  unit[0] = 1;
  MulMont(a, unit.data(), unit.data());
  return BigNum::FromWords(unit.data(), n_);
}

BigNum MontgomeryCtx::ModExp(const BigNum& base, const BigNum& exp) const {
  if (exp.IsZero()) {
    return BigNum(1);  // m > 1
  }
  return ExpWindows(ToMont(base).data(), exp);
}

BigNum MontgomeryCtx::ExpWindows(const uint64_t* base,
                                 const BigNum& exp) const {
  const size_t n = n_;
  // table[d] = base^d, d = 0..15, one element after another.
  Elem table(16 * n);
  std::copy(one_.begin(), one_.end(), table.begin());
  std::copy(base, base + n, table.begin() + static_cast<ptrdiff_t>(n));
  for (size_t d = 2; d < 16; ++d) {
    MulMont(&table[(d - 1) * n], base, &table[d * n]);
  }
  const size_t windows = (exp.BitLength() + 3) / 4;
  // The top window holds the exponent's most significant set bit, so it
  // seeds the accumulator without leading squarings.
  const size_t top = Window4(exp, windows - 1);
  Elem acc(table.begin() + static_cast<ptrdiff_t>(top * n),
           table.begin() + static_cast<ptrdiff_t>((top + 1) * n));
  for (size_t w = windows - 1; w-- > 0;) {
    for (int s = 0; s < 4; ++s) {
      MulMont(acc.data(), acc.data(), acc.data());
    }
    unsigned d = Window4(exp, w);
    if (d != 0) {
      MulMont(acc.data(), &table[d * n], acc.data());
    }
  }
  return FromMont(acc.data());
}

MontgomeryCtx::Comb MontgomeryCtx::BuildComb(const BigNum& base,
                                             size_t exp_bits) const {
  const size_t n = n_;
  constexpr size_t kEntries = size_t{1} << kCombRows;
  Comb comb;
  comb.cols_ = std::max<size_t>(1, (exp_bits + kCombRows - 1) / kCombRows);
  comb.table_.resize(kEntries * n);
  uint64_t* t = comb.table_.data();
  std::copy(one_.begin(), one_.end(), t);
  // Row bases: entry 2^r = base^(2^(r cols)), by cols squarings each.
  Elem row = ToMont(base);
  for (size_t r = 0; r < kCombRows; ++r) {
    if (r > 0) {
      for (size_t s = 0; s < comb.cols_; ++s) {
        MulMont(row.data(), row.data(), row.data());
      }
    }
    std::copy(row.begin(), row.end(), t + (size_t{1} << r) * n);
  }
  // Every other entry: the entry without its top row times that row.
  for (size_t i = 3; i < kEntries; ++i) {
    size_t high = 1;
    while (high * 2 <= i) {
      high *= 2;
    }
    if (i != high) {
      MulMont(t + (i - high) * n, t + high * n, t + i * n);
    }
  }
  return comb;
}

BigNum MontgomeryCtx::ModExp(const Comb& base, const BigNum& exp) const {
  if (exp.IsZero()) {
    return BigNum(1);  // m > 1
  }
  if (exp.BitLength() > base.max_exp_bits()) {
    return ExpWindows(base.table_.data() + n_, exp);  // entry 1 is base
  }
  // One base is two with the second exponent zero, which never multiplies.
  return ModExpDouble(base, exp, base, BigNum());
}

BigNum MontgomeryCtx::ModExpDouble(const Comb& a, const BigNum& ea,
                                   const Comb& b, const BigNum& eb) const {
  const size_t n = n_;
  if (a.cols_ != b.cols_ || ea.BitLength() > a.max_exp_bits() ||
      eb.BitLength() > b.max_exp_bits()) {
    Elem pa = ToMont(ModExp(a, ea));
    Elem pb = ToMont(ModExp(b, eb));
    MulMont(pa.data(), pb.data(), pa.data());
    return FromMont(pa.data());
  }
  // Columns from the top; leading all-zero columns cost nothing.
  Elem acc(n);
  bool started = false;
  auto times = [&](const Comb& comb, const BigNum& exp, size_t k) {
    unsigned idx = CombColumn(exp, comb.cols_, k);
    if (idx == 0) {
      return;
    }
    const uint64_t* entry = comb.table_.data() + idx * n;
    if (started) {
      MulMont(acc.data(), entry, acc.data());
    } else {
      std::copy(entry, entry + n, acc.begin());
      started = true;
    }
  };
  for (size_t k = a.cols_; k-- > 0;) {
    if (started) {
      MulMont(acc.data(), acc.data(), acc.data());
    }
    times(a, ea, k);
    times(b, eb, k);
  }
  if (!started) {
    return BigNum(1);  // m > 1
  }
  return FromMont(acc.data());
}

Result<BigNum> BigNum::ModInverse(const BigNum& a, const BigNum& m) {
  // Extended Euclid, tracking only the coefficient of `a`, with an explicit
  // sign since our BigNum is unsigned.
  BigNum r0 = Mod(a, m);
  BigNum r1 = m;
  BigNum t0(1);
  bool t0_neg = false;
  BigNum t1;
  bool t1_neg = false;
  // Invariants: r0 = t0 * a (mod m), r1 = t1 * a (mod m).
  while (!r1.IsZero()) {
    auto [q, r2] = DivMod(r0, r1);
    // t2 = t0 - q * t1 (signed).
    BigNum qt = Mul(q, t1);
    BigNum t2;
    bool t2_neg;
    if (t0_neg == t1_neg) {
      // t0 and q*t1 have the same sign: result is t0 - qt in magnitude space.
      if (Compare(t0, qt) >= 0) {
        t2 = Sub(t0, qt);
        t2_neg = t0_neg;
      } else {
        t2 = Sub(qt, t0);
        t2_neg = !t0_neg;
      }
    } else {
      t2 = Add(t0, qt);
      t2_neg = t0_neg;
    }
    r0 = std::move(r1);
    r1 = std::move(r2);
    t0 = std::move(t1);
    t0_neg = t1_neg;
    t1 = std::move(t2);
    t1_neg = t2_neg;
  }
  if (Compare(r0, BigNum(1)) != 0) {
    return InvalidArgumentError("not invertible: gcd != 1");
  }
  BigNum inv = Mod(t0, m);
  if (t0_neg && !inv.IsZero()) {
    inv = Sub(m, inv);
  }
  return inv;
}

Result<BigNum> BigNum::ModInverseBinary(const BigNum& a, const BigNum& m) {
  constexpr size_t kMaxWords = 8;
  const size_t n = (m.limbs_.size() + 1) / 2;
  if (!m.IsOdd() || m.BitLength() <= 1 || n > kMaxWords) {
    return ModInverse(a, m);
  }
  // Invariants: x1 a = u and x2 a = v (mod m), 0 <= x1, x2 < m; gcd(u, v)
  // = gcd(a, m), which is odd, so halving an even u or v keeps it. When u
  // reaches 0, v is the gcd and x2 the inverse if that gcd is 1.
  uint64_t u[kMaxWords] = {}, v[kMaxWords] = {}, x1[kMaxWords] = {1},
           x2[kMaxWords] = {}, mw[kMaxWords] = {};
  m.ToWords(mw, n);
  Mod(a, m).ToWords(u, n);
  std::copy(mw, mw + n, v);
  auto is_zero = [n](const uint64_t* x) {
    for (size_t i = 0; i < n; ++i) {
      if (x[i] != 0) {
        return false;
      }
    }
    return true;
  };
  // x -= y over n words; returns the borrow.
  auto sub = [n](uint64_t* x, const uint64_t* y) {
    uint64_t borrow = 0;
    for (size_t i = 0; i < n; ++i) {
      U128 d = static_cast<U128>(x[i]) - y[i] - borrow;
      x[i] = static_cast<uint64_t>(d);
      borrow = static_cast<uint64_t>(d >> 64) & 1;
    }
    return borrow;
  };
  // x += y over n words; returns the carry.
  auto add = [n](uint64_t* x, const uint64_t* y) {
    uint64_t carry = 0;
    for (size_t i = 0; i < n; ++i) {
      U128 s = static_cast<U128>(x[i]) + y[i] + carry;
      x[i] = static_cast<uint64_t>(s);
      carry = static_cast<uint64_t>(s >> 64);
    }
    return carry;
  };
  // x >>= 1, shifting `top` in as the new high bit.
  auto halve = [n](uint64_t* x, uint64_t top) {
    for (size_t i = 0; i < n; ++i) {
      uint64_t next = i + 1 < n ? x[i + 1] : top;
      x[i] = (x[i] >> 1) | (next << 63);
    }
  };
  // (value, coefficient): halve value while even, keeping coefficient
  // times a congruent to it (an odd coefficient gets m added first).
  auto strip_twos = [&](uint64_t* value, uint64_t* coef) {
    while ((value[0] & 1) == 0) {
      halve(value, 0);
      uint64_t carry = (coef[0] & 1) ? add(coef, mw) : 0;
      halve(coef, carry);
    }
  };
  // coef = (coef - other) mod m.
  auto sub_mod = [&](uint64_t* coef, const uint64_t* other) {
    if (sub(coef, other)) {
      add(coef, mw);
    }
  };
  while (!is_zero(u)) {
    strip_twos(u, x1);
    strip_twos(v, x2);
    // u and v are both odd here; the larger loses the smaller.
    bool u_ge_v = true;
    for (size_t i = n; i-- > 0;) {
      if (u[i] != v[i]) {
        u_ge_v = u[i] > v[i];
        break;
      }
    }
    if (u_ge_v) {
      sub(u, v);
      sub_mod(x1, x2);
    } else {
      sub(v, u);
      sub_mod(x2, x1);
    }
  }
  if (v[0] != 1 || !std::all_of(v + 1, v + n, [](uint64_t w) {
        return w == 0;
      })) {
    return InvalidArgumentError("not invertible: gcd != 1");
  }
  return FromWords(x2, n);
}

BigNum BigNum::Gcd(const BigNum& a, const BigNum& b) {
  BigNum x = a;
  BigNum y = b;
  while (!y.IsZero()) {
    BigNum r = Mod(x, y);
    x = std::move(y);
    y = std::move(r);
  }
  return x;
}

bool BigNum::IsProbablePrime(
    const BigNum& n, int rounds,
    const std::function<BigNum(const BigNum& excl_hi)>& rand_below) {
  if (n.BitLength() <= 1) {
    return false;  // 0, 1
  }
  uint64_t small = n.ToUint64();
  if (n.BitLength() <= 10) {
    if (small == 2 || small == 3) {
      return true;
    }
  }
  if (!n.IsOdd()) {
    return false;
  }
  // Trial division by small primes to reject cheaply.
  static const uint32_t kSmallPrimes[] = {3,  5,  7,  11, 13, 17, 19, 23,
                                          29, 31, 37, 41, 43, 47, 53, 59,
                                          61, 67, 71, 73, 79, 83, 89, 97};
  for (uint32_t p : kSmallPrimes) {
    BigNum bp(p);
    if (Compare(n, bp) == 0) {
      return true;
    }
    if (Mod(n, bp).IsZero()) {
      return false;
    }
  }
  // n - 1 = d * 2^s with d odd.
  BigNum n_minus_1 = Sub(n, BigNum(1));
  BigNum d = n_minus_1;
  size_t s = 0;
  while (!d.IsOdd()) {
    d = ShiftRight(d, 1);
    ++s;
  }
  for (int round = 0; round < rounds; ++round) {
    BigNum a = rand_below(n_minus_1);  // in [2, n-2]
    BigNum x = ModExp(a, d, n);
    if (Compare(x, BigNum(1)) == 0 || Compare(x, n_minus_1) == 0) {
      continue;
    }
    bool witness = true;
    for (size_t i = 0; i + 1 < s; ++i) {
      x = ModMul(x, x, n);
      if (Compare(x, n_minus_1) == 0) {
        witness = false;
        break;
      }
    }
    if (witness) {
      return false;
    }
  }
  return true;
}

BigNum BigNum::RandomBelow(const BigNum& bound,
                           const std::function<Bytes(size_t)>& rand_bytes) {
  assert(!bound.IsZero());
  size_t bits = bound.BitLength();
  size_t nbytes = (bits + 7) / 8;
  // Rejection sampling: draw `bits` random bits until < bound.
  while (true) {
    Bytes raw = rand_bytes(nbytes);
    size_t excess = nbytes * 8 - bits;
    if (excess > 0) {
      raw[0] &= static_cast<uint8_t>(0xff >> excess);
    }
    BigNum candidate = FromBytes(raw);
    if (Compare(candidate, bound) < 0) {
      return candidate;
    }
  }
}

}  // namespace discfs
