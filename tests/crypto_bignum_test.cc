#include "src/crypto/bignum.h"

#include <gtest/gtest.h>

#include "src/util/prng.h"

namespace discfs {
namespace {

BigNum FromHexOrDie(std::string_view hex) {
  auto r = BigNum::FromHex(hex);
  EXPECT_TRUE(r.ok()) << r.status();
  return r.value();
}

TEST(BigNum, ZeroProperties) {
  BigNum zero;
  EXPECT_TRUE(zero.IsZero());
  EXPECT_EQ(zero.BitLength(), 0u);
  EXPECT_EQ(zero.ToHex(), "0");
  EXPECT_EQ(zero.ToDecimal(), "0");
  EXPECT_EQ(zero.ToUint64(), 0u);
  EXPECT_FALSE(zero.IsOdd());
}

TEST(BigNum, Uint64RoundTrip) {
  for (uint64_t v : {0ULL, 1ULL, 255ULL, 256ULL, 0xffffffffULL,
                     0x100000000ULL, 0xdeadbeefcafebabeULL}) {
    EXPECT_EQ(BigNum(v).ToUint64(), v);
  }
}

TEST(BigNum, HexRoundTrip) {
  for (const char* hex :
       {"1", "ff", "100", "deadbeef", "123456789abcdef0123456789abcdef"}) {
    EXPECT_EQ(FromHexOrDie(hex).ToHex(), hex);
  }
}

TEST(BigNum, HexOddLengthAccepted) {
  EXPECT_EQ(FromHexOrDie("abc").ToUint64(), 0xabcu);
}

TEST(BigNum, HexRejectsGarbage) {
  EXPECT_FALSE(BigNum::FromHex("xyz").ok());
}

TEST(BigNum, DecimalRoundTrip) {
  for (const char* dec :
       {"1", "10", "255", "1000000007", "123456789012345678901234567890"}) {
    auto n = BigNum::FromDecimal(dec);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(n->ToDecimal(), dec);
  }
}

TEST(BigNum, BytesRoundTripFixedWidth) {
  BigNum n(0x1234u);
  Bytes b = n.ToBytes(4);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b[0], 0u);
  EXPECT_EQ(b[1], 0u);
  EXPECT_EQ(b[2], 0x12u);
  EXPECT_EQ(b[3], 0x34u);
  EXPECT_EQ(BigNum::FromBytes(b).ToUint64(), 0x1234u);
}

TEST(BigNum, CompareOrdering) {
  BigNum a(5), b(7), c = FromHexOrDie("123456789abcdef01234");
  EXPECT_LT(BigNum::Compare(a, b), 0);
  EXPECT_GT(BigNum::Compare(b, a), 0);
  EXPECT_EQ(BigNum::Compare(a, a), 0);
  EXPECT_LT(BigNum::Compare(b, c), 0);
  EXPECT_TRUE(a < b);
  EXPECT_TRUE(b <= c);
  EXPECT_TRUE(c > a);
}

TEST(BigNum, AddCarriesAcrossLimbs) {
  BigNum a = FromHexOrDie("ffffffffffffffff");
  BigNum sum = a + BigNum(1);
  EXPECT_EQ(sum.ToHex(), "10000000000000000");
}

TEST(BigNum, SubBorrowsAcrossLimbs) {
  BigNum a = FromHexOrDie("10000000000000000");
  EXPECT_EQ((a - BigNum(1)).ToHex(), "ffffffffffffffff");
}

TEST(BigNum, MulSmall) {
  EXPECT_EQ((BigNum(12345) * BigNum(67890)).ToUint64(), 12345ull * 67890ull);
}

TEST(BigNum, MulByZero) {
  BigNum a = FromHexOrDie("deadbeefdeadbeefdeadbeef");
  EXPECT_TRUE((a * BigNum()).IsZero());
  EXPECT_TRUE((BigNum() * a).IsZero());
}

TEST(BigNum, ShiftLeftRightInverse) {
  BigNum a = FromHexOrDie("deadbeefcafebabe1234");
  for (size_t s : {1u, 7u, 31u, 32u, 33u, 64u, 100u}) {
    EXPECT_EQ(BigNum::ShiftRight(BigNum::ShiftLeft(a, s), s), a) << s;
  }
}

TEST(BigNum, ShiftRightToZero) {
  EXPECT_TRUE(BigNum::ShiftRight(BigNum(1), 1).IsZero());
  EXPECT_TRUE(BigNum::ShiftRight(FromHexOrDie("ff"), 8).IsZero());
}

TEST(BigNum, DivModBasic) {
  auto [q, r] = BigNum::DivMod(BigNum(100), BigNum(7));
  EXPECT_EQ(q.ToUint64(), 14u);
  EXPECT_EQ(r.ToUint64(), 2u);
}

TEST(BigNum, DivModDividendSmaller) {
  auto [q, r] = BigNum::DivMod(BigNum(3), BigNum(10));
  EXPECT_TRUE(q.IsZero());
  EXPECT_EQ(r.ToUint64(), 3u);
}

// Property: for random a, b: a == (a/b)*b + a%b and a%b < b.
TEST(BigNum, DivModPropertyRandom) {
  Prng prng(42);
  for (int iter = 0; iter < 300; ++iter) {
    size_t asize = 1 + prng.NextBelow(48);
    size_t bsize = 1 + prng.NextBelow(24);
    BigNum a = BigNum::FromBytes(prng.NextBytes(asize));
    BigNum b = BigNum::FromBytes(prng.NextBytes(bsize));
    if (b.IsZero()) {
      continue;
    }
    auto [q, r] = BigNum::DivMod(a, b);
    EXPECT_LT(BigNum::Compare(r, b), 0);
    EXPECT_EQ(BigNum::Add(BigNum::Mul(q, b), r), a);
  }
}

// Property: ring laws on random values.
TEST(BigNum, RingLawsRandom) {
  Prng prng(7);
  for (int iter = 0; iter < 100; ++iter) {
    BigNum a = BigNum::FromBytes(prng.NextBytes(1 + prng.NextBelow(20)));
    BigNum b = BigNum::FromBytes(prng.NextBytes(1 + prng.NextBelow(20)));
    BigNum c = BigNum::FromBytes(prng.NextBytes(1 + prng.NextBelow(20)));
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ((a + b) - b, a);
  }
}

TEST(BigNum, ModExpSmallCases) {
  // 3^4 mod 5 = 81 mod 5 = 1
  EXPECT_EQ(BigNum::ModExp(BigNum(3), BigNum(4), BigNum(5)).ToUint64(), 1u);
  // x^0 = 1
  EXPECT_EQ(BigNum::ModExp(BigNum(9), BigNum(0), BigNum(7)).ToUint64(), 1u);
  // 2^10 mod 1000 = 24
  EXPECT_EQ(BigNum::ModExp(BigNum(2), BigNum(10), BigNum(1000)).ToUint64(),
            24u);
}

TEST(BigNum, ModExpFermatLittleTheorem) {
  // p = 1000000007 (prime): a^(p-1) == 1 mod p.
  BigNum p(1000000007);
  BigNum p_minus_1(1000000006);
  Prng prng(3);
  for (int i = 0; i < 20; ++i) {
    BigNum a(2 + prng.NextBelow(1000000000));
    EXPECT_EQ(BigNum::ModExp(a, p_minus_1, p).ToUint64(), 1u);
  }
}

TEST(BigNum, ModInverseSmall) {
  // 3 * 4 = 12 == 1 mod 11.
  auto inv = BigNum::ModInverse(BigNum(3), BigNum(11));
  ASSERT_TRUE(inv.ok());
  EXPECT_EQ(inv->ToUint64(), 4u);
}

TEST(BigNum, ModInverseNotInvertible) {
  EXPECT_FALSE(BigNum::ModInverse(BigNum(6), BigNum(9)).ok());
}

TEST(BigNum, ModInversePropertyRandom) {
  Prng prng(11);
  BigNum m = FromHexOrDie("fffffffb");  // prime 2^32-5
  for (int i = 0; i < 100; ++i) {
    BigNum a(1 + prng.NextBelow(0xfffffffaULL));
    auto inv = BigNum::ModInverse(a, m);
    ASSERT_TRUE(inv.ok());
    EXPECT_EQ(BigNum::ModMul(a, inv.value(), m).ToUint64(), 1u);
  }
}

TEST(BigNum, GcdBasics) {
  EXPECT_EQ(BigNum::Gcd(BigNum(12), BigNum(18)).ToUint64(), 6u);
  EXPECT_EQ(BigNum::Gcd(BigNum(17), BigNum(5)).ToUint64(), 1u);
  EXPECT_EQ(BigNum::Gcd(BigNum(0), BigNum(5)).ToUint64(), 5u);
}

TEST(BigNum, IsProbablePrimeKnownValues) {
  Prng prng(5);
  auto rand_below = [&prng](const BigNum& hi) {
    uint64_t h = hi.ToUint64();
    return BigNum(2 + prng.NextBelow(h > 4 ? h - 4 : 1));
  };
  for (uint64_t p : {2ULL, 3ULL, 5ULL, 7ULL, 101ULL, 65537ULL, 1000000007ULL}) {
    EXPECT_TRUE(BigNum::IsProbablePrime(BigNum(p), 20, rand_below)) << p;
  }
  for (uint64_t c : {0ULL, 1ULL, 4ULL, 100ULL, 65535ULL, 1000000008ULL,
                     561ULL /* Carmichael */, 41041ULL /* Carmichael */}) {
    EXPECT_FALSE(BigNum::IsProbablePrime(BigNum(c), 20, rand_below)) << c;
  }
}

TEST(BigNum, RandomBelowInRange) {
  Prng prng(9);
  auto rand_bytes = [&prng](size_t n) { return prng.NextBytes(n); };
  BigNum bound = FromHexOrDie("10000");
  for (int i = 0; i < 200; ++i) {
    BigNum r = BigNum::RandomBelow(bound, rand_bytes);
    EXPECT_LT(BigNum::Compare(r, bound), 0);
  }
}

TEST(BigNum, BitAccess) {
  BigNum n = FromHexOrDie("5");  // 0b101
  EXPECT_TRUE(n.Bit(0));
  EXPECT_FALSE(n.Bit(1));
  EXPECT_TRUE(n.Bit(2));
  EXPECT_FALSE(n.Bit(3));
  EXPECT_FALSE(n.Bit(1000));
}

TEST(BigNum, BitLength) {
  EXPECT_EQ(BigNum(1).BitLength(), 1u);
  EXPECT_EQ(BigNum(2).BitLength(), 2u);
  EXPECT_EQ(BigNum(255).BitLength(), 8u);
  EXPECT_EQ(BigNum(256).BitLength(), 9u);
  EXPECT_EQ(FromHexOrDie("80000000000000000").BitLength(), 68u);
}

// Knuth algorithm D edge: the "add back" step (D6) triggers rarely; this
// divisor/dividend pair exercises multi-limb division heavily.
TEST(BigNum, DivModStress64BitBoundaries) {
  BigNum a = FromHexOrDie("ffffffffffffffffffffffffffffffff");
  BigNum b = FromHexOrDie("ffffffff00000001");
  auto [q, r] = BigNum::DivMod(a, b);
  EXPECT_EQ(BigNum::Add(BigNum::Mul(q, b), r), a);
  EXPECT_LT(BigNum::Compare(r, b), 0);
}

// The remainder-only reduction must agree with DivMod everywhere,
// including the single-limb fast path and the D6 add-back divisor above.
TEST(BigNum, ModMatchesDivModRandom) {
  Prng prng(21);
  for (int iter = 0; iter < 400; ++iter) {
    BigNum a = BigNum::FromBytes(prng.NextBytes(1 + prng.NextBelow(48)));
    BigNum m = BigNum::FromBytes(prng.NextBytes(1 + prng.NextBelow(24)));
    if (m.IsZero()) {
      continue;
    }
    EXPECT_EQ(BigNum::Mod(a, m), BigNum::DivMod(a, m).second);
  }
  BigNum a = FromHexOrDie("ffffffffffffffffffffffffffffffff");
  BigNum b = FromHexOrDie("ffffffff00000001");
  EXPECT_EQ(BigNum::Mod(a, b), BigNum::DivMod(a, b).second);
}

// ----- Montgomery exponentiation -----

// Montgomery ModExp must agree with the pre-existing reference
// implementation across operand widths (1 limb up to beyond DSA sizes),
// including bases >= m and even moduli (which take the fallback path).
TEST(BigNum, MontgomeryModExpMatchesReferenceRandom) {
  Prng prng(31);
  for (int iter = 0; iter < 150; ++iter) {
    BigNum m = BigNum::FromBytes(prng.NextBytes(1 + prng.NextBelow(40)));
    if (m.BitLength() <= 1) {
      continue;
    }
    BigNum base = BigNum::FromBytes(prng.NextBytes(1 + prng.NextBelow(48)));
    BigNum exp = BigNum::FromBytes(prng.NextBytes(1 + prng.NextBelow(24)));
    EXPECT_EQ(BigNum::ModExp(base, exp, m),
              BigNum::ModExpReference(base, exp, m))
        << "m=" << m.ToHex() << " base=" << base.ToHex()
        << " exp=" << exp.ToHex();
  }
}

TEST(BigNum, ModExpEdgeCases) {
  BigNum odd = FromHexOrDie("10000000000000000000000001");  // odd, multi-limb
  // Exponent zero -> 1 mod m, on both paths.
  EXPECT_EQ(BigNum::ModExp(BigNum(5), BigNum(0), odd), BigNum(1));
  EXPECT_EQ(BigNum::ModExp(BigNum(5), BigNum(0), BigNum(2)), BigNum(1));
  // Base >= m reduces first.
  BigNum big_base = FromHexOrDie("ffffffffffffffffffffffffffffffff");
  EXPECT_EQ(BigNum::ModExp(big_base, BigNum(3), odd),
            BigNum::ModExpReference(big_base, BigNum(3), odd));
  // Zero base with non-zero exponent.
  EXPECT_TRUE(BigNum::ModExp(BigNum(0), BigNum(9), odd).IsZero());
  // Modulus one: everything collapses to zero.
  EXPECT_TRUE(BigNum::ModExp(BigNum(5), BigNum(3), BigNum(1)).IsZero());
}

TEST(MontgomeryCtxTest, RejectsEvenOrTrivialModulus) {
  EXPECT_FALSE(MontgomeryCtx::Create(BigNum(10)).ok());
  EXPECT_FALSE(MontgomeryCtx::Create(BigNum(0)).ok());
  EXPECT_FALSE(MontgomeryCtx::Create(BigNum(1)).ok());
  EXPECT_TRUE(MontgomeryCtx::Create(BigNum(3)).ok());
}

// An odd modulus of exactly `limbs` 32-bit limbs; with `top_ones` its top
// limb is all ones.
BigNum RandomOddModulus(Prng& prng, size_t limbs, bool top_ones) {
  Bytes raw = prng.NextBytes(4 * limbs);
  raw[0] |= 0x80;
  if (top_ones) {
    for (size_t i = 0; i < 4; ++i) {
      raw[i] = 0xff;
    }
  }
  raw.back() |= 1;
  return BigNum::FromBytes(raw);
}

BigNum AllOnes(size_t bits) {
  return BigNum::Sub(BigNum::ShiftLeft(BigNum(1), bits), BigNum(1));
}

BigNum RandomBits(Prng& prng, size_t bits) {
  return BigNum::ShiftRight(BigNum::FromBytes(prng.NextBytes((bits + 7) / 8)),
                            (8 - bits % 8) % 8);
}

// The moduli every kernel test runs over: 1 to 70 32-bit limbs (both
// parities of the limb count, so 64-bit words are full or half full), a
// random and an all-ones top limb for each, and one 8,192-bit modulus,
// which is wider than MulMont's stack scratch.
std::vector<BigNum> KernelModuli(Prng& prng) {
  std::vector<BigNum> moduli;
  for (size_t limbs = 1; limbs <= 70; ++limbs) {
    moduli.push_back(RandomOddModulus(prng, limbs, false));
    moduli.push_back(RandomOddModulus(prng, limbs, true));
  }
  moduli.push_back(RandomOddModulus(prng, 256, false));
  EXPECT_GT(moduli.back().BitLength(), 64 * MontgomeryCtx::kStackLimbs);
  return moduli;
}

// The 64-bit multiply against ModMul's schoolbook multiply and Knuth
// reduction, through the domain conversions.
TEST(MontgomeryCtxTest, MulMontMatchesModMulRandom) {
  Prng prng(43);
  for (const BigNum& m : KernelModuli(prng)) {
    auto ctx = MontgomeryCtx::Create(m);
    ASSERT_TRUE(ctx.ok());
    const size_t bits = m.BitLength();
    for (const BigNum& a :
         {RandomBits(prng, bits + 8), BigNum::Sub(m, BigNum(1)), BigNum(1),
          BigNum()}) {
      BigNum b = RandomBits(prng, bits);
      MontgomeryCtx::Elem ma = ctx->ToMont(a);
      MontgomeryCtx::Elem mb = ctx->ToMont(b);
      EXPECT_EQ(ctx->FromMont(ma.data()), BigNum::Mod(a, m));
      ctx->MulMont(ma.data(), mb.data(), ma.data());  // out aliases a
      EXPECT_EQ(ctx->FromMont(ma.data()), BigNum::ModMul(a, b, m))
          << "m=" << m.ToHex();
      ctx->MulMont(mb.data(), mb.data(), mb.data());
      EXPECT_EQ(ctx->FromMont(mb.data()), BigNum::ModMul(b, b, m))
          << "m=" << m.ToHex();
    }
  }
}

// The windowed exponentiation, one comb and two combs over one squaring
// chain, each against ModExpReference. Exponents: 0, 1, q - 1 for a
// |q|-bit q, m - 1 where m is no wider than q, the comb's all-ones
// maximum, one bit past the comb (which takes windows) and random. For
// two bases, a zero exponent drops its base, and combs of different
// shapes fall back to two comb powers. One set of reference powers
// serves all three, so the reference runs once per modulus and exponent.
TEST(MontgomeryCtxTest, ExponentiationsMatchReference) {
  Prng prng(53);
  for (const BigNum& m : KernelModuli(prng)) {
    auto ctx = MontgomeryCtx::Create(m);
    ASSERT_TRUE(ctx.ok());
    const size_t qbits = m.BitLength() > 4096 ? 40 : 160;
    BigNum a = RandomBits(prng, m.BitLength() + 8);  // a >= m reduces first
    BigNum b = RandomBits(prng, m.BitLength());
    MontgomeryCtx::Comb ca = ctx->BuildComb(a, qbits);
    MontgomeryCtx::Comb cb = ctx->BuildComb(b, qbits);
    MontgomeryCtx::Comb narrow = ctx->BuildComb(b, qbits / 2);
    ASSERT_GE(ca.max_exp_bits(), qbits);
    BigNum q = BigNum::Add(AllOnes(qbits - 1), BigNum(2));  // |q| bits
    std::vector<BigNum> exps = {BigNum(), BigNum(1), BigNum::Sub(q, BigNum(1)),
                                AllOnes(ca.max_exp_bits()),
                                BigNum::ShiftLeft(BigNum(1), ca.max_exp_bits()),
                                RandomBits(prng, qbits)};
    if (m.BitLength() <= qbits) {
      exps.push_back(BigNum::Sub(m, BigNum(1)));
    }
    const BigNum eb = RandomBits(prng, qbits);
    const BigNum rb = BigNum::ModExpReference(b, eb, m);
    const BigNum zero;
    const BigNum one_mod_m = BigNum::Mod(BigNum(1), m);
    for (const BigNum& ea : exps) {
      const BigNum ra = BigNum::ModExpReference(a, ea, m);
      EXPECT_EQ(ctx->ModExp(a, ea), ra)
          << "windows m=" << m.ToHex() << " e=" << ea.ToHex();
      EXPECT_EQ(ctx->ModExp(ca, ea), ra)
          << "comb m=" << m.ToHex() << " e=" << ea.ToHex();
      for (const auto& [e2, r2] : {std::pair<const BigNum*, const BigNum*>{
                                       &eb, &rb},
                                   {&zero, &one_mod_m}}) {
        BigNum expected = BigNum::ModMul(ra, *r2, m);
        EXPECT_EQ(ctx->ModExpDouble(ca, ea, cb, *e2), expected)
            << "two combs m=" << m.ToHex() << " e=" << ea.ToHex();
        EXPECT_EQ(ctx->ModExpDouble(cb, *e2, ca, ea), expected);
        EXPECT_EQ(ctx->ModExpDouble(ca, ea, narrow, *e2), expected);
      }
    }
  }
}

TEST(MontgomeryCtxTest, DomainRoundTripAndComb) {
  BigNum m = FromHexOrDie("f123456789abcdef123456789abcdef1");
  auto ctx = MontgomeryCtx::Create(m);
  ASSERT_TRUE(ctx.ok());
  Prng prng(41);
  for (int i = 0; i < 50; ++i) {
    BigNum a = BigNum::FromBytes(prng.NextBytes(1 + prng.NextBelow(20)));
    EXPECT_EQ(ctx->FromMont(ctx->ToMont(a).data()), BigNum::Mod(a, m));
  }
  // A comb gives the same answers as the one-shot windowed form.
  BigNum base = FromHexOrDie("deadbeefcafebabe");
  MontgomeryCtx::Comb comb = ctx->BuildComb(base, 160);
  for (int i = 0; i < 20; ++i) {
    BigNum exp = BigNum::FromBytes(prng.NextBytes(1 + prng.NextBelow(20)));
    EXPECT_EQ(ctx->ModExp(comb, exp), ctx->ModExp(base, exp));
    EXPECT_EQ(ctx->ModExp(comb, exp), BigNum::ModExpReference(base, exp, m));
  }
}

// The binary inverse returns exactly what the reference returns, the
// error when gcd != 1 included, for odd and even moduli of every width
// up to past its 512-bit word path.
TEST(BigNum, ModInverseBinaryMatchesModInverse) {
  Prng prng(61);
  size_t errors = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    BigNum m = BigNum::FromBytes(prng.NextBytes(1 + prng.NextBelow(72)));
    if (m.IsZero()) {
      continue;
    }
    BigNum a = BigNum::FromBytes(prng.NextBytes(1 + prng.NextBelow(80)));
    if (iter % 5 == 0) {
      a = BigNum::Mul(a, BigNum(3 + 2 * prng.NextBelow(4)));  // shared factors
    }
    Result<BigNum> want = BigNum::ModInverse(a, m);
    Result<BigNum> got = BigNum::ModInverseBinary(a, m);
    ASSERT_EQ(got.ok(), want.ok()) << "a=" << a.ToHex() << " m=" << m.ToHex();
    if (want.ok()) {
      EXPECT_EQ(*got, *want) << "a=" << a.ToHex() << " m=" << m.ToHex();
    } else {
      EXPECT_EQ(got.status().code(), want.status().code());
      ++errors;
    }
  }
  EXPECT_GT(errors, 100u);
  // Edges: zero, one, m - 1, a multiple of m, and the DSA q's extremes.
  BigNum q = FromHexOrDie("f7ca0ba2e6a1d204f4791067630c6cc86edb2055");
  for (const BigNum& a : {BigNum(), BigNum(1), BigNum::Sub(q, BigNum(1)),
                          BigNum::Mul(q, BigNum(7)), BigNum(2)}) {
    Result<BigNum> want = BigNum::ModInverse(a, q);
    Result<BigNum> got = BigNum::ModInverseBinary(a, q);
    ASSERT_EQ(got.ok(), want.ok()) << a.ToHex();
    if (want.ok()) {
      EXPECT_EQ(*got, *want);
    }
  }
}

}  // namespace
}  // namespace discfs
