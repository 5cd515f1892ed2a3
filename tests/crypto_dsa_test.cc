#include "src/crypto/dsa.h"

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <thread>
#include <vector>

#include "src/crypto/dh.h"
#include "src/crypto/groups.h"
#include "src/crypto/sha.h"
#include "src/util/hex.h"
#include "src/util/prng.h"

namespace discfs {
namespace {

// Deterministic randomness for reproducible tests.
std::function<Bytes(size_t)> TestRand(uint64_t seed) {
  auto prng = std::make_shared<Prng>(seed);
  return [prng](size_t n) { return prng->NextBytes(n); };
}

class DsaTest : public ::testing::Test {
 protected:
  DsaTest() : key_(DsaPrivateKey::Generate(Dsa512(), TestRand(1))) {}
  DsaPrivateKey key_;
};

TEST_F(DsaTest, SignVerifyRoundTrip) {
  Bytes digest = Sha1::Hash("credential body");
  DsaSignature sig = key_.Sign(digest);
  EXPECT_TRUE(key_.public_key().Verify(digest, sig));
}

TEST_F(DsaTest, VerifyRejectsWrongMessage) {
  DsaSignature sig = key_.Sign(Sha1::Hash("message A"));
  EXPECT_FALSE(key_.public_key().Verify(Sha1::Hash("message B"), sig));
}

TEST_F(DsaTest, VerifyRejectsWrongKey) {
  Bytes digest = Sha1::Hash("message");
  DsaSignature sig = key_.Sign(digest);
  DsaPrivateKey other = DsaPrivateKey::Generate(Dsa512(), TestRand(2));
  EXPECT_FALSE(other.public_key().Verify(digest, sig));
}

TEST_F(DsaTest, VerifyRejectsTamperedSignature) {
  Bytes digest = Sha1::Hash("message");
  DsaSignature sig = key_.Sign(digest);
  DsaSignature bad = sig;
  bad.r = BigNum::Add(bad.r, BigNum(1));
  EXPECT_FALSE(key_.public_key().Verify(digest, bad));
  bad = sig;
  bad.s = BigNum::Add(bad.s, BigNum(1));
  EXPECT_FALSE(key_.public_key().Verify(digest, bad));
}

TEST_F(DsaTest, VerifyRejectsZeroAndOutOfRangeComponents) {
  Bytes digest = Sha1::Hash("message");
  DsaSignature sig = key_.Sign(digest);
  DsaSignature bad = sig;
  bad.r = BigNum();
  EXPECT_FALSE(key_.public_key().Verify(digest, bad));
  bad = sig;
  bad.s = BigNum();
  EXPECT_FALSE(key_.public_key().Verify(digest, bad));
  bad = sig;
  bad.r = Dsa512().q;  // r must be < q
  EXPECT_FALSE(key_.public_key().Verify(digest, bad));
}

TEST_F(DsaTest, DeterministicSignatures) {
  Bytes digest = Sha1::Hash("same message");
  DsaSignature s1 = key_.Sign(digest);
  DsaSignature s2 = key_.Sign(digest);
  EXPECT_EQ(s1.r, s2.r);
  EXPECT_EQ(s1.s, s2.s);
}

TEST_F(DsaTest, DifferentMessagesDifferentNonces) {
  DsaSignature s1 = key_.Sign(Sha1::Hash("m1"));
  DsaSignature s2 = key_.Sign(Sha1::Hash("m2"));
  // Identical r would mean nonce reuse (key-recovery hazard).
  EXPECT_NE(s1.r, s2.r);
}

TEST_F(DsaTest, SerializeDeserializePublicKey) {
  Bytes ser = key_.public_key().Serialize();
  auto back = DsaPublicKey::Deserialize(ser);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back.value(), key_.public_key());
}

TEST_F(DsaTest, DeserializeRejectsTruncation) {
  Bytes ser = key_.public_key().Serialize();
  for (size_t cut : {size_t{0}, size_t{1}, size_t{3}, ser.size() / 2,
                     ser.size() - 1}) {
    Bytes prefix(ser.begin(), ser.begin() + static_cast<ptrdiff_t>(cut));
    EXPECT_FALSE(DsaPublicKey::Deserialize(prefix).ok()) << cut;
  }
}

TEST_F(DsaTest, DeserializeRejectsTrailingBytes) {
  Bytes ser = key_.public_key().Serialize();
  ser.push_back(0);
  EXPECT_FALSE(DsaPublicKey::Deserialize(ser).ok());
}

TEST_F(DsaTest, KeyNoteStringRoundTrip) {
  std::string s = key_.public_key().ToKeyNoteString();
  EXPECT_EQ(s.rfind("dsa-hex:", 0), 0u);
  auto back = DsaPublicKey::FromKeyNoteString(s);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back.value(), key_.public_key());
}

TEST_F(DsaTest, KeyNoteStringRejectsBadPrefix) {
  EXPECT_FALSE(DsaPublicKey::FromKeyNoteString("rsa-hex:0011").ok());
}

TEST_F(DsaTest, KeyIdStableAndShort) {
  std::string id1 = key_.public_key().KeyId();
  std::string id2 = key_.public_key().KeyId();
  EXPECT_EQ(id1, id2);
  EXPECT_EQ(id1.size(), 16u);
  DsaPrivateKey other = DsaPrivateKey::Generate(Dsa512(), TestRand(3));
  EXPECT_NE(other.public_key().KeyId(), id1);
}

TEST_F(DsaTest, SignatureWireRoundTrip) {
  Bytes digest = Sha1::Hash("message");
  DsaSignature sig = key_.Sign(digest);
  Bytes wire = SerializeDsaSignature(sig, Dsa512());
  EXPECT_EQ(wire.size(), 40u);  // 2 * 20-byte q width
  auto back = DeserializeDsaSignature(wire, Dsa512());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->r, sig.r);
  EXPECT_EQ(back->s, sig.s);
}

TEST_F(DsaTest, SignatureWireRejectsBadLength) {
  EXPECT_FALSE(DeserializeDsaSignature(Bytes(39, 0), Dsa512()).ok());
  EXPECT_FALSE(DeserializeDsaSignature(Bytes(41, 0), Dsa512()).ok());
}

TEST(DsaSha256Digests, SignVerifyWithSha256Truncation) {
  // Digests longer than q must be truncated to the leftmost bits; verify a
  // 256-bit digest works against the 160-bit q.
  DsaPrivateKey key = DsaPrivateKey::Generate(Dsa512(), TestRand(4));
  Bytes digest = Sha256::Hash("long digest input");
  DsaSignature sig = key.Sign(digest);
  EXPECT_TRUE(key.public_key().Verify(digest, sig));
}

TEST(Groups, EmbeddedGroupsValidate) {
  auto rand = TestRand(5);
  EXPECT_TRUE(ValidateDsaParams(Dsa512(), rand).ok());
  EXPECT_TRUE(ValidateDsaParams(Dsa1024(), rand).ok());
  EXPECT_EQ(Dsa1024().p.BitLength(), 1024u);
  EXPECT_EQ(Dsa1024().q.BitLength(), 160u);
  EXPECT_EQ(Dsa512().p.BitLength(), 512u);
  EXPECT_EQ(Dsa512().q.BitLength(), 160u);
}

TEST(Groups, GenerateSmallGroup) {
  auto rand = TestRand(6);
  DsaParams params = GenerateDsaParams(256, 160, rand);
  EXPECT_TRUE(ValidateDsaParams(params, rand).ok());
  EXPECT_EQ(params.p.BitLength(), 256u);
}

TEST(Groups, ValidateRejectsCorruptedParams) {
  auto rand = TestRand(7);
  DsaParams bad = Dsa512();
  bad.p = BigNum::Add(bad.p, BigNum(2));  // p+2: almost surely composite, and
                                          // q no longer divides p-1
  EXPECT_FALSE(ValidateDsaParams(bad, rand).ok());

  bad = Dsa512();
  bad.g = BigNum(1);
  EXPECT_FALSE(ValidateDsaParams(bad, rand).ok());
}

// ----- DH -----

TEST(Dh, SharedSecretAgreement) {
  auto rand_a = TestRand(10);
  auto rand_b = TestRand(11);
  DhKeyPair alice = DhKeyPair::Generate(Dsa512(), rand_a);
  DhKeyPair bob = DhKeyPair::Generate(Dsa512(), rand_b);
  auto s1 = alice.SharedSecret(bob.PublicValue());
  auto s2 = bob.SharedSecret(alice.PublicValue());
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(s1.value(), s2.value());
  EXPECT_EQ(s1->size(), Dsa512().p.ToBytes().size());
}

TEST(Dh, DistinctPairsDistinctSecrets) {
  auto rand = TestRand(12);
  DhKeyPair a = DhKeyPair::Generate(Dsa512(), rand);
  DhKeyPair b = DhKeyPair::Generate(Dsa512(), rand);
  DhKeyPair c = DhKeyPair::Generate(Dsa512(), rand);
  auto ab = a.SharedSecret(b.PublicValue());
  auto ac = a.SharedSecret(c.PublicValue());
  ASSERT_TRUE(ab.ok());
  ASSERT_TRUE(ac.ok());
  EXPECT_NE(ab.value(), ac.value());
}

TEST(Dh, RejectsOutOfRangePeerValues) {
  auto rand = TestRand(13);
  DhKeyPair a = DhKeyPair::Generate(Dsa512(), rand);
  // y = 0, y = 1, y = p-1, y = p are all invalid.
  size_t width = Dsa512().p.ToBytes().size();
  EXPECT_FALSE(a.SharedSecret(BigNum(0).ToBytes(width)).ok());
  EXPECT_FALSE(a.SharedSecret(BigNum(1).ToBytes(width)).ok());
  BigNum p_minus_1 = BigNum::Sub(Dsa512().p, BigNum(1));
  EXPECT_FALSE(a.SharedSecret(p_minus_1.ToBytes(width)).ok());
  EXPECT_FALSE(a.SharedSecret(Dsa512().p.ToBytes(width)).ok());
}

TEST(Dh, RejectsValueOutsideSubgroup) {
  auto rand = TestRand(14);
  DhKeyPair a = DhKeyPair::Generate(Dsa512(), rand);
  // 2 is (with overwhelming probability) not in the order-q subgroup for our
  // groups; a small-subgroup/confinement attack would send such values.
  size_t width = Dsa512().p.ToBytes().size();
  BigNum two(2);
  if (BigNum::Compare(BigNum::ModExp(two, Dsa512().q, Dsa512().p),
                      BigNum(1)) != 0) {
    EXPECT_FALSE(a.SharedSecret(two.ToBytes(width)).ok());
  }
}

// ----- group and verify contexts -----

// Flips bit `bit` of n.
BigNum FlipBit(const BigNum& n, size_t bit) {
  BigNum mask = BigNum::ShiftLeft(BigNum(1), bit);
  return n.Bit(bit) ? BigNum::Sub(n, mask) : BigNum::Add(n, mask);
}

// A key in a group nobody has used yet gets that group's context on first
// use; it signs and verifies, and each one-bit flip of r, s or the digest
// is rejected.
TEST(GroupContexts, FreshGroupSignsVerifiesAndRejectsBitFlips) {
  DsaParams group = GenerateDsaParams(512, 160, TestRand(301));
  ASSERT_TRUE(ValidateDsaParams(group, TestRand(302)).ok());
  DsaPrivateKey key = DsaPrivateKey::Generate(group, TestRand(303));
  EXPECT_EQ(key.public_key().y(),
            BigNum::ModExpReference(group.g, key.x(), group.p));
  Bytes digest = Sha1::Hash("fresh group");
  DsaSignature sig = key.Sign(digest);
  ASSERT_TRUE(key.public_key().Verify(digest, sig));
  for (size_t bit = 0; bit < 160; bit += 7) {
    DsaSignature bad = sig;
    bad.r = FlipBit(sig.r, bit);
    EXPECT_FALSE(key.public_key().Verify(digest, bad)) << "r bit " << bit;
    bad = sig;
    bad.s = FlipBit(sig.s, bit);
    EXPECT_FALSE(key.public_key().Verify(digest, bad)) << "s bit " << bit;
    Bytes flipped = digest;
    flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(key.public_key().Verify(flipped, sig)) << "digest bit " << bit;
  }
  // DH in the fresh group agrees and matches the reference.
  DhKeyPair a = DhKeyPair::Generate(group, TestRand(304));
  DhKeyPair b = DhKeyPair::Generate(group, TestRand(305));
  auto ab = a.SharedSecret(b.PublicValue());
  auto ba = b.SharedSecret(a.PublicValue());
  ASSERT_TRUE(ab.ok() && ba.ok());
  EXPECT_EQ(*ab, *ba);
}

// Verifies under more distinct keys than the verify-context cache holds,
// and in more distinct groups than the group cache holds: neither cache
// grows past its bound, and every verify still answers correctly.
TEST(GroupContexts, FloodOfKeysAndGroupsStaysBounded) {
  Bytes digest = Sha1::Hash("flood");
  auto rand = TestRand(311);
  for (size_t i = 0; i < kVerifyContextCacheSize + 40; ++i) {
    DsaPrivateKey key = DsaPrivateKey::Generate(Dsa512(), rand);
    EXPECT_TRUE(key.public_key().Verify(digest, key.Sign(digest)));
    ASSERT_LE(CachedVerifyContexts(), kVerifyContextCacheSize);
  }
  EXPECT_GT(CachedVerifyContexts(), kVerifyContextCacheSize / 2);
  // Distinct odd p around the test group's: real contexts, fake groups.
  for (uint64_t i = 1; i <= 2 * kGroupContextCacheSize; ++i) {
    DsaParams fake = Dsa512();
    fake.p = BigNum::Add(fake.p, BigNum(2 * i));
    DsaPublicKey key(fake, BigNum(4));
    DsaSignature sig{BigNum(5), BigNum(7)};
    EXPECT_FALSE(key.Verify(digest, sig));
    ASSERT_LE(CachedGroupContexts(), kGroupContextCacheSize);
  }
  EXPECT_EQ(CachedGroupContexts(), kGroupContextCacheSize);
  // Groups a context is never built for take the generic path.
  DsaParams wide = Dsa512();
  wide.p = BigNum::Add(BigNum::ShiftLeft(BigNum(1), GroupContext::kMaxPBits),
                       BigNum(1));
  EXPECT_EQ(GetGroupContext(wide), nullptr);
  DsaParams even = Dsa512();
  even.p = BigNum::Add(even.p, BigNum(1));
  EXPECT_EQ(GetGroupContext(even), nullptr);
  EXPECT_FALSE(DsaVerifyContext::Create(DsaPublicKey(even, BigNum(4))).ok());
}

// Eight threads make first use of one fresh group's context and of eight
// keys' verify contexts at once: each makes a key and a DH pair in the
// group, signs, then verifies every thread's signature and computes a DH
// secret with every thread. Run under TSAN by tools/run_tsan.sh.
TEST(GroupContexts, ConcurrentFirstUseOfTheCaches) {
  constexpr size_t kThreads = 8;
  // No other test uses this group, so the threads below are its first use.
  const DsaParams group = GenerateDsaParams(512, 160, TestRand(321));
  const Bytes digest = Sha256::Hash("concurrent first use");
  std::vector<std::optional<DsaPublicKey>> publics(kThreads);
  std::vector<DsaSignature> sigs(kThreads);
  std::vector<Bytes> dh_publics(kThreads);
  std::vector<std::vector<Bytes>> secrets(kThreads,
                                          std::vector<Bytes>(kThreads));
  std::atomic<size_t> ready{0};
  std::atomic<size_t> published{0};
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      DsaPrivateKey key = DsaPrivateKey::Generate(group, TestRand(340 + t));
      DhKeyPair dh = DhKeyPair::Generate(group, TestRand(350 + t));
      sigs[t] = key.Sign(digest);
      publics[t] = key.public_key();
      dh_publics[t] = dh.PublicValue();
      published.fetch_add(1);
      while (published.load() < kThreads) {
      }
      for (size_t o = 0; o < kThreads; ++o) {
        if (!publics[o]->Verify(digest, sigs[o])) {
          failures.fetch_add(1);
        }
        auto secret = dh.SharedSecret(dh_publics[o]);
        if (!secret.ok()) {
          failures.fetch_add(1);
          continue;
        }
        secrets[t][o] = std::move(secret).value();
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0u);
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t o = 0; o < kThreads; ++o) {
      EXPECT_EQ(secrets[t][o], secrets[o][t]) << t << " " << o;
    }
  }
}

// ----- golden values -----
//
// Recorded from the build before the 64-bit Montgomery kernel and the
// combs, which must reproduce them bit for bit: signatures (deterministic
// nonces), public keys, DH public values and shared secrets.

std::string Sha256Hex(const Bytes& data) {
  return HexEncode(Sha256::Hash(data));
}

struct GoldenGroup {
  const char* name;
  const DsaParams& params;
  const char* public_y;     // SHA-256 of the public key's y
  const char* first_r;      // r of the first signature, hex
  const char* first_s;      // s of the first signature, hex
  const char* signatures;   // SHA-256 over every signature's wire form
  const char* dh_publics;   // SHA-256 over both DH public values
  const char* dh_secret;    // SHA-256 of the shared secret
};

TEST(GoldenValues, SignaturesAndDhAreUnchanged) {
  const GoldenGroup groups[] = {
      {"512", Dsa512(),
       "30f71b6c322fe3483e81295af95c1b4040135a278deab3a3471bde295f43b275",
       "a7f9cb4be6965927bee494d721580bd975269aac",
       "6e53baf164008f88387e36863fcd28830f3e16af",
       "278ec4e41610682e1c0fa6fb2ad7b0c22f5a81885f4ccc6945c01219e7a9389b",
       "3fc568e963daadcbd89e1c9bbf88e372a6a2214cefc3f8ebba2b1b680486b317",
       "8c4852315ace171b1782b293c2c44de6c8705b5cfd0f6fbd5e3d9df54cbeae06"},
      {"1024", Dsa1024(),
       "07a8a780259cf068241b8e9fa3bd243a3ba065cc82869dcc9a1a6abc80353317",
       "d1300f2469fb02a630a0c39fcdcaac9d53bda477",
       "2bd95cd1a619da31b2182c358f1b89d37db88371",
       "93dbcd47597af69c8220cddd6f6a6544f8eba8695fc73848d5adb875b677c6f0",
       "fdbc421ae338164f499d53efe5c298a7545e31137837d3298bbc31294f1ca9ba",
       "deef9f8413af743707708cc0eb9b0919b4be7bdbb9d7cc3ccd8858555f7f44d2"},
  };
  for (const GoldenGroup& g : groups) {
    SCOPED_TRACE(g.name);
    DsaPrivateKey key = DsaPrivateKey::Generate(g.params, TestRand(101));
    EXPECT_EQ(Sha256Hex(key.public_key().y().ToBytes()), g.public_y);
    Bytes all;
    for (int i = 0; i < 8; ++i) {
      std::string message = "golden " + std::to_string(i);
      Bytes digest = i % 2 ? Sha256::Hash(message) : Sha1::Hash(message);
      DsaSignature sig = key.Sign(digest);
      if (i == 0) {
        EXPECT_EQ(sig.r.ToHex(), g.first_r);
        EXPECT_EQ(sig.s.ToHex(), g.first_s);
      }
      EXPECT_TRUE(key.public_key().Verify(digest, sig));
      Append(all, SerializeDsaSignature(sig, g.params));
    }
    EXPECT_EQ(Sha256Hex(all), g.signatures);

    DhKeyPair a = DhKeyPair::Generate(g.params, TestRand(102));
    DhKeyPair b = DhKeyPair::Generate(g.params, TestRand(103));
    Bytes publics = a.PublicValue();
    Append(publics, b.PublicValue());
    EXPECT_EQ(Sha256Hex(publics), g.dh_publics);
    auto ab = a.SharedSecret(b.PublicValue());
    auto ba = b.SharedSecret(a.PublicValue());
    ASSERT_TRUE(ab.ok() && ba.ok());
    EXPECT_EQ(*ab, *ba);
    EXPECT_EQ(Sha256Hex(*ab), g.dh_secret);
  }
}

}  // namespace
}  // namespace discfs
