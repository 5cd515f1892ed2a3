#include <gtest/gtest.h>

#include <algorithm>

#include "src/crypto/aead.h"
#include "src/crypto/chacha20.h"
#include "src/crypto/poly1305.h"
#include "src/util/hex.h"
#include "src/util/prng.h"

namespace discfs {
namespace {

Bytes FromHexOrDie(std::string_view h) {
  auto r = HexDecode(h);
  EXPECT_TRUE(r.ok());
  return r.value();
}

// RFC 8439 §2.1.1 quarter-round test vector.
TEST(ChaCha20, QuarterRoundVector) {
  uint32_t a = 0x11111111, b = 0x01020304, c = 0x9b8d6f43, d = 0x01234567;
  ChaCha20::QuarterRound(a, b, c, d);
  EXPECT_EQ(a, 0xea2a92f4u);
  EXPECT_EQ(b, 0xcb1cf8ceu);
  EXPECT_EQ(c, 0x4581472eu);
  EXPECT_EQ(d, 0x5881c4bbu);
}

// `in` XOR the keystream from `counter` on, one reference block at a time.
Bytes ReferenceCrypt(const Bytes& key, const Bytes& nonce, uint32_t counter,
                     const Bytes& in) {
  ChaCha20 chacha(key.data(), nonce.data(), 0);
  Bytes out = in;
  uint8_t block[ChaCha20::kBlockSize];
  for (size_t i = 0; i < out.size(); ++i) {
    if (i % 64 == 0) {
      chacha.KeystreamBlock(counter + static_cast<uint32_t>(i / 64), block);
    }
    out[i] ^= block[i % 64];
  }
  return out;
}

// RFC 8439 §2.8 composed from the one-block keystream and the 26-bit
// reference Poly1305: what Aead::Seal must reproduce byte for byte.
Bytes ReferenceSeal(const Bytes& key, const Bytes& nonce, const Bytes& aad,
                    const Bytes& plaintext) {
  uint8_t block0[ChaCha20::kBlockSize];
  ChaCha20(key.data(), nonce.data(), 0).KeystreamBlock(0, block0);
  Bytes out = ReferenceCrypt(key, nonce, 1, plaintext);
  Bytes mac_data = aad;
  mac_data.resize((aad.size() + 15) / 16 * 16);
  Append(mac_data, out);
  mac_data.resize((mac_data.size() + 15) / 16 * 16);
  for (uint64_t len : {uint64_t{aad.size()}, uint64_t{out.size()}}) {
    for (int i = 0; i < 8; ++i) {
      mac_data.push_back(static_cast<uint8_t>(len >> (8 * i)));
    }
  }
  Append(out, Poly1305TagReference(Bytes(block0, block0 + 32), mac_data));
  return out;
}

// Every length 0-1,024, then random lengths up to 64 KiB.
std::vector<size_t> EquivalenceLengths(Prng& prng) {
  std::vector<size_t> lengths;
  for (size_t len = 0; len <= 1024; ++len) {
    lengths.push_back(len);
  }
  for (int i = 0; i < 24; ++i) {
    lengths.push_back(prng.NextBelow(64 * 1024 + 1));
  }
  return lengths;
}

TEST(ChaCha20, EncryptDecryptRoundTrip) {
  Bytes key(32, 0x42);
  Bytes nonce(12, 0x24);
  Bytes msg = ToBytes("attack at dawn, bring credentials");
  Bytes ct(msg.size());
  ChaCha20(key.data(), nonce.data(), 1).Crypt(msg.data(), ct.data(), ct.size());
  EXPECT_NE(ct, msg);
  ChaCha20(key.data(), nonce.data(), 1).Crypt(ct.data(), ct.data(), ct.size());
  EXPECT_EQ(ct, msg);
}

TEST(ChaCha20, KeystreamBlocksDiffer) {
  Bytes key(32, 1);
  Bytes nonce(12, 2);
  ChaCha20 c(key.data(), nonce.data(), 0);
  uint8_t b0[64], b1[64];
  c.KeystreamBlock(0, b0);
  c.KeystreamBlock(1, b1);
  EXPECT_NE(Bytes(b0, b0 + 64), Bytes(b1, b1 + 64));
}

TEST(ChaCha20, CounterContinuityAcrossCalls) {
  // Encrypting in chunks must equal one shot when the chunk boundaries are
  // block-aligned, whether a chunk takes the 4-block path or the tail.
  Bytes key(32, 7);
  Bytes nonce(12, 9);
  Bytes msg(1000, 0xaa);
  Bytes full(msg.size());
  ChaCha20(key.data(), nonce.data(), 1)
      .Crypt(msg.data(), full.data(), msg.size());
  ChaCha20 parts(key.data(), nonce.data(), 1);
  Bytes pieces = msg;
  parts.Crypt(pieces.data(), pieces.data(), 64);
  parts.Crypt(pieces.data() + 64, pieces.data() + 64, 512);
  parts.Crypt(pieces.data() + 576, pieces.data() + 576, 424);
  EXPECT_EQ(pieces, full);
}

// The 4-block path against the one-block reference, at every length to
// 1 KiB and random ones to 64 KiB, out of place and in place, from random
// counters, including counters that wrap past 2^32 - 1.
TEST(ChaCha20, CryptMatchesOneBlockReference) {
  Prng prng(2024);
  for (size_t len : EquivalenceLengths(prng)) {
    Bytes key = prng.NextBytes(32);
    Bytes nonce = prng.NextBytes(12);
    uint32_t counter = static_cast<uint32_t>(
        len % 3 == 0 ? 0xffffffffu - prng.NextBelow(8) : prng.Next());
    Bytes in = prng.NextBytes(len);
    Bytes expected = ReferenceCrypt(key, nonce, counter, in);
    Bytes out(len);
    ChaCha20(key.data(), nonce.data(), counter)
        .Crypt(in.data(), out.data(), len);
    ASSERT_EQ(out, expected) << "len " << len << " counter " << counter;
    ChaCha20(key.data(), nonce.data(), counter)
        .Crypt(in.data(), in.data(), len);
    ASSERT_EQ(in, expected) << "in place, len " << len;
  }
}

// RFC 8439 §2.5.2 Poly1305 test vector, for the streaming code and the
// reference.
TEST(Poly1305, Rfc8439Vector) {
  Bytes key = FromHexOrDie(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  Bytes msg = ToBytes("Cryptographic Forum Research Group");
  EXPECT_EQ(HexEncode(Poly1305Tag(key, msg)),
            "a8061dc1305136c6c22b8baf0c0127a9");
  EXPECT_EQ(HexEncode(Poly1305TagReference(key, msg)),
            "a8061dc1305136c6c22b8baf0c0127a9");
}

// Keys and messages that push the accumulator to the edges of its final
// reduction mod 2^130 - 5, in the shapes of RFC 8439 Appendix A.3's
// Poly1305 edge cases, which random inputs practically never reach. The
// expected tags come from the reference, not from the RFC text.
TEST(Poly1305, ReductionEdgesMatchReference) {
  auto key_r = [](std::initializer_list<uint8_t> r, uint8_t s) {
    Bytes key(r);
    key.resize(16, 0);
    key.resize(32, s);
    return key;
  };
  auto blocks = [](std::initializer_list<Bytes> parts) {
    Bytes out;
    for (const Bytes& part : parts) {
      Append(out, part);
    }
    return out;
  };
  auto run = [](uint8_t first, uint8_t rest) {
    Bytes block(16, rest);
    block[0] = first;
    return block;
  };
  const Bytes ones = Bytes(16, 0xff);
  const Bytes r10 = key_r({1, 0, 0, 0, 0, 0, 0, 0, 4}, 0);
  const Bytes m10 = blocks(
      {FromHexOrDie("e33594d7505e43b90000000000000000"),
       FromHexOrDie("3394d7505e4379cd0100000000000000"), Bytes(16, 0)});
  const std::vector<std::pair<Bytes, Bytes>> cases = {
      {key_r({2}, 0), ones},
      {key_r({2}, 0xff), run(0x02, 0)},
      {key_r({1}, 0), blocks({ones, run(0xf0, 0xff), run(0x11, 0)})},
      {key_r({1}, 0), blocks({ones, run(0xfb, 0xfe), Bytes(16, 0x01)})},
      {key_r({2}, 0), run(0xfd, 0xff)},
      {key_r({1}, 0), blocks({ones, ones})},
      {r10, blocks({m10, run(0x01, 0)})},
      {r10, m10},
      {Bytes(32, 0xff), blocks({ones, ones, ones})},
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(Poly1305Tag(cases[i].first, cases[i].second),
              Poly1305TagReference(cases[i].first, cases[i].second))
        << "case " << i;
  }
}

// The 64-bit streaming Poly1305 against the 26-bit reference, one shot and
// fed in random pieces, with random keys. Every tenth key has all the
// bits clamping leaves in r set and s = 2^128 - 1, to exercise the carries.
TEST(Poly1305, MatchesReference) {
  Prng prng(1305);
  for (size_t len : EquivalenceLengths(prng)) {
    Bytes key = prng.NextBytes(32);
    if (len % 10 == 0) {
      key.assign(32, 0xff);
    }
    Bytes msg = len % 10 == 5 ? Bytes(len, 0xff) : prng.NextBytes(len);
    Bytes expected = Poly1305TagReference(key, msg);
    ASSERT_EQ(Poly1305Tag(key, msg), expected) << "len " << len;
    Poly1305 mac(key.data());
    for (size_t off = 0; off < len;) {
      size_t take = std::min<size_t>(len - off, prng.NextBelow(40));
      mac.Update(msg.data() + off, take);
      off += take;
    }
    Bytes tag(Poly1305::kTagSize);
    mac.Final(tag.data());
    ASSERT_EQ(tag, expected) << "pieces, len " << len;
  }
}

TEST(Poly1305, EmptyMessage) {
  Bytes key(32, 0x55);
  EXPECT_EQ(Poly1305Tag(key, Bytes()).size(), 16u);
}

TEST(Poly1305, BlockBoundaryLengths) {
  Bytes key = FromHexOrDie(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  // Tags must differ across lengths straddling the 16-byte block boundary.
  std::vector<Bytes> tags;
  for (size_t len : {15u, 16u, 17u, 31u, 32u, 33u}) {
    tags.push_back(Poly1305Tag(key, Bytes(len, 0x61)));
  }
  for (size_t i = 0; i < tags.size(); ++i) {
    for (size_t j = i + 1; j < tags.size(); ++j) {
      EXPECT_NE(tags[i], tags[j]);
    }
  }
}

class AeadTest : public ::testing::Test {
 protected:
  AeadTest() : aead_(Bytes(32, 0x11)) {}
  Bytes Nonce(uint64_t n) {
    Bytes nonce(12, 0);
    for (int i = 0; i < 8; ++i) {
      nonce[4 + i] = static_cast<uint8_t>(n >> (8 * i));
    }
    return nonce;
  }
  Aead aead_;
};

TEST_F(AeadTest, SealOpenRoundTrip) {
  Bytes msg = ToBytes("NFS READ fhandle=42 offset=0 count=8192");
  Bytes aad = ToBytes("seq=7");
  Bytes sealed = aead_.Seal(Nonce(7), aad, msg);
  EXPECT_EQ(sealed.size(), msg.size() + Aead::kTagSize);
  auto opened = aead_.Open(Nonce(7), aad, sealed);
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_EQ(opened.value(), msg);
}

TEST_F(AeadTest, EmptyPlaintext) {
  Bytes sealed = aead_.Seal(Nonce(1), Bytes(), Bytes());
  EXPECT_EQ(sealed.size(), Aead::kTagSize);
  auto opened = aead_.Open(Nonce(1), Bytes(), sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_TRUE(opened->empty());
}

TEST_F(AeadTest, TamperedCiphertextRejected) {
  Bytes sealed = aead_.Seal(Nonce(2), Bytes(), ToBytes("hello"));
  sealed[0] ^= 1;
  EXPECT_FALSE(aead_.Open(Nonce(2), Bytes(), sealed).ok());
}

TEST_F(AeadTest, TamperedTagRejected) {
  Bytes sealed = aead_.Seal(Nonce(2), Bytes(), ToBytes("hello"));
  sealed.back() ^= 1;
  EXPECT_FALSE(aead_.Open(Nonce(2), Bytes(), sealed).ok());
}

TEST_F(AeadTest, WrongNonceRejected) {
  Bytes sealed = aead_.Seal(Nonce(3), Bytes(), ToBytes("hello"));
  EXPECT_FALSE(aead_.Open(Nonce(4), Bytes(), sealed).ok());
}

TEST_F(AeadTest, WrongAadRejected) {
  Bytes sealed = aead_.Seal(Nonce(5), ToBytes("aad-a"), ToBytes("hello"));
  EXPECT_FALSE(aead_.Open(Nonce(5), ToBytes("aad-b"), sealed).ok());
}

TEST_F(AeadTest, WrongKeyRejected) {
  Bytes sealed = aead_.Seal(Nonce(6), Bytes(), ToBytes("hello"));
  Aead other(Bytes(32, 0x22));
  EXPECT_FALSE(other.Open(Nonce(6), Bytes(), sealed).ok());
}

TEST_F(AeadTest, TruncatedRecordRejected) {
  EXPECT_FALSE(aead_.Open(Nonce(1), Bytes(), Bytes(10, 0)).ok());
}

TEST_F(AeadTest, NonceOfWrongLengthRejected) {
  Bytes sealed = aead_.Seal(Nonce(1), Bytes(), ToBytes("hello"));
  for (size_t len : {0u, 4u, 11u, 13u}) {
    Bytes nonce = Nonce(1);
    nonce.resize(len);
    EXPECT_EQ(aead_.Open(nonce, Bytes(), sealed).status().code(),
              StatusCode::kInvalidArgument)
        << "nonce of " << len << " bytes";
  }
}

// Seal and Open against RFC 8439 §2.8 composed from the references, with
// random keys, nonces and aad, out of place and in place; Open must
// reject any flipped bit in the ciphertext, tag, aad or nonce and leave
// its output untouched.
TEST(AeadEquivalence, SealAndOpenMatchReferenceComposition) {
  Prng prng(8439);
  for (size_t len : EquivalenceLengths(prng)) {
    Bytes key = prng.NextBytes(Aead::kKeySize);
    Bytes nonce = prng.NextBytes(Aead::kNonceSize);
    Bytes aad = prng.NextBytes(prng.NextBelow(40));
    Bytes plain = prng.NextBytes(len);
    Bytes expected = ReferenceSeal(key, nonce, aad, plain);
    Aead aead(key);
    ASSERT_EQ(aead.Seal(nonce, aad, plain), expected) << "len " << len;

    Bytes buf = plain;
    buf.resize(len + Aead::kTagSize);
    aead.Seal(nonce.data(), aad.data(), aad.size(), buf.data(), len,
              buf.data());
    ASSERT_EQ(buf, expected) << "in place, len " << len;

    Result<Bytes> opened = aead.Open(nonce, aad, expected);
    ASSERT_TRUE(opened.ok()) << opened.status();
    ASSERT_EQ(*opened, plain);
    ASSERT_TRUE(aead.Open(nonce.data(), aad.data(), aad.size(), buf.data(),
                          buf.size(), buf.data())
                    .ok());
    ASSERT_TRUE(std::equal(plain.begin(), plain.end(), buf.begin()));

    auto rejects = [&](const Bytes& n, const Bytes& a, const Bytes& sealed) {
      Bytes out(len, 0x5c);
      Status st = aead.Open(n.data(), a.data(), a.size(), sealed.data(),
                            sealed.size(), out.data());
      return st.code() == StatusCode::kUnauthenticated &&
             out == Bytes(len, 0x5c);
    };
    size_t bit = prng.NextBelow(8 * expected.size());
    Bytes bent = expected;
    bent[bit / 8] ^= static_cast<uint8_t>(1 << (bit % 8));
    EXPECT_TRUE(rejects(nonce, aad, bent)) << "sealed bit " << bit;
    Bytes bent_tag = expected;
    bent_tag[len + prng.NextBelow(Aead::kTagSize)] ^= 0x80;
    EXPECT_TRUE(rejects(nonce, aad, bent_tag)) << "tag, len " << len;
    Bytes bent_nonce = nonce;
    bent_nonce[prng.NextBelow(Aead::kNonceSize)] ^= 0x01;
    EXPECT_TRUE(rejects(bent_nonce, aad, expected)) << "nonce, len " << len;
    if (!aad.empty()) {
      Bytes bent_aad = aad;
      bent_aad[prng.NextBelow(aad.size())] ^= 0x10;
      EXPECT_TRUE(rejects(nonce, bent_aad, expected)) << "aad, len " << len;
    }
  }
}

TEST_F(AeadTest, RandomizedRoundTrips) {
  Prng prng(99);
  for (int i = 0; i < 50; ++i) {
    Bytes msg = prng.NextBytes(prng.NextBelow(2000));
    Bytes aad = prng.NextBytes(prng.NextBelow(64));
    Bytes nonce = Nonce(prng.Next());
    Bytes sealed = aead_.Seal(nonce, aad, msg);
    auto opened = aead_.Open(nonce, aad, sealed);
    ASSERT_TRUE(opened.ok());
    EXPECT_EQ(opened.value(), msg);
  }
}

}  // namespace
}  // namespace discfs
