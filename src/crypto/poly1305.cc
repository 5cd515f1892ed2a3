#include "src/crypto/poly1305.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace discfs {
namespace {

static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "Poly1305 loads message words in host byte order");

using U128 = unsigned __int128;

constexpr uint64_t kMask44 = 0xfffffffffff;
constexpr uint64_t kMask42 = 0x3ffffffffff;
constexpr uint64_t kHibit = uint64_t{1} << 40;  // 2^128 in limb-2 units

inline uint64_t Load64LE(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// 26-bit limb implementation (poly1305-donna-32 style).
inline uint32_t Load32LE(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

Poly1305::Poly1305(const uint8_t* key) {
  // r with the RFC clamping applied, split into 44/44/42-bit limbs.
  uint64_t t0 = Load64LE(key);
  uint64_t t1 = Load64LE(key + 8);
  r_[0] = t0 & 0xffc0fffffff;
  r_[1] = ((t0 >> 44) | (t1 << 20)) & 0xfffffc0ffff;
  r_[2] = (t1 >> 24) & 0x00ffffffc0f;
  pad_[0] = Load64LE(key + 16);
  pad_[1] = Load64LE(key + 24);
}

void Poly1305::Blocks(const uint8_t* data, size_t len, uint64_t hibit) {
  const uint64_t r0 = r_[0], r1 = r_[1], r2 = r_[2];
  // Limb products at 2^132 and 2^176 wrap to 2^2 and 2^46 times 5.
  const uint64_t s1 = r1 * (5 << 2), s2 = r2 * (5 << 2);
  uint64_t h0 = h_[0], h1 = h_[1], h2 = h_[2];
  for (; len >= 16; len -= 16, data += 16) {
    uint64_t t0 = Load64LE(data);
    uint64_t t1 = Load64LE(data + 8);
    h0 += t0 & kMask44;
    h1 += ((t0 >> 44) | (t1 << 20)) & kMask44;
    h2 += ((t1 >> 24) & kMask42) | hibit;

    U128 d0 = static_cast<U128>(h0) * r0 + static_cast<U128>(h1) * s2 +
              static_cast<U128>(h2) * s1;
    U128 d1 = static_cast<U128>(h0) * r1 + static_cast<U128>(h1) * r0 +
              static_cast<U128>(h2) * s2;
    U128 d2 = static_cast<U128>(h0) * r2 + static_cast<U128>(h1) * r1 +
              static_cast<U128>(h2) * r0;

    uint64_t c = static_cast<uint64_t>(d0 >> 44);
    h0 = static_cast<uint64_t>(d0) & kMask44;
    d1 += c;
    c = static_cast<uint64_t>(d1 >> 44);
    h1 = static_cast<uint64_t>(d1) & kMask44;
    d2 += c;
    c = static_cast<uint64_t>(d2 >> 42);
    h2 = static_cast<uint64_t>(d2) & kMask42;
    h0 += c * 5;
    c = h0 >> 44;
    h0 &= kMask44;
    h1 += c;
  }
  h_[0] = h0;
  h_[1] = h1;
  h_[2] = h2;
}

void Poly1305::Update(const uint8_t* data, size_t len) {
  if (len == 0) {
    return;
  }
  if (buffered_ > 0) {
    size_t take = std::min(len, sizeof(buffer_) - buffered_);
    std::memcpy(buffer_ + buffered_, data, take);
    buffered_ += take;
    data += take;
    len -= take;
    if (buffered_ < sizeof(buffer_)) {
      return;
    }
    Blocks(buffer_, sizeof(buffer_), kHibit);
    buffered_ = 0;
  }
  size_t whole = len & ~size_t{15};
  Blocks(data, whole, kHibit);
  if (len > whole) {
    buffered_ = len - whole;
    std::memcpy(buffer_, data + whole, buffered_);
  }
}

void Poly1305::PadTo16() {
  if (buffered_ > 0) {
    std::memset(buffer_ + buffered_, 0, sizeof(buffer_) - buffered_);
    Blocks(buffer_, sizeof(buffer_), kHibit);
    buffered_ = 0;
  }
}

void Poly1305::Final(uint8_t tag[kTagSize]) {
  if (buffered_ > 0) {
    buffer_[buffered_] = 1;
    std::memset(buffer_ + buffered_ + 1, 0, sizeof(buffer_) - buffered_ - 1);
    Blocks(buffer_, sizeof(buffer_), /*hibit=*/0);
  }

  // Full carry propagation.
  uint64_t h0 = h_[0], h1 = h_[1], h2 = h_[2];
  uint64_t c = h1 >> 44;
  h1 &= kMask44;
  h2 += c;
  c = h2 >> 42;
  h2 &= kMask42;
  h0 += c * 5;
  c = h0 >> 44;
  h0 &= kMask44;
  h1 += c;
  c = h1 >> 44;
  h1 &= kMask44;
  h2 += c;
  c = h2 >> 42;
  h2 &= kMask42;
  h0 += c * 5;
  c = h0 >> 44;
  h0 &= kMask44;
  h1 += c;

  // Compute h + -p and constant-time select h mod p.
  uint64_t g0 = h0 + 5;
  c = g0 >> 44;
  g0 &= kMask44;
  uint64_t g1 = h1 + c;
  c = g1 >> 44;
  g1 &= kMask44;
  uint64_t g2 = h2 + c - (uint64_t{1} << 42);

  uint64_t mask = (g2 >> 63) - 1;  // all-ones if h >= p, else zero
  g0 &= mask;
  g1 &= mask;
  g2 &= mask;
  mask = ~mask;
  h0 = (h0 & mask) | g0;
  h1 = (h1 & mask) | g1;
  h2 = (h2 & mask) | g2;

  // Add the pad s with carry, then pack into 128 bits.
  const uint64_t s0 = pad_[0], s1 = pad_[1];
  h0 += s0 & kMask44;
  c = h0 >> 44;
  h0 &= kMask44;
  h1 += (((s0 >> 44) | (s1 << 20)) & kMask44) + c;
  c = h1 >> 44;
  h1 &= kMask44;
  h2 += ((s1 >> 24) & kMask42) + c;
  h2 &= kMask42;

  const uint64_t lo = h0 | (h1 << 44);
  const uint64_t hi = (h1 >> 20) | (h2 << 24);
  std::memcpy(tag, &lo, sizeof(lo));
  std::memcpy(tag + 8, &hi, sizeof(hi));
}

Bytes Poly1305Tag(const Bytes& key, const Bytes& message) {
  assert(key.size() == Poly1305::kKeySize);
  Poly1305 mac(key.data());
  mac.Update(message.data(), message.size());
  Bytes tag(Poly1305::kTagSize);
  mac.Final(tag.data());
  return tag;
}

Bytes Poly1305TagReference(const Bytes& key, const Bytes& message) {
  assert(key.size() == 32);

  // r with the RFC clamping applied, split into 26-bit limbs.
  uint32_t r0 = Load32LE(key.data() + 0) & 0x3ffffff;
  uint32_t r1 = (Load32LE(key.data() + 3) >> 2) & 0x3ffff03;
  uint32_t r2 = (Load32LE(key.data() + 6) >> 4) & 0x3ffc0ff;
  uint32_t r3 = (Load32LE(key.data() + 9) >> 6) & 0x3f03fff;
  uint32_t r4 = (Load32LE(key.data() + 12) >> 8) & 0x00fffff;

  const uint32_t s1 = r1 * 5;
  const uint32_t s2 = r2 * 5;
  const uint32_t s3 = r3 * 5;
  const uint32_t s4 = r4 * 5;

  uint32_t h0 = 0, h1 = 0, h2 = 0, h3 = 0, h4 = 0;

  size_t off = 0;
  size_t remaining = message.size();
  while (remaining > 0) {
    uint8_t block[16];
    uint32_t hibit;
    if (remaining >= 16) {
      std::memcpy(block, message.data() + off, 16);
      hibit = 1u << 24;  // 2^128
      off += 16;
      remaining -= 16;
    } else {
      std::memset(block, 0, sizeof(block));
      std::memcpy(block, message.data() + off, remaining);
      block[remaining] = 1;
      hibit = 0;
      off += remaining;
      remaining = 0;
    }

    h0 += Load32LE(block + 0) & 0x3ffffff;
    h1 += (Load32LE(block + 3) >> 2) & 0x3ffffff;
    h2 += (Load32LE(block + 6) >> 4) & 0x3ffffff;
    h3 += (Load32LE(block + 9) >> 6) & 0x3ffffff;
    h4 += (Load32LE(block + 12) >> 8) | hibit;

    uint64_t d0 = static_cast<uint64_t>(h0) * r0 +
                  static_cast<uint64_t>(h1) * s4 +
                  static_cast<uint64_t>(h2) * s3 +
                  static_cast<uint64_t>(h3) * s2 +
                  static_cast<uint64_t>(h4) * s1;
    uint64_t d1 = static_cast<uint64_t>(h0) * r1 +
                  static_cast<uint64_t>(h1) * r0 +
                  static_cast<uint64_t>(h2) * s4 +
                  static_cast<uint64_t>(h3) * s3 +
                  static_cast<uint64_t>(h4) * s2;
    uint64_t d2 = static_cast<uint64_t>(h0) * r2 +
                  static_cast<uint64_t>(h1) * r1 +
                  static_cast<uint64_t>(h2) * r0 +
                  static_cast<uint64_t>(h3) * s4 +
                  static_cast<uint64_t>(h4) * s3;
    uint64_t d3 = static_cast<uint64_t>(h0) * r3 +
                  static_cast<uint64_t>(h1) * r2 +
                  static_cast<uint64_t>(h2) * r1 +
                  static_cast<uint64_t>(h3) * r0 +
                  static_cast<uint64_t>(h4) * s4;
    uint64_t d4 = static_cast<uint64_t>(h0) * r4 +
                  static_cast<uint64_t>(h1) * r3 +
                  static_cast<uint64_t>(h2) * r2 +
                  static_cast<uint64_t>(h3) * r1 +
                  static_cast<uint64_t>(h4) * r0;

    uint64_t c = d0 >> 26;
    h0 = static_cast<uint32_t>(d0) & 0x3ffffff;
    d1 += c;
    c = d1 >> 26;
    h1 = static_cast<uint32_t>(d1) & 0x3ffffff;
    d2 += c;
    c = d2 >> 26;
    h2 = static_cast<uint32_t>(d2) & 0x3ffffff;
    d3 += c;
    c = d3 >> 26;
    h3 = static_cast<uint32_t>(d3) & 0x3ffffff;
    d4 += c;
    c = d4 >> 26;
    h4 = static_cast<uint32_t>(d4) & 0x3ffffff;
    h0 += static_cast<uint32_t>(c) * 5;
    c = h0 >> 26;
    h0 &= 0x3ffffff;
    h1 += static_cast<uint32_t>(c);
  }

  // Full carry propagation.
  uint32_t c = h1 >> 26;
  h1 &= 0x3ffffff;
  h2 += c;
  c = h2 >> 26;
  h2 &= 0x3ffffff;
  h3 += c;
  c = h3 >> 26;
  h3 &= 0x3ffffff;
  h4 += c;
  c = h4 >> 26;
  h4 &= 0x3ffffff;
  h0 += c * 5;
  c = h0 >> 26;
  h0 &= 0x3ffffff;
  h1 += c;

  // Compute h + -p and constant-time select h mod p.
  uint32_t g0 = h0 + 5;
  c = g0 >> 26;
  g0 &= 0x3ffffff;
  uint32_t g1 = h1 + c;
  c = g1 >> 26;
  g1 &= 0x3ffffff;
  uint32_t g2 = h2 + c;
  c = g2 >> 26;
  g2 &= 0x3ffffff;
  uint32_t g3 = h3 + c;
  c = g3 >> 26;
  g3 &= 0x3ffffff;
  uint32_t g4 = h4 + c - (1u << 26);

  uint32_t mask = (g4 >> 31) - 1;  // all-ones if h >= p, else zero
  g0 &= mask;
  g1 &= mask;
  g2 &= mask;
  g3 &= mask;
  g4 &= mask;
  mask = ~mask;
  h0 = (h0 & mask) | g0;
  h1 = (h1 & mask) | g1;
  h2 = (h2 & mask) | g2;
  h3 = (h3 & mask) | g3;
  h4 = (h4 & mask) | g4;

  // Pack into 128 bits.
  uint32_t w0 = h0 | (h1 << 26);
  uint32_t w1 = (h1 >> 6) | (h2 << 20);
  uint32_t w2 = (h2 >> 12) | (h3 << 14);
  uint32_t w3 = (h3 >> 18) | (h4 << 8);

  // Add the pad s (second half of the key) with carry.
  uint64_t f = static_cast<uint64_t>(w0) + Load32LE(key.data() + 16);
  w0 = static_cast<uint32_t>(f);
  f = static_cast<uint64_t>(w1) + Load32LE(key.data() + 20) + (f >> 32);
  w1 = static_cast<uint32_t>(f);
  f = static_cast<uint64_t>(w2) + Load32LE(key.data() + 24) + (f >> 32);
  w2 = static_cast<uint32_t>(f);
  f = static_cast<uint64_t>(w3) + Load32LE(key.data() + 28) + (f >> 32);
  w3 = static_cast<uint32_t>(f);

  Bytes tag(16);
  const uint32_t words[4] = {w0, w1, w2, w3};
  for (int i = 0; i < 4; ++i) {
    tag[4 * i + 0] = static_cast<uint8_t>(words[i]);
    tag[4 * i + 1] = static_cast<uint8_t>(words[i] >> 8);
    tag[4 * i + 2] = static_cast<uint8_t>(words[i] >> 16);
    tag[4 * i + 3] = static_cast<uint8_t>(words[i] >> 24);
  }
  return tag;
}

}  // namespace discfs
