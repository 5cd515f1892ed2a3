#include "src/crypto/chacha20.h"

#include <algorithm>
#include <cstring>

namespace discfs {
namespace {

static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "Crypt stores keystream words in host byte order");

// Four 32-bit lanes: SSE2 on x86-64, NEON on arm64, with no -march.
typedef uint32_t U32x4 __attribute__((vector_size(16)));

inline uint32_t Rotl32(uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

template <unsigned N>
inline U32x4 Rotl(U32x4 x) { return (x << N) | (x >> (32 - N)); }

inline uint32_t Load32LE(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

inline void Store32LE(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

inline void QuarterRound4(U32x4& a, U32x4& b, U32x4& c, U32x4& d) {
  a += b;
  d = Rotl<16>(d ^ a);
  c += d;
  b = Rotl<12>(b ^ c);
  a += b;
  d = Rotl<8>(d ^ a);
  c += d;
  b = Rotl<7>(b ^ c);
}

// out[0, 16) = in[0, 16) XOR the four keystream words in `ks`.
inline void XorWords(const uint8_t* in, uint8_t* out, U32x4 ks) {
  U32x4 v;
  std::memcpy(&v, in, sizeof(v));
  v ^= ks;
  std::memcpy(out, &v, sizeof(v));
}

// XORs keystream blocks counter .. counter+3 over 256 bytes (Goll and
// Gueron's 4-way layout): lane b of w[i] is word i of block counter+b, so
// each quarter round runs on all four blocks at once.
void Crypt4Blocks(const uint32_t state[16], uint32_t counter,
                  const uint8_t* in, uint8_t* out) {
  U32x4 x[16];
  for (int i = 0; i < 16; ++i) {
    x[i] = U32x4{state[i], state[i], state[i], state[i]};
  }
  x[12] = U32x4{counter, counter, counter, counter} + U32x4{0, 1, 2, 3};
  U32x4 w[16];
  std::memcpy(w, x, sizeof(w));
  for (int round = 0; round < 10; ++round) {
    QuarterRound4(w[0], w[4], w[8], w[12]);
    QuarterRound4(w[1], w[5], w[9], w[13]);
    QuarterRound4(w[2], w[6], w[10], w[14]);
    QuarterRound4(w[3], w[7], w[11], w[15]);
    QuarterRound4(w[0], w[5], w[10], w[15]);
    QuarterRound4(w[1], w[6], w[11], w[12]);
    QuarterRound4(w[2], w[7], w[8], w[13]);
    QuarterRound4(w[3], w[4], w[9], w[14]);
  }
  // Transpose each group of four words from per-word to per-block order.
  for (int g = 0; g < 16; g += 4) {
    U32x4 a = w[g] + x[g], b = w[g + 1] + x[g + 1];
    U32x4 c = w[g + 2] + x[g + 2], d = w[g + 3] + x[g + 3];
    U32x4 ab_lo = __builtin_shufflevector(a, b, 0, 4, 1, 5);
    U32x4 ab_hi = __builtin_shufflevector(a, b, 2, 6, 3, 7);
    U32x4 cd_lo = __builtin_shufflevector(c, d, 0, 4, 1, 5);
    U32x4 cd_hi = __builtin_shufflevector(c, d, 2, 6, 3, 7);
    const size_t off = 4 * static_cast<size_t>(g);
    XorWords(in + off, out + off,
             __builtin_shufflevector(ab_lo, cd_lo, 0, 1, 4, 5));
    XorWords(in + 64 + off, out + 64 + off,
             __builtin_shufflevector(ab_lo, cd_lo, 2, 3, 6, 7));
    XorWords(in + 128 + off, out + 128 + off,
             __builtin_shufflevector(ab_hi, cd_hi, 0, 1, 4, 5));
    XorWords(in + 192 + off, out + 192 + off,
             __builtin_shufflevector(ab_hi, cd_hi, 2, 3, 6, 7));
  }
}

}  // namespace

void ChaCha20::QuarterRound(uint32_t& a, uint32_t& b, uint32_t& c,
                            uint32_t& d) {
  a += b;
  d ^= a;
  d = Rotl32(d, 16);
  c += d;
  b ^= c;
  b = Rotl32(b, 12);
  a += b;
  d ^= a;
  d = Rotl32(d, 8);
  c += d;
  b ^= c;
  b = Rotl32(b, 7);
}

ChaCha20::ChaCha20(const uint8_t* key, const uint8_t* nonce, uint32_t counter)
    : counter_(counter) {
  state_[0] = 0x61707865;  // "expa"
  state_[1] = 0x3320646e;  // "nd 3"
  state_[2] = 0x79622d32;  // "2-by"
  state_[3] = 0x6b206574;  // "te k"
  for (int i = 0; i < 8; ++i) {
    state_[4 + i] = Load32LE(key + 4 * i);
  }
  state_[12] = 0;  // set per block
  state_[13] = Load32LE(nonce);
  state_[14] = Load32LE(nonce + 4);
  state_[15] = Load32LE(nonce + 8);
}

void ChaCha20::KeystreamBlock(uint32_t counter, uint8_t out[64]) const {
  uint32_t x[16];
  std::memcpy(x, state_, sizeof(x));
  x[12] = counter;
  uint32_t w[16];
  std::memcpy(w, x, sizeof(w));
  for (int round = 0; round < 10; ++round) {
    QuarterRound(w[0], w[4], w[8], w[12]);
    QuarterRound(w[1], w[5], w[9], w[13]);
    QuarterRound(w[2], w[6], w[10], w[14]);
    QuarterRound(w[3], w[7], w[11], w[15]);
    QuarterRound(w[0], w[5], w[10], w[15]);
    QuarterRound(w[1], w[6], w[11], w[12]);
    QuarterRound(w[2], w[7], w[8], w[13]);
    QuarterRound(w[3], w[4], w[9], w[14]);
  }
  for (int i = 0; i < 16; ++i) {
    Store32LE(out + 4 * i, w[i] + x[i]);
  }
}

void ChaCha20::Crypt(const uint8_t* in, uint8_t* out, size_t len) {
  for (; len >= 4 * kBlockSize; len -= 4 * kBlockSize) {
    Crypt4Blocks(state_, counter_, in, out);
    counter_ += 4;
    in += 4 * kBlockSize;
    out += 4 * kBlockSize;
  }
  uint8_t block[kBlockSize];
  while (len > 0) {
    KeystreamBlock(counter_++, block);
    size_t take = std::min(len, kBlockSize);
    for (size_t i = 0; i < take; ++i) {
      out[i] = in[i] ^ block[i];
    }
    in += take;
    out += take;
    len -= take;
  }
}

}  // namespace discfs
