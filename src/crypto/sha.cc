#include "src/crypto/sha.h"

#include <cstring>

namespace discfs {
namespace {

inline uint32_t Rotl32(uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }
inline uint32_t Rotr32(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

inline uint32_t Load32BE(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) |
         (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

inline void Store32BE(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v >> 24);
  p[1] = static_cast<uint8_t>(v >> 16);
  p[2] = static_cast<uint8_t>(v >> 8);
  p[3] = static_cast<uint8_t>(v);
}

inline void Store64BE(uint8_t* p, uint64_t v) {
  Store32BE(p, static_cast<uint32_t>(v >> 32));
  Store32BE(p + 4, static_cast<uint32_t>(v));
}

const uint32_t kSha256K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

}  // namespace

// ---------------------------------------------------------------- SHA-1

Sha1::Sha1() {
  h_[0] = 0x67452301;
  h_[1] = 0xefcdab89;
  h_[2] = 0x98badcfe;
  h_[3] = 0x10325476;
  h_[4] = 0xc3d2e1f0;
}

void Sha1::Compress(const uint8_t block[64]) {
  uint32_t w[80];
  for (int i = 0; i < 16; ++i) {
    w[i] = Load32BE(block + 4 * i);
  }
  for (int i = 16; i < 80; ++i) {
    w[i] = Rotl32(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
  }
  uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3], e = h_[4];
  for (int i = 0; i < 80; ++i) {
    uint32_t f, k;
    if (i < 20) {
      f = (b & c) | (~b & d);
      k = 0x5a827999;
    } else if (i < 40) {
      f = b ^ c ^ d;
      k = 0x6ed9eba1;
    } else if (i < 60) {
      f = (b & c) | (b & d) | (c & d);
      k = 0x8f1bbcdc;
    } else {
      f = b ^ c ^ d;
      k = 0xca62c1d6;
    }
    uint32_t tmp = Rotl32(a, 5) + f + e + k + w[i];
    e = d;
    d = c;
    c = Rotl32(b, 30);
    b = a;
    a = tmp;
  }
  h_[0] += a;
  h_[1] += b;
  h_[2] += c;
  h_[3] += d;
  h_[4] += e;
}

void Sha1::Update(const uint8_t* data, size_t len) {
  total_len_ += len;
  while (len > 0) {
    size_t take = std::min(len, sizeof(buffer_) - buffered_);
    std::memcpy(buffer_ + buffered_, data, take);
    buffered_ += take;
    data += take;
    len -= take;
    if (buffered_ == sizeof(buffer_)) {
      Compress(buffer_);
      buffered_ = 0;
    }
  }
}

Bytes Sha1::Finish() {
  uint64_t bit_len = total_len_ * 8;
  uint8_t pad = 0x80;
  Update(&pad, 1);
  uint8_t zero = 0;
  while (buffered_ != 56) {
    Update(&zero, 1);
  }
  uint8_t len_be[8];
  Store64BE(len_be, bit_len);
  // Bypass Update's length accounting for the trailer.
  std::memcpy(buffer_ + 56, len_be, 8);
  Compress(buffer_);
  buffered_ = 0;
  Bytes out(kDigestSize);
  for (int i = 0; i < 5; ++i) {
    Store32BE(out.data() + 4 * i, h_[i]);
  }
  return out;
}

Bytes Sha1::Hash(const Bytes& data) {
  Sha1 h;
  h.Update(data);
  return h.Finish();
}

Bytes Sha1::Hash(std::string_view data) {
  Sha1 h;
  h.Update(data);
  return h.Finish();
}

// ---------------------------------------------------------------- SHA-256

Sha256::Sha256() {
  h_[0] = 0x6a09e667;
  h_[1] = 0xbb67ae85;
  h_[2] = 0x3c6ef372;
  h_[3] = 0xa54ff53a;
  h_[4] = 0x510e527f;
  h_[5] = 0x9b05688c;
  h_[6] = 0x1f83d9ab;
  h_[7] = 0x5be0cd19;
}

void Sha256::Compress(const uint8_t block[64]) {
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = Load32BE(block + 4 * i);
  }
  for (int i = 16; i < 64; ++i) {
    uint32_t s0 =
        Rotr32(w[i - 15], 7) ^ Rotr32(w[i - 15], 18) ^ (w[i - 15] >> 3);
    uint32_t s1 =
        Rotr32(w[i - 2], 17) ^ Rotr32(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3];
  uint32_t e = h_[4], f = h_[5], g = h_[6], h = h_[7];
  for (int i = 0; i < 64; ++i) {
    uint32_t s1 = Rotr32(e, 6) ^ Rotr32(e, 11) ^ Rotr32(e, 25);
    uint32_t ch = (e & f) ^ (~e & g);
    uint32_t t1 = h + s1 + ch + kSha256K[i] + w[i];
    uint32_t s0 = Rotr32(a, 2) ^ Rotr32(a, 13) ^ Rotr32(a, 22);
    uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  h_[0] += a;
  h_[1] += b;
  h_[2] += c;
  h_[3] += d;
  h_[4] += e;
  h_[5] += f;
  h_[6] += g;
  h_[7] += h;
}

void Sha256::Update(const uint8_t* data, size_t len) {
  total_len_ += len;
  while (len > 0) {
    size_t take = std::min(len, sizeof(buffer_) - buffered_);
    std::memcpy(buffer_ + buffered_, data, take);
    buffered_ += take;
    data += take;
    len -= take;
    if (buffered_ == sizeof(buffer_)) {
      Compress(buffer_);
      buffered_ = 0;
    }
  }
}

void Sha256::FinishInto(uint8_t out[kDigestSize]) {
  uint64_t bit_len = total_len_ * 8;
  uint8_t pad = 0x80;
  Update(&pad, 1);
  uint8_t zero = 0;
  while (buffered_ != 56) {
    Update(&zero, 1);
  }
  uint8_t len_be[8];
  Store64BE(len_be, bit_len);
  std::memcpy(buffer_ + 56, len_be, 8);
  Compress(buffer_);
  buffered_ = 0;
  for (int i = 0; i < 8; ++i) {
    Store32BE(out + 4 * i, h_[i]);
  }
}

Bytes Sha256::Finish() {
  Bytes out(kDigestSize);
  FinishInto(out.data());
  return out;
}

Sha256Digest Sha256::FinishDigest() {
  Sha256Digest out;
  FinishInto(out.bytes.data());
  return out;
}

Bytes Sha256::Hash(const Bytes& data) {
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

Bytes Sha256::Hash(std::string_view data) {
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

}  // namespace discfs
