// SHA-1 and SHA-256 (FIPS 180-4), streaming and one-shot.
//
// SHA-1 exists because the paper's KeyNote credentials are signed with
// "sig-dsa-sha1-hex" (RFC 2704); DSA's 160-bit q matches SHA-1 output.
// SHA-256 serves HMAC/HKDF in the secure channel and the modern
// signature variant.
#ifndef DISCFS_SRC_CRYPTO_SHA_H_
#define DISCFS_SRC_CRYPTO_SHA_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <string_view>

#include "src/util/bytes.h"

namespace discfs {

class Sha1 {
 public:
  static constexpr size_t kDigestSize = 20;
  static constexpr size_t kBlockSize = 64;

  Sha1();
  void Update(const uint8_t* data, size_t len);
  void Update(const Bytes& data) { Update(data.data(), data.size()); }
  void Update(std::string_view data) {
    Update(reinterpret_cast<const uint8_t*>(data.data()), data.size());
  }
  Bytes Finish();

  static Bytes Hash(const Bytes& data);
  static Bytes Hash(std::string_view data);

 private:
  void Compress(const uint8_t block[64]);

  uint32_t h_[5];
  uint8_t buffer_[64];
  size_t buffered_ = 0;
  uint64_t total_len_ = 0;
};

struct Sha256Digest;

class Sha256 {
 public:
  static constexpr size_t kDigestSize = 32;
  static constexpr size_t kBlockSize = 64;

  Sha256();
  void Update(const uint8_t* data, size_t len);
  void Update(const Bytes& data) { Update(data.data(), data.size()); }
  void Update(std::string_view data) {
    Update(reinterpret_cast<const uint8_t*>(data.data()), data.size());
  }
  Bytes Finish();
  Sha256Digest FinishDigest();

  static Bytes Hash(const Bytes& data);
  static Bytes Hash(std::string_view data);

 private:
  void Compress(const uint8_t block[64]);
  void FinishInto(uint8_t out[kDigestSize]);

  uint32_t h_[8];
  uint8_t buffer_[64];
  size_t buffered_ = 0;
  uint64_t total_len_ = 0;
};

// A SHA-256 digest by value: a fixed 32-byte hash-map key, so a lookup
// allocates nothing.
struct Sha256Digest {
  std::array<uint8_t, Sha256::kDigestSize> bytes{};

  bool operator==(const Sha256Digest& o) const { return bytes == o.bytes; }
  bool operator!=(const Sha256Digest& o) const { return bytes != o.bytes; }

  // A digest's bytes are already uniform, so its first 8 are the hash.
  struct Hash {
    size_t operator()(const Sha256Digest& d) const {
      uint64_t h;
      std::memcpy(&h, d.bytes.data(), sizeof(h));
      return static_cast<size_t>(h);
    }
  };
};

}  // namespace discfs

#endif  // DISCFS_SRC_CRYPTO_SHA_H_
