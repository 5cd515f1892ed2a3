// ChaCha20 stream cipher (RFC 8439).
#ifndef DISCFS_SRC_CRYPTO_CHACHA20_H_
#define DISCFS_SRC_CRYPTO_CHACHA20_H_

#include <cstddef>
#include <cstdint>

namespace discfs {

class ChaCha20 {
 public:
  static constexpr size_t kKeySize = 32;
  static constexpr size_t kNonceSize = 12;
  static constexpr size_t kBlockSize = 64;

  // Reads kKeySize bytes of key and kNonceSize bytes of nonce.
  ChaCha20(const uint8_t* key, const uint8_t* nonce, uint32_t counter);

  // Produces the 64-byte keystream block for `counter` into out. This is
  // the one-block reference the 4-block path in Crypt is tested against.
  void KeystreamBlock(uint32_t counter, uint8_t out[kBlockSize]) const;

  // Writes `in` XOR keystream to `out` (in == out allowed), starting at the
  // current counter and advancing it by one per (partial) block.
  void Crypt(const uint8_t* in, uint8_t* out, size_t len);

  // The RFC 8439 quarter round, exposed for unit testing against the
  // published test vector.
  static void QuarterRound(uint32_t& a, uint32_t& b, uint32_t& c, uint32_t& d);

 private:
  uint32_t state_[16];
  uint32_t counter_;
};

}  // namespace discfs

#endif  // DISCFS_SRC_CRYPTO_CHACHA20_H_
