// Poly1305 one-time authenticator (RFC 8439).
#ifndef DISCFS_SRC_CRYPTO_POLY1305_H_
#define DISCFS_SRC_CRYPTO_POLY1305_H_

#include <cstddef>
#include <cstdint>

#include "src/util/bytes.h"

namespace discfs {

// Streaming Poly1305 over 44/44/42-bit limbs with 128-bit products
// (poly1305-donna-64), so a message can be authenticated in pieces, as
// the AEAD does over aad, padding, ciphertext and lengths.
class Poly1305 {
 public:
  static constexpr size_t kKeySize = 32;
  static constexpr size_t kTagSize = 16;

  // Reads the kKeySize-byte one-time key r || s.
  explicit Poly1305(const uint8_t* key);

  void Update(const uint8_t* data, size_t len);
  // Zero-pads the message so far to a multiple of 16 bytes.
  void PadTo16();
  // Writes the tag; the object must not be used afterwards.
  void Final(uint8_t tag[kTagSize]);

 private:
  // Absorbs `len` (a multiple of 16) bytes; `hibit` is 2^128 in limb-2
  // units for message blocks and 0 for the padded final block.
  void Blocks(const uint8_t* data, size_t len, uint64_t hibit);

  uint64_t r_[3];
  uint64_t h_[3] = {0, 0, 0};
  uint64_t pad_[2];
  uint8_t buffer_[16] = {};
  size_t buffered_ = 0;
};

// Computes the 16-byte Poly1305 tag of `message` under the 32-byte one-time
// `key` (r || s).
Bytes Poly1305Tag(const Bytes& key, const Bytes& message);

// The same tag from the original 26-bit-limb, one-shot code, kept as the
// reference the streaming implementation is tested and benchmarked
// against.
Bytes Poly1305TagReference(const Bytes& key, const Bytes& message);

}  // namespace discfs

#endif  // DISCFS_SRC_CRYPTO_POLY1305_H_
