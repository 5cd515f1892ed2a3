// ChaCha20-Poly1305 AEAD (RFC 8439 §2.8). This is the per-record transform
// of the secure channel, standing in for the paper's IPsec ESP.
#ifndef DISCFS_SRC_CRYPTO_AEAD_H_
#define DISCFS_SRC_CRYPTO_AEAD_H_

#include "src/util/bytes.h"
#include "src/util/status.h"

namespace discfs {

class Aead {
 public:
  static constexpr size_t kKeySize = 32;
  static constexpr size_t kNonceSize = 12;
  static constexpr size_t kTagSize = 16;

  // key must be kKeySize bytes.
  explicit Aead(Bytes key);

  // Encrypts `len` bytes of `in` and writes ciphertext || tag, len +
  // kTagSize bytes, to `out` (in == out allowed). `nonce` is kNonceSize
  // bytes. One ChaCha20 pass and one Poly1305 pass, no copies.
  void Seal(const uint8_t* nonce, const uint8_t* aad, size_t aad_len,
            const uint8_t* in, size_t len, uint8_t* out) const;

  // `in` holds `len` bytes of ciphertext || tag. Verifies the tag, then
  // writes the len - kTagSize plaintext bytes to `out` (in == out allowed);
  // `out` is untouched on failure. Fails with UNAUTHENTICATED on any
  // tampering of ciphertext, tag, nonce, or aad.
  Status Open(const uint8_t* nonce, const uint8_t* aad, size_t aad_len,
              const uint8_t* in, size_t len, uint8_t* out) const;

  // Buffer-returning forms of the above for small payloads (key wrap,
  // lockbox, tests). Seal's `nonce` must be kNonceSize bytes; Open fails
  // with INVALID_ARGUMENT on any other length.
  Bytes Seal(const Bytes& nonce, const Bytes& aad,
             const Bytes& plaintext) const;
  Result<Bytes> Open(const Bytes& nonce, const Bytes& aad,
                     const Bytes& ciphertext_and_tag) const;

 private:
  Bytes key_;
};

}  // namespace discfs

#endif  // DISCFS_SRC_CRYPTO_AEAD_H_
