#include "src/crypto/aead.h"

#include <cassert>

#include "src/crypto/chacha20.h"
#include "src/crypto/poly1305.h"

namespace discfs {
namespace {

// Keys the one-time MAC with the first half of keystream block 0 and
// absorbs aad || pad16; the message itself is enciphered from block 1.
Poly1305 StartMac(const ChaCha20& cipher, const uint8_t* aad,
                  size_t aad_len) {
  uint8_t block0[ChaCha20::kBlockSize];
  cipher.KeystreamBlock(0, block0);
  Poly1305 mac(block0);
  mac.Update(aad, aad_len);
  mac.PadTo16();
  return mac;
}

// Absorbs ciphertext || pad16 || le64(aad_len) || le64(len), writes the tag.
void FinishMac(Poly1305& mac, const uint8_t* ciphertext, size_t len,
               size_t aad_len, uint8_t tag[Aead::kTagSize]) {
  mac.Update(ciphertext, len);
  mac.PadTo16();
  uint8_t lengths[16];
  for (int i = 0; i < 8; ++i) {
    lengths[i] = static_cast<uint8_t>(uint64_t{aad_len} >> 8 * i);
    lengths[8 + i] = static_cast<uint8_t>(uint64_t{len} >> 8 * i);
  }
  mac.Update(lengths, sizeof(lengths));
  mac.Final(tag);
}

}  // namespace

Aead::Aead(Bytes key) : key_(std::move(key)) {
  assert(key_.size() == kKeySize);
}

void Aead::Seal(const uint8_t* nonce, const uint8_t* aad, size_t aad_len,
                const uint8_t* in, size_t len, uint8_t* out) const {
  ChaCha20 cipher(key_.data(), nonce, /*counter=*/1);
  Poly1305 mac = StartMac(cipher, aad, aad_len);
  cipher.Crypt(in, out, len);
  FinishMac(mac, out, len, aad_len, out + len);
}

Status Aead::Open(const uint8_t* nonce, const uint8_t* aad, size_t aad_len,
                  const uint8_t* in, size_t len, uint8_t* out) const {
  if (len < kTagSize) {
    return UnauthenticatedError("AEAD record too short");
  }
  len -= kTagSize;
  ChaCha20 cipher(key_.data(), nonce, /*counter=*/1);
  Poly1305 mac = StartMac(cipher, aad, aad_len);
  uint8_t expected[kTagSize];
  FinishMac(mac, in, len, aad_len, expected);
  if (!ConstantTimeEqual(expected, in + len, kTagSize)) {
    return UnauthenticatedError("AEAD tag mismatch");
  }
  cipher.Crypt(in, out, len);
  return OkStatus();
}

Bytes Aead::Seal(const Bytes& nonce, const Bytes& aad,
                 const Bytes& plaintext) const {
  assert(nonce.size() == kNonceSize);
  Bytes out(plaintext.size() + kTagSize);
  Seal(nonce.data(), aad.data(), aad.size(), plaintext.data(),
       plaintext.size(), out.data());
  return out;
}

Result<Bytes> Aead::Open(const Bytes& nonce, const Bytes& aad,
                         const Bytes& ciphertext_and_tag) const {
  if (nonce.size() != kNonceSize) {
    return InvalidArgumentError("AEAD nonce is not 12 bytes");
  }
  const size_t len = ciphertext_and_tag.size();
  Bytes plain(len < kTagSize ? 0 : len - kTagSize);
  RETURN_IF_ERROR(Open(nonce.data(), aad.data(), aad.size(),
                       ciphertext_and_tag.data(), len, plain.data()));
  return plain;
}

}  // namespace discfs
