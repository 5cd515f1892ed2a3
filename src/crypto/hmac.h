// HMAC-SHA256 (RFC 2104) plus HKDF (RFC 5869) for deriving the
// secure-channel session keys.
#ifndef DISCFS_SRC_CRYPTO_HMAC_H_
#define DISCFS_SRC_CRYPTO_HMAC_H_

#include <cstddef>

#include "src/crypto/sha.h"
#include "src/util/bytes.h"

namespace discfs {

// Generic HMAC over any hash with the streaming interface used by the
// Sha* classes.
template <typename Hash>
Bytes Hmac(const Bytes& key, const Bytes& message) {
  Bytes k = key;
  if (k.size() > Hash::kBlockSize) {
    k = Hash::Hash(k);
  }
  k.resize(Hash::kBlockSize, 0);
  Bytes ipad(Hash::kBlockSize);
  Bytes opad(Hash::kBlockSize);
  for (size_t i = 0; i < Hash::kBlockSize; ++i) {
    ipad[i] = static_cast<uint8_t>(k[i] ^ 0x36);
    opad[i] = static_cast<uint8_t>(k[i] ^ 0x5c);
  }
  Hash inner;
  inner.Update(ipad);
  inner.Update(message);
  Bytes inner_digest = inner.Finish();
  Hash outer;
  outer.Update(opad);
  outer.Update(inner_digest);
  return outer.Finish();
}

inline Bytes HmacSha256(const Bytes& key, const Bytes& msg) {
  return Hmac<Sha256>(key, msg);
}

// HKDF-SHA256.
Bytes HkdfExtract(const Bytes& salt, const Bytes& ikm);
Bytes HkdfExpand(const Bytes& prk, const Bytes& info, size_t length);
Bytes HkdfSha256(const Bytes& salt, const Bytes& ikm, const Bytes& info,
                 size_t length);

}  // namespace discfs

#endif  // DISCFS_SRC_CRYPTO_HMAC_H_
