// DSA signatures (FIPS 186 style) with deterministic per-message nonces
// (HMAC-SHA256-derived, in the spirit of RFC 6979). Every exponentiation
// in a group with a GroupContext (groups.h) runs on 64-bit Montgomery
// limbs and fixed-base combs: key generation and Sign raise g through the
// group's comb, Verify uses a per-key DsaVerifyContext, and both inverses
// mod q use BigNum::ModInverseBinary.
//
// KeyNote principals in DisCFS are DSA public keys; credentials carry
// "sig-dsa-sha1-hex:" signatures over their canonical body (RFC 2704).
#ifndef DISCFS_SRC_CRYPTO_DSA_H_
#define DISCFS_SRC_CRYPTO_DSA_H_

#include <memory>
#include <string>

#include "src/crypto/bignum.h"
#include "src/crypto/groups.h"
#include "src/util/bytes.h"
#include "src/util/status.h"

namespace discfs {

struct DsaSignature {
  BigNum r;
  BigNum s;
};

class DsaPublicKey;

// Precomputed verification state for one public key: its group's
// context (the Montgomery context for p and the comb for g) plus a comb
// of the same shape for y. Verify computes g^u1 * y^u2 over one shared
// chain of about |q| / kCombRows squarings: at 1024/160 that is 26
// squarings and about 53 multiplies. Building the y comb costs about 192
// multiplies, so a context pays for itself from the second verify under
// its key. Immutable after construction; safe to share across threads.
class DsaVerifyContext {
 public:
  // Fails when the key's group has no GroupContext (an even p, a p wider
  // than GroupContext::kMaxPBits, or a q that is zero or wider than p);
  // callers fall back to the generic verify path.
  static Result<DsaVerifyContext> Create(const DsaPublicKey& key);

  bool Verify(const Bytes& digest, const DsaSignature& sig) const;

 private:
  explicit DsaVerifyContext(std::shared_ptr<const GroupContext> group)
      : group_(std::move(group)) {}

  std::shared_ptr<const GroupContext> group_;
  MontgomeryCtx::Comb y_comb_;
};

// Process-wide cache of verify contexts: an LRU of kVerifyContextCacheSize
// keys over ShardCount(size, 32) shards, keyed by the SHA-256 of the key's
// serialization. Lazily builds on first use. Returns null when a context
// cannot be built for the key's parameters.
inline constexpr size_t kVerifyContextCacheSize = 256;
std::shared_ptr<const DsaVerifyContext> GetVerifyContext(
    const DsaPublicKey& key);
// How many contexts that cache holds now.
size_t CachedVerifyContexts();

class DsaPublicKey {
 public:
  DsaPublicKey() = default;
  DsaPublicKey(DsaParams params, BigNum y)
      : params_(std::move(params)), y_(std::move(y)) {}

  const DsaParams& params() const { return params_; }
  const BigNum& y() const { return y_; }

  // `digest` is the message hash (SHA-1 for the classic encoding).
  bool Verify(const Bytes& digest, const DsaSignature& sig) const;

  // Serialization: length-prefixed big-endian (p, q, g, y).
  Bytes Serialize() const;
  static Result<DsaPublicKey> Deserialize(const Bytes& data);

  // KeyNote principal encoding: "dsa-hex:<hex of Serialize()>".
  std::string ToKeyNoteString() const;
  static Result<DsaPublicKey> FromKeyNoteString(std::string_view s);

  // Short stable identifier (hex SHA-256 prefix) for logs and indexes.
  std::string KeyId() const;

  bool operator==(const DsaPublicKey& o) const {
    return params_ == o.params_ && y_ == o.y_;
  }

 private:
  DsaParams params_;
  BigNum y_;
};

class DsaPrivateKey {
 public:
  DsaPrivateKey() = default;
  DsaPrivateKey(DsaParams params, BigNum x);

  // Generates a key pair in `params` using `rand_bytes` for the secret.
  static DsaPrivateKey Generate(const DsaParams& params,
                                const std::function<Bytes(size_t)>& rand_bytes);

  const DsaPublicKey& public_key() const { return public_key_; }

  // The raw secret exponent (already present in Serialize() output); the
  // key-wrap primitive runs DH with it against an ephemeral sender value.
  const BigNum& x() const { return x_; }

  // k comes from HMAC-SHA256(x, digest), so a signature is a function of
  // the key and digest alone. g^k is raised through the group's comb.
  DsaSignature Sign(const Bytes& digest) const;

  // Key-file serialization: length-prefixed (p, q, g, x). Treat the bytes
  // as a secret.
  Bytes Serialize() const;
  static Result<DsaPrivateKey> Deserialize(const Bytes& data);

 private:
  // g^e mod p, through the group's comb when the group has a context.
  BigNum PowG(const BigNum& e) const;

  DsaParams params_;
  BigNum x_;
  DsaPublicKey public_key_;
  std::shared_ptr<const GroupContext> group_;  // null: generic ModExp
};

// Signature wire form used in credentials: r || s, each padded to the byte
// width of q; "sig-dsa-sha1-hex:<hex>".
Bytes SerializeDsaSignature(const DsaSignature& sig, const DsaParams& params);
Result<DsaSignature> DeserializeDsaSignature(const Bytes& data,
                                             const DsaParams& params);

}  // namespace discfs

#endif  // DISCFS_SRC_CRYPTO_DSA_H_
