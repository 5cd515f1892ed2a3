// Finite-field Diffie-Hellman over the order-q subgroup of a DSA group.
// Used by the secure-channel handshake (the IKE stand-in): each side sends a
// DSA-signed ephemeral public value; the shared secret feeds HKDF.
//
// A pair takes its group's GroupContext (groups.h) once, at construction:
// PublicValue raises g through the group's comb, and SharedSecret's two
// exponentiations (the subgroup check y^q and the secret y^x) use the
// group's Montgomery context by 4-bit windows. A group without a context
// takes the generic BigNum::ModExp.
#ifndef DISCFS_SRC_CRYPTO_DH_H_
#define DISCFS_SRC_CRYPTO_DH_H_

#include <functional>
#include <memory>

#include "src/crypto/bignum.h"
#include "src/crypto/groups.h"
#include "src/util/bytes.h"
#include "src/util/status.h"

namespace discfs {

class DhKeyPair {
 public:
  static DhKeyPair Generate(const DsaParams& params,
                            const std::function<Bytes(size_t)>& rand_bytes);

  // Wraps an existing secret exponent (e.g. a DSA private key's x, whose
  // public value y = g^x is exactly a DH public value). The key-wrap
  // primitive uses this to unwrap against an ephemeral sender value.
  static DhKeyPair FromSecret(DsaParams params, BigNum x) {
    return DhKeyPair(std::move(params), std::move(x));
  }

  // Public value g^x mod p, fixed-width big-endian (width of p).
  Bytes PublicValue() const;

  // Computes (peer_public)^x mod p, after validating that the peer value is
  // in range and lies in the order-q subgroup (rejects small-subgroup
  // confinement). Returns the fixed-width shared secret.
  Result<Bytes> SharedSecret(const Bytes& peer_public) const;

  const DsaParams& params() const { return params_; }

 private:
  DhKeyPair(DsaParams params, BigNum x)
      : params_(std::move(params)),
        x_(std::move(x)),
        group_(GetGroupContext(params_)) {}

  // base^e mod p on the group's context when it has one.
  BigNum Pow(const BigNum& base, const BigNum& e) const;

  DsaParams params_;
  BigNum x_;
  std::shared_ptr<const GroupContext> group_;  // null: generic ModExp
};

}  // namespace discfs

#endif  // DISCFS_SRC_CRYPTO_DH_H_
