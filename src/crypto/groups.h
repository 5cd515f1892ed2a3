// DSA/DH domain parameters (p, q, g): p prime, q a 160-bit prime dividing
// p-1, g a generator of the order-q subgroup of Z_p*.
//
// The embedded production group (1024/160, matching the paper's era and the
// "dsa-hex" credentials in its Figure 5) and the small test group (512/160)
// were generated by tools/dsagen using the Miller-Rabin implementation in
// this repository; tests re-verify primality and the subgroup relations.
#ifndef DISCFS_SRC_CRYPTO_GROUPS_H_
#define DISCFS_SRC_CRYPTO_GROUPS_H_

#include <functional>
#include <memory>

#include "src/crypto/bignum.h"
#include "src/util/status.h"

namespace discfs {

struct DsaParams {
  BigNum p;  // field prime
  BigNum q;  // subgroup order, q | p-1
  BigNum g;  // subgroup generator

  bool operator==(const DsaParams& o) const {
    return p == o.p && q == o.q && g == o.g;
  }
};

// The default 1024/160 group (lazy-parsed from embedded constants).
const DsaParams& Dsa1024();

// A 512/160 group for fast unit tests.
const DsaParams& Dsa512();

// Generates fresh parameters: |p| = pbits, |q| = qbits. `rand_bytes` supplies
// randomness. Used by tools/dsagen and the self-check tests.
DsaParams GenerateDsaParams(size_t pbits, size_t qbits,
                            const std::function<Bytes(size_t)>& rand_bytes);

// Structural validation: p,q prime (Miller-Rabin via rand_bytes), q | p-1,
// g^q == 1 mod p, g != 1.
Status ValidateDsaParams(const DsaParams& params,
                         const std::function<Bytes(size_t)>& rand_bytes);

// Arithmetic for one group, built once and shared by every key in it: a
// Montgomery context for p and a Lim-Lee comb for g sized by |q|
// (MontgomeryCtx::kCombRows rows). DSA key generation and signing and DH
// public values raise g through the comb; DH's y^q and y^x, and DSA
// verify contexts, reuse the Montgomery context. Immutable; safe to share
// across threads.
class GroupContext {
 public:
  // The widest p a context is built for. Wider (or even) groups take the
  // generic BigNum::ModExp path, so the caches' memory stays bounded.
  static constexpr size_t kMaxPBits = 4096;

  // Fails unless p is odd, 1 < p < 2^kMaxPBits and 0 < |q| <= |p|.
  static Result<GroupContext> Create(const DsaParams& params);

  const DsaParams& params() const { return params_; }
  const MontgomeryCtx& mont_p() const { return mont_p_; }
  const MontgomeryCtx::Comb& g_comb() const { return g_comb_; }

  // g^e mod p through the comb (exponents past |q| bits take windows).
  BigNum PowG(const BigNum& e) const { return mont_p_.ModExp(g_comb_, e); }

 private:
  GroupContext(DsaParams params, MontgomeryCtx mont_p);

  DsaParams params_;
  MontgomeryCtx mont_p_;
  MontgomeryCtx::Comb g_comb_;
};

// The process-wide context for `params`, built on first use. An LRU of
// kGroupContextCacheSize groups keyed by the SHA-256 of (p, q, g); a
// context stays alive while a key or verify context holds it. Null when
// GroupContext::Create fails.
inline constexpr size_t kGroupContextCacheSize = 16;
std::shared_ptr<const GroupContext> GetGroupContext(const DsaParams& params);
// How many contexts that cache holds now.
size_t CachedGroupContexts();

}  // namespace discfs

#endif  // DISCFS_SRC_CRYPTO_GROUPS_H_
