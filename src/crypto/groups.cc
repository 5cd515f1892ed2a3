#include "src/crypto/groups.h"

#include <cassert>

#include "src/crypto/sha.h"
#include "src/util/lru.h"

namespace discfs {
namespace {

constexpr int kMillerRabinRounds = 24;

// Embedded parameters generated by tools/dsagen (see header). The hex
// placeholders below are replaced by the checked-in output of that tool;
// `tests/crypto_groups_test.cc` re-validates them with Miller-Rabin.
// DSAGEN_1024_BEGIN
const char kP1024[] =
    "d6ab885893369ae49ed23d4439712f95a5cc08d03dd628a7f3455f77c77f3d45fd7e1b20"
    "d898f4dc157b060745d140822e1c26739a92f7232b29f2e6a3c6d10b8c54f23f8385bb92"
    "626a0265cac639c3372454a2a71c06679d033039e713439997f94dd0de144dc040f7abeb"
    "7cdbdd5a408319e32a07f5418ea5f79ef4fca5df";
const char kQ1024[] =
    "f7ca0ba2e6a1d204f4791067630c6cc86edb2055";
const char kG1024[] =
    "3ef051d660c961f438b2499697ddbd402c9bbc93b7a8f3bf3c2f2c11175217dfa56f5af4"
    "5321361143b531b70c7a34aaf4482f1620a4990416f74bf335a441b587cd979384d35abc"
    "2c2393880ce2146696d4abbc7bb37ae292cdc1913410c84a5c226f4169b6b0baae5f862e"
    "05f7d6c824ef9fe7e9cd87df0381443ae06764dd";
// DSAGEN_1024_END
// DSAGEN_512_BEGIN
const char kP512[] =
    "bd9d9b2cc9bbb70564780d6cd002ba105e9491c6b471224100d2b2459e5944fe955ae162"
    "58e4edacba9489534bb5a06fdcc36f4f46797f4b74f846e2f37ed4fd";
const char kQ512[] =
    "ff7604b5fec92c8aa0078493f2c20678fd80c8d9";
const char kG512[] =
    "2af0a1760432458bd16a310e568338627822055b9009b44fbc36da6e316b85b0a8e62ad3"
    "85ee1bd468162ceea327263a0b7efcbbef6f872a148b87595e9f6862";
// DSAGEN_512_END

DsaParams ParseParams(const char* p, const char* q, const char* g) {
  auto pp = BigNum::FromHex(p);
  auto qq = BigNum::FromHex(q);
  auto gg = BigNum::FromHex(g);
  assert(pp.ok() && qq.ok() && gg.ok());
  return DsaParams{std::move(pp).value(), std::move(qq).value(),
                   std::move(gg).value()};
}

BigNum RandomInMillerRabinRange(const BigNum& n_minus_1,
                                const std::function<Bytes(size_t)>& rand) {
  // Uniform in [2, n-2].
  BigNum span = BigNum::Sub(n_minus_1, BigNum(2));  // n-3; values [0, n-3)
  BigNum r = BigNum::RandomBelow(span, rand);
  return BigNum::Add(r, BigNum(2));
}

// SHA-256 over length-prefixed p, q, g: the group cache's key.
Sha256Digest ParamsDigest(const DsaParams& params) {
  Sha256 h;
  for (const BigNum* n : {&params.p, &params.q, &params.g}) {
    Bytes b = n->ToBytes();
    const uint8_t len[4] = {
        static_cast<uint8_t>(b.size() >> 24),
        static_cast<uint8_t>(b.size() >> 16),
        static_cast<uint8_t>(b.size() >> 8), static_cast<uint8_t>(b.size())};
    h.Update(len, sizeof(len));
    h.Update(b);
  }
  return h.FinishDigest();
}

}  // namespace

GroupContext::GroupContext(DsaParams params, MontgomeryCtx mont_p)
    : params_(std::move(params)), mont_p_(std::move(mont_p)) {
  g_comb_ = mont_p_.BuildComb(params_.g, params_.q.BitLength());
}

Result<GroupContext> GroupContext::Create(const DsaParams& params) {
  if (params.p.BitLength() > kMaxPBits) {
    return InvalidArgumentError("group p is wider than a context allows");
  }
  if (params.q.IsZero() || params.q.BitLength() > params.p.BitLength()) {
    return InvalidArgumentError("group q is zero or wider than p");
  }
  ASSIGN_OR_RETURN(MontgomeryCtx mont_p, MontgomeryCtx::Create(params.p));
  return GroupContext(params, std::move(mont_p));
}

namespace {

using GroupCache = ShardedLru<Sha256Digest,
                              std::shared_ptr<const GroupContext>,
                              Sha256Digest::Hash>;

GroupCache& Groups() {
  static GroupCache* cache =
      new GroupCache(kGroupContextCacheSize, kGroupContextCacheSize);
  return *cache;
}

}  // namespace

size_t CachedGroupContexts() { return Groups().size(); }

std::shared_ptr<const GroupContext> GetGroupContext(const DsaParams& params) {
  GroupCache* cache = &Groups();
  Sha256Digest key = ParamsDigest(params);
  std::shared_ptr<const GroupContext> found;
  if (cache->Find(key, [&found](const auto& ctx) {
        found = ctx;
        return true;
      })) {
    return found;
  }
  // Built outside the cache's lock; of two racing builders, the first
  // insert wins and both return it.
  Result<GroupContext> built = GroupContext::Create(params);
  if (!built.ok()) {
    return nullptr;
  }
  return cache->Insert(
      key, std::make_shared<const GroupContext>(std::move(built).value()));
}

const DsaParams& Dsa1024() {
  static const DsaParams* params =
      new DsaParams(ParseParams(kP1024, kQ1024, kG1024));
  return *params;
}

const DsaParams& Dsa512() {
  static const DsaParams* params =
      new DsaParams(ParseParams(kP512, kQ512, kG512));
  return *params;
}

DsaParams GenerateDsaParams(size_t pbits, size_t qbits,
                            const std::function<Bytes(size_t)>& rand_bytes) {
  auto rand_below = [&rand_bytes](const BigNum& n_minus_1) {
    return RandomInMillerRabinRange(n_minus_1, rand_bytes);
  };

  // 1. Find a qbits-bit prime q.
  BigNum q;
  while (true) {
    Bytes raw = rand_bytes((qbits + 7) / 8);
    raw[0] |= static_cast<uint8_t>(0x80 >> ((8 - qbits % 8) % 8));  // top bit
    raw.back() |= 1;                                                // odd
    q = BigNum::FromBytes(raw);
    if (q.BitLength() == qbits &&
        BigNum::IsProbablePrime(q, kMillerRabinRounds, rand_below)) {
      break;
    }
  }

  // 2. Find p = 1 (mod 2q) with |p| = pbits, p prime.
  BigNum two_q = BigNum::ShiftLeft(q, 1);
  BigNum p;
  while (true) {
    Bytes raw = rand_bytes(pbits / 8);
    raw[0] |= 0x80;  // exactly pbits bits
    BigNum x = BigNum::FromBytes(raw);
    BigNum c = BigNum::Mod(x, two_q);
    // p = x - c + 1  ==>  p ≡ 1 (mod 2q)
    p = BigNum::Add(BigNum::Sub(x, c), BigNum(1));
    if (p.BitLength() != pbits) {
      continue;
    }
    if (BigNum::IsProbablePrime(p, kMillerRabinRounds, rand_below)) {
      break;
    }
  }

  // 3. g = h^((p-1)/q) mod p for the smallest h > 1 that gives g != 1.
  BigNum exponent = BigNum::DivMod(BigNum::Sub(p, BigNum(1)), q).first;
  BigNum g;
  for (uint64_t h = 2;; ++h) {
    g = BigNum::ModExp(BigNum(h), exponent, p);
    if (BigNum::Compare(g, BigNum(1)) != 0) {
      break;
    }
  }
  return DsaParams{std::move(p), std::move(q), std::move(g)};
}

Status ValidateDsaParams(const DsaParams& params,
                         const std::function<Bytes(size_t)>& rand_bytes) {
  auto rand_below = [&rand_bytes](const BigNum& n_minus_1) {
    return RandomInMillerRabinRange(n_minus_1, rand_bytes);
  };
  if (!BigNum::IsProbablePrime(params.p, kMillerRabinRounds, rand_below)) {
    return InvalidArgumentError("p is not prime");
  }
  if (!BigNum::IsProbablePrime(params.q, kMillerRabinRounds, rand_below)) {
    return InvalidArgumentError("q is not prime");
  }
  BigNum p_minus_1 = BigNum::Sub(params.p, BigNum(1));
  if (!BigNum::Mod(p_minus_1, params.q).IsZero()) {
    return InvalidArgumentError("q does not divide p-1");
  }
  if (BigNum::Compare(params.g, BigNum(1)) <= 0 ||
      BigNum::Compare(params.g, p_minus_1) >= 0) {
    return InvalidArgumentError("g out of range");
  }
  if (BigNum::Compare(BigNum::ModExp(params.g, params.q, params.p),
                      BigNum(1)) != 0) {
    return InvalidArgumentError("g^q != 1 mod p");
  }
  return OkStatus();
}

}  // namespace discfs
