#include "src/crypto/dsa.h"

#include "src/crypto/hmac.h"
#include "src/crypto/sha.h"
#include "src/util/hex.h"
#include "src/util/lru.h"
#include "src/util/strings.h"

namespace discfs {
namespace {

constexpr char kKeyNotePrefix[] = "dsa-hex:";

void AppendLengthPrefixed(Bytes& out, const BigNum& n) {
  Bytes b = n.ToBytes();
  uint32_t len = static_cast<uint32_t>(b.size());
  out.push_back(static_cast<uint8_t>(len >> 24));
  out.push_back(static_cast<uint8_t>(len >> 16));
  out.push_back(static_cast<uint8_t>(len >> 8));
  out.push_back(static_cast<uint8_t>(len));
  Append(out, b);
}

Result<BigNum> ReadLengthPrefixed(const Bytes& data, size_t& off) {
  if (off + 4 > data.size()) {
    return InvalidArgumentError("truncated key encoding (length)");
  }
  uint32_t len = (static_cast<uint32_t>(data[off]) << 24) |
                 (static_cast<uint32_t>(data[off + 1]) << 16) |
                 (static_cast<uint32_t>(data[off + 2]) << 8) |
                 static_cast<uint32_t>(data[off + 3]);
  off += 4;
  if (off + len > data.size()) {
    return InvalidArgumentError("truncated key encoding (body)");
  }
  Bytes b(data.begin() + static_cast<ptrdiff_t>(off),
          data.begin() + static_cast<ptrdiff_t>(off + len));
  off += len;
  return BigNum::FromBytes(b);
}

// Reduces a digest to an integer of at most |q| bits (FIPS 186 leftmost-bits
// truncation).
BigNum DigestToBigNum(const Bytes& digest, const BigNum& q) {
  BigNum z = BigNum::FromBytes(digest);
  size_t qbits = q.BitLength();
  size_t zbits = digest.size() * 8;
  if (zbits > qbits) {
    z = BigNum::ShiftRight(z, zbits - qbits);
  }
  return z;
}

// Computes (u1, u2) from the digest and signature, rejecting malformed
// signatures. Shared by the context and generic paths.
bool ComputeVerifyExponents(const Bytes& digest, const DsaSignature& sig,
                            const BigNum& q, BigNum* u1, BigNum* u2) {
  if (sig.r.IsZero() || sig.s.IsZero() || sig.r >= q || sig.s >= q) {
    return false;
  }
  auto w_or = BigNum::ModInverseBinary(sig.s, q);
  if (!w_or.ok()) {
    return false;
  }
  const BigNum& w = w_or.value();
  BigNum z = DigestToBigNum(digest, q);
  *u1 = BigNum::ModMul(z, w, q);
  *u2 = BigNum::ModMul(sig.r, w, q);
  return true;
}

}  // namespace

Result<DsaVerifyContext> DsaVerifyContext::Create(const DsaPublicKey& key) {
  std::shared_ptr<const GroupContext> group = GetGroupContext(key.params());
  if (group == nullptr) {
    return InvalidArgumentError("no group context for the key's parameters");
  }
  DsaVerifyContext ctx(std::move(group));
  ctx.y_comb_ = ctx.group_->mont_p().BuildComb(
      key.y(), key.params().q.BitLength());
  return ctx;
}

bool DsaVerifyContext::Verify(const Bytes& digest,
                              const DsaSignature& sig) const {
  const BigNum& q = group_->params().q;
  BigNum u1, u2;
  if (!ComputeVerifyExponents(digest, sig, q, &u1, &u2)) {
    return false;
  }
  BigNum v = BigNum::Mod(
      group_->mont_p().ModExpDouble(group_->g_comb(), u1, y_comb_, u2), q);
  return BigNum::Compare(v, sig.r) == 0;
}

namespace {

using VerifyCache =
    ShardedLru<Sha256Digest, std::shared_ptr<const DsaVerifyContext>,
               Sha256Digest::Hash>;

VerifyCache& VerifyContexts() {
  static VerifyCache* cache = new VerifyCache(kVerifyContextCacheSize, 32);
  return *cache;
}

}  // namespace

size_t CachedVerifyContexts() { return VerifyContexts().size(); }

std::shared_ptr<const DsaVerifyContext> GetVerifyContext(
    const DsaPublicKey& key) {
  VerifyCache* cache = &VerifyContexts();
  Sha256 h;
  h.Update(key.Serialize());
  Sha256Digest id = h.FinishDigest();
  std::shared_ptr<const DsaVerifyContext> found;
  if (cache->Find(id, [&found](const auto& ctx) {
        found = ctx;
        return true;
      })) {
    return found;
  }
  // Built outside the cache's lock; of two racing builders, the first
  // insert wins and both return it.
  Result<DsaVerifyContext> built = DsaVerifyContext::Create(key);
  if (!built.ok()) {
    return nullptr;
  }
  return cache->Insert(
      id, std::make_shared<const DsaVerifyContext>(std::move(built).value()));
}

bool DsaPublicKey::Verify(const Bytes& digest, const DsaSignature& sig) const {
  if (std::shared_ptr<const DsaVerifyContext> ctx = GetVerifyContext(*this)) {
    return ctx->Verify(digest, sig);
  }
  // No group context (an even, too wide or malformed group): two generic
  // exponentiations, which fall back to the reference for even moduli.
  BigNum u1, u2;
  if (!ComputeVerifyExponents(digest, sig, params_.q, &u1, &u2)) {
    return false;
  }
  const BigNum& p = params_.p;
  BigNum v = BigNum::Mod(BigNum::ModMul(BigNum::ModExp(params_.g, u1, p),
                                        BigNum::ModExp(y_, u2, p), p),
                         params_.q);
  return BigNum::Compare(v, sig.r) == 0;
}

Bytes DsaPublicKey::Serialize() const {
  Bytes out;
  AppendLengthPrefixed(out, params_.p);
  AppendLengthPrefixed(out, params_.q);
  AppendLengthPrefixed(out, params_.g);
  AppendLengthPrefixed(out, y_);
  return out;
}

Result<DsaPublicKey> DsaPublicKey::Deserialize(const Bytes& data) {
  size_t off = 0;
  ASSIGN_OR_RETURN(BigNum p, ReadLengthPrefixed(data, off));
  ASSIGN_OR_RETURN(BigNum q, ReadLengthPrefixed(data, off));
  ASSIGN_OR_RETURN(BigNum g, ReadLengthPrefixed(data, off));
  ASSIGN_OR_RETURN(BigNum y, ReadLengthPrefixed(data, off));
  if (off != data.size()) {
    return InvalidArgumentError("trailing bytes in key encoding");
  }
  if (p.IsZero() || q.IsZero() || g.IsZero()) {
    return InvalidArgumentError("degenerate key parameters");
  }
  return DsaPublicKey(DsaParams{std::move(p), std::move(q), std::move(g)},
                      std::move(y));
}

std::string DsaPublicKey::ToKeyNoteString() const {
  return kKeyNotePrefix + HexEncode(Serialize());
}

Result<DsaPublicKey> DsaPublicKey::FromKeyNoteString(std::string_view s) {
  if (!StartsWith(s, kKeyNotePrefix)) {
    return InvalidArgumentError("principal is not a dsa-hex key");
  }
  ASSIGN_OR_RETURN(Bytes raw, HexDecode(s.substr(sizeof(kKeyNotePrefix) - 1)));
  return Deserialize(raw);
}

std::string DsaPublicKey::KeyId() const {
  return HexEncode(Sha256::Hash(Serialize())).substr(0, 16);
}

DsaPrivateKey::DsaPrivateKey(DsaParams params, BigNum x)
    : params_(params), x_(std::move(x)), group_(GetGroupContext(params_)) {
  public_key_ = DsaPublicKey(std::move(params), PowG(x_));
}

BigNum DsaPrivateKey::PowG(const BigNum& e) const {
  return group_ != nullptr ? group_->PowG(e)
                           : BigNum::ModExp(params_.g, e, params_.p);
}

DsaPrivateKey DsaPrivateKey::Generate(
    const DsaParams& params, const std::function<Bytes(size_t)>& rand_bytes) {
  // x uniform in [1, q-1].
  BigNum q_minus_1 = BigNum::Sub(params.q, BigNum(1));
  BigNum x = BigNum::Add(BigNum::RandomBelow(q_minus_1, rand_bytes), BigNum(1));
  return DsaPrivateKey(params, std::move(x));
}

Bytes DsaPrivateKey::Serialize() const {
  Bytes out;
  AppendLengthPrefixed(out, params_.p);
  AppendLengthPrefixed(out, params_.q);
  AppendLengthPrefixed(out, params_.g);
  AppendLengthPrefixed(out, x_);
  return out;
}

Result<DsaPrivateKey> DsaPrivateKey::Deserialize(const Bytes& data) {
  size_t off = 0;
  ASSIGN_OR_RETURN(BigNum p, ReadLengthPrefixed(data, off));
  ASSIGN_OR_RETURN(BigNum q, ReadLengthPrefixed(data, off));
  ASSIGN_OR_RETURN(BigNum g, ReadLengthPrefixed(data, off));
  ASSIGN_OR_RETURN(BigNum x, ReadLengthPrefixed(data, off));
  if (off != data.size()) {
    return InvalidArgumentError("trailing bytes in private key encoding");
  }
  if (x.IsZero() || BigNum::Compare(x, q) >= 0) {
    return InvalidArgumentError("private exponent out of range");
  }
  return DsaPrivateKey(DsaParams{std::move(p), std::move(q), std::move(g)},
                       std::move(x));
}

DsaSignature DsaPrivateKey::Sign(const Bytes& digest) const {
  const BigNum& q = params_.q;
  BigNum z = DigestToBigNum(digest, q);
  Bytes x_bytes = x_.ToBytes(q.ToBytes().size());

  for (uint8_t attempt = 0;; ++attempt) {
    // Deterministic nonce: k = HMAC-SHA256(x, digest || attempt) mod q.
    // Like RFC 6979, k depends only on the key and message, so no RNG
    // failure can leak x through nonce reuse.
    Bytes seed = digest;
    seed.push_back(attempt);
    Bytes k_material = HmacSha256(x_bytes, seed);
    Append(k_material, HmacSha256(x_bytes, k_material));
    BigNum k = BigNum::Mod(BigNum::FromBytes(k_material), q);
    if (k.IsZero()) {
      continue;
    }
    BigNum r = BigNum::Mod(PowG(k), q);
    if (r.IsZero()) {
      continue;
    }
    auto k_inv = BigNum::ModInverseBinary(k, q);
    if (!k_inv.ok()) {
      continue;
    }
    BigNum s = BigNum::ModMul(
        k_inv.value(), BigNum::Mod(BigNum::Add(z, BigNum::Mul(x_, r)), q), q);
    if (s.IsZero()) {
      continue;
    }
    return DsaSignature{std::move(r), std::move(s)};
  }
}

Bytes SerializeDsaSignature(const DsaSignature& sig, const DsaParams& params) {
  size_t width = params.q.ToBytes().size();
  Bytes out = sig.r.ToBytes(width);
  Bytes s = sig.s.ToBytes(width);
  Append(out, s);
  return out;
}

Result<DsaSignature> DeserializeDsaSignature(const Bytes& data,
                                             const DsaParams& params) {
  size_t width = params.q.ToBytes().size();
  if (data.size() != 2 * width) {
    return InvalidArgumentError("bad DSA signature length");
  }
  Bytes r_bytes(data.begin(), data.begin() + static_cast<ptrdiff_t>(width));
  Bytes s_bytes(data.begin() + static_cast<ptrdiff_t>(width), data.end());
  return DsaSignature{BigNum::FromBytes(r_bytes), BigNum::FromBytes(s_bytes)};
}

}  // namespace discfs
