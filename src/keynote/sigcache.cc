#include "src/keynote/sigcache.h"

#include "src/crypto/sha.h"

namespace discfs::keynote {
namespace {

// Entries per shard, at least.
constexpr size_t kMinPerShard = 32;

void AppendDelimited(Bytes& out, const uint8_t* data, size_t len) {
  for (int i = 3; i >= 0; --i) {
    out.push_back(static_cast<uint8_t>(len >> (8 * i)));
  }
  out.insert(out.end(), data, data + len);
}

}  // namespace

VerifiedSignatureCache::VerifiedSignatureCache(size_t capacity)
    : entries_(capacity, kMinPerShard) {}

Bytes VerifiedSignatureCache::MakeKey(const std::string& authorizer,
                                      const Bytes& digest,
                                      const std::string& signature) {
  Bytes material;
  material.reserve(12 + authorizer.size() + digest.size() + signature.size());
  AppendDelimited(material,
                  reinterpret_cast<const uint8_t*>(authorizer.data()),
                  authorizer.size());
  AppendDelimited(material, digest.data(), digest.size());
  AppendDelimited(material,
                  reinterpret_cast<const uint8_t*>(signature.data()),
                  signature.size());
  return Sha256::Hash(material);
}

bool VerifiedSignatureCache::Contains(const Bytes& key) {
  return entries_.Find(std::string(key.begin(), key.end()),
                       [](bool) { return true; });
}

void VerifiedSignatureCache::Insert(const Bytes& key) {
  entries_.Insert(std::string(key.begin(), key.end()), true);
}

}  // namespace discfs::keynote
