#include "src/keynote/sigcache.h"

namespace discfs::keynote {
namespace {

// Entries per shard, at least.
constexpr size_t kMinPerShard = 32;

}  // namespace

VerifiedSignatureCache::VerifiedSignatureCache(size_t capacity)
    : entries_(capacity, kMinPerShard) {}

bool VerifiedSignatureCache::Contains(const Sha256Digest& key) {
  return entries_.Find(key, [](bool) { return true; });
}

void VerifiedSignatureCache::Insert(const Sha256Digest& key) {
  entries_.Insert(key, true);
}

}  // namespace discfs::keynote
