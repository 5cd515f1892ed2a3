#include "src/keynote/sigcache.h"

#include <functional>

#include "src/crypto/sha.h"

namespace discfs::keynote {
namespace {

size_t FloorPow2(size_t x) {
  size_t p = 1;
  while (p * 2 <= x) {
    p *= 2;
  }
  return p;
}

size_t DefaultShards(size_t capacity) {
  if (capacity < 64) {
    return 1;
  }
  size_t shards = FloorPow2(capacity / 32);
  return shards > 16 ? 16 : shards;
}

void AppendDelimited(Bytes& out, const uint8_t* data, size_t len) {
  for (int i = 3; i >= 0; --i) {
    out.push_back(static_cast<uint8_t>(len >> (8 * i)));
  }
  out.insert(out.end(), data, data + len);
}

}  // namespace

VerifiedSignatureCache::VerifiedSignatureCache(size_t capacity)
    : capacity_(capacity) {
  size_t shards = DefaultShards(capacity);
  per_shard_capacity_ = capacity / shards;
  if (capacity > 0 && per_shard_capacity_ == 0) {
    per_shard_capacity_ = 1;
  }
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

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

VerifiedSignatureCache::Shard& VerifiedSignatureCache::ShardFor(
    const std::string& key) {
  return *shards_[std::hash<std::string>()(key) % shards_.size()];
}

bool VerifiedSignatureCache::Contains(const Bytes& key) {
  std::string k(key.begin(), key.end());
  Shard& shard = ShardFor(k);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(k);
  if (it == shard.entries.end()) {
    ++shard.stats.misses;
    return false;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  ++shard.stats.hits;
  return true;
}

void VerifiedSignatureCache::Insert(const Bytes& key) {
  if (capacity_ == 0) {
    return;
  }
  std::string k(key.begin(), key.end());
  Shard& shard = ShardFor(k);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(k);
  if (it != shard.entries.end()) {
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  while (shard.entries.size() >= per_shard_capacity_ &&
         !shard.entries.empty()) {
    shard.entries.erase(shard.lru.back());
    shard.lru.pop_back();
    ++shard.stats.evictions;
  }
  shard.lru.push_front(k);
  shard.entries.emplace(std::move(k), shard.lru.begin());
}

size_t VerifiedSignatureCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->entries.size();
  }
  return total;
}

VerifiedSignatureCache::Stats VerifiedSignatureCache::stats() const {
  Stats total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total.hits += shard->stats.hits;
    total.misses += shard->stats.misses;
    total.evictions += shard->stats.evictions;
  }
  return total;
}

}  // namespace discfs::keynote
