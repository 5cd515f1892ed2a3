// The one LRU behind every cache: the policy cache, the verified-signature
// cache, Ffs's inode cache and the block cache.
//
//  * ShardCount(capacity, min_per_shard) is the one shard-count rule.
//  * Lru is a map kept in recency order: a std::list of entries, warmest
//    first, plus a hash index into it. It is unsynchronized; its owner
//    holds whatever lock guards it. A hit moves the entry to the front
//    with std::list::splice, which neither allocates nor frees; only
//    inserting a new key allocates (one list node, one index node).
//    RekeyColdest turns the coldest entry into a new key's warmest one,
//    reusing both nodes and the value, so a full cache can take a miss
//    without allocating.
//  * ShardedLru hashes keys over ShardCount(capacity, min_per_shard)
//    shards, each a mutex around an Lru holding capacity / shards entries,
//    so lookups of unrelated keys do not serialize on one lock, and a cache
//    too small for two shards keeps exact global LRU order. A shard
//    counts its hits, misses and evictions under its own lock; stats()
//    sums them. Capacity 0 caches nothing.
//
// The block cache uses Lru directly: it keeps its own shards, because it
// writes a dirty victim back to the device before evicting it.
#ifndef DISCFS_SRC_UTIL_LRU_H_
#define DISCFS_SRC_UTIL_LRU_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

namespace discfs {

// The largest power of two, at most 16, that leaves each shard at least
// `min_per_shard` of the `capacity` entries; 1 if even two shards would
// not.
inline size_t ShardCount(size_t capacity, size_t min_per_shard) {
  size_t shards = 1;
  while (shards < 16 && capacity / (shards * 2) >= min_per_shard) {
    shards *= 2;
  }
  return shards;
}

template <typename K, typename V, typename Hash = std::hash<K>>
class Lru {
 public:
  Lru() = default;
  // A copy's index would point into the source's list.
  Lru(const Lru&) = delete;
  Lru& operator=(const Lru&) = delete;

  size_t size() const { return index_.size(); }

  // The value under `key`, which becomes the warmest entry; nullptr if
  // `key` is absent.
  V* Find(const K& key) {
    auto it = index_.find(key);
    if (it == index_.end()) {
      return nullptr;
    }
    items_.splice(items_.begin(), items_, it->second);
    return &it->second->second;
  }

  // Adds `key`, which must be absent, as the warmest entry.
  V& Insert(K key, V value) {
    items_.emplace_front(key, std::move(value));
    index_.emplace(std::move(key), items_.begin());
    return items_.front().second;
  }

  // Removes `key`; false if it was absent.
  bool Erase(const K& key) {
    auto it = index_.find(key);
    if (it == index_.end()) {
      return false;
    }
    items_.erase(it->second);
    index_.erase(it);
    return true;
  }

  // The least recently used entry. The Lru must not be empty.
  std::pair<const K&, V&> Coldest() {
    return {items_.back().first, items_.back().second};
  }
  void PopColdest() {
    index_.erase(items_.back().first);
    items_.pop_back();
  }

  // Gives the coldest entry the key `key`, which must be absent, makes it
  // the warmest, and returns its value for the caller to refill. Reuses
  // the entry's list node, index node (unordered_map::extract) and value.
  // The Lru must not be empty.
  V& RekeyColdest(K key) {
    auto node = index_.extract(items_.back().first);
    items_.splice(items_.begin(), items_, node.mapped());
    items_.front().first = key;
    node.key() = std::move(key);
    index_.insert(std::move(node));
    return items_.front().second;
  }

  // Calls fn(key, value) on each entry, coldest first, and erases those
  // for which it returns true. The rest keep their order. Returns how
  // many were erased.
  template <typename Fn>
  size_t ForEachColdestFirst(Fn&& fn) {
    size_t erased = 0;
    for (auto it = items_.end(); it != items_.begin();) {
      --it;
      if (fn(it->first, it->second)) {
        index_.erase(it->first);
        it = items_.erase(it);
        ++erased;
      }
    }
    return erased;
  }

  void Clear() {
    index_.clear();
    items_.clear();
  }

 private:
  // The key is mutable only for RekeyColdest; the index holds a copy.
  using Item = std::pair<K, V>;
  std::list<Item> items_;  // front = most recently used
  std::unordered_map<K, typename std::list<Item>::iterator, Hash> index_;
};

struct LruStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
};

template <typename K, typename V, typename Hash = std::hash<K>>
class ShardedLru {
 public:
  ShardedLru(size_t capacity, size_t min_per_shard) {
    size_t shards = ShardCount(capacity, min_per_shard);
    per_shard_ = capacity / shards;
    shards_.reserve(shards);
    for (size_t i = 0; i < shards; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
  }

  // On a hit, runs use(value) under the shard lock; the value may be
  // changed in place. If `use` returns false the entry is dropped and the
  // lookup counts as a miss. Returns whether it was a hit. `use` may take
  // only locks that are never held around a call into this cache.
  template <typename Use>
  bool Find(const K& key, Use&& use) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    V* value = shard.lru.Find(key);
    if (value != nullptr) {
      if (use(*value)) {
        ++shard.stats.hits;
        return true;
      }
      shard.lru.Erase(key);
    }
    ++shard.stats.misses;
    return false;
  }

  // Stores `value` under `key` as the warmest entry, replacing a resident
  // value.
  void Put(K key, V value) {
    if (per_shard_ == 0) {
      return;
    }
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (V* resident = shard.lru.Find(key)) {
      *resident = std::move(value);
      return;
    }
    InsertLocked(shard, std::move(key), std::move(value));
  }

  // Stores `value` under `key` unless `key` is resident, and returns the
  // value now cached: a resident value wins. Either way the entry becomes
  // the warmest.
  V Insert(K key, V value) {
    if (per_shard_ == 0) {
      return value;
    }
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (V* resident = shard.lru.Find(key)) {
      return *resident;
    }
    return InsertLocked(shard, std::move(key), std::move(value));
  }

  // Drops every entry; returns how many there were.
  size_t Clear() {
    size_t dropped = 0;
    for (auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      dropped += shard->lru.size();
      shard->lru.Clear();
    }
    return dropped;
  }

  size_t size() const {
    size_t total = 0;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      total += shard->lru.size();
    }
    return total;
  }
  size_t shard_count() const { return shards_.size(); }

  LruStats stats() const {
    LruStats total;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      total.hits += shard->stats.hits;
      total.misses += shard->stats.misses;
      total.evictions += shard->stats.evictions;
    }
    return total;
  }

 private:
  struct Shard {
    std::mutex mu;
    Lru<K, V, Hash> lru;
    LruStats stats;
  };

  Shard& ShardFor(const K& key) {
    return *shards_[Hash()(key) & (shards_.size() - 1)];
  }

  // Requires shard.mu held and `key` absent.
  V& InsertLocked(Shard& shard, K key, V value) {
    while (shard.lru.size() >= per_shard_) {
      shard.lru.PopColdest();
      ++shard.stats.evictions;
    }
    return shard.lru.Insert(std::move(key), std::move(value));
  }

  size_t per_shard_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace discfs

#endif  // DISCFS_SRC_UTIL_LRU_H_
