#include "src/blockdev/block_cache.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "src/obs/metrics.h"
#include "src/util/strings.h"

namespace discfs {
namespace {

// ~64 blocks per shard, power of two, at most 16 shards; one shard for
// small capacities (same sizing rule as the signature cache).
size_t DeriveShards(size_t capacity_blocks) {
  size_t shards = 1;
  while (shards < 16 && capacity_blocks / (shards * 2) >= 64) shards *= 2;
  return shards;
}

}  // namespace

BlockCache::BlockCache(std::shared_ptr<BlockDevice> base,
                       BlockCacheOptions opts)
    : base_(std::move(base)), opts_(opts), block_size_(base_->block_size()) {
  if (opts_.capacity_blocks < 8) opts_.capacity_blocks = 8;
  size_t shards = DeriveShards(opts_.capacity_blocks);
  shard_mask_ = shards - 1;
  shard_capacity_ = std::max<size_t>(4, opts_.capacity_blocks / shards);
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (opts_.flush_watermark == 0) {
    opts_.flush_watermark = std::max<size_t>(1, opts_.capacity_blocks / 4);
  }
  if (opts_.flusher_thread) {
    flusher_ = std::thread([this] { FlusherMain(); });
  }
}

BlockCache::~BlockCache() {
  (void)Sync();
  if (flusher_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(flusher_mu_);
      stop_flusher_ = true;
    }
    flusher_cv_.notify_all();
    flusher_.join();
  }
}

void BlockCache::TouchLocked(Shard& shard, uint64_t block, Entry& entry) {
  shard.lru.erase(entry.lru_it);
  shard.lru.push_front(block);
  entry.lru_it = shard.lru.begin();
}

Status BlockCache::WritebackLocked(uint64_t block, Entry& entry) {
  Status st = base_->Write(block, entry.data.data());
  if (!st.ok()) {
    return st;
  }
  entry.dirty = false;
  dirty_count_.fetch_sub(1, std::memory_order_relaxed);
  cache_stats_.writebacks.fetch_add(1, std::memory_order_relaxed);
  return OkStatus();
}

Status BlockCache::EvictIfFullLocked(Shard& shard) {
  while (shard.map.size() >= shard_capacity_) {
    uint64_t victim = shard.lru.back();
    auto it = shard.map.find(victim);
    if (it->second.dirty) {
      Status st = WritebackLocked(victim, it->second);
      if (!st.ok()) {
        return st;
      }
    }
    shard.lru.pop_back();
    shard.map.erase(it);
    cache_stats_.evictions.fetch_add(1, std::memory_order_relaxed);
  }
  return OkStatus();
}

Status BlockCache::GetEntryLocked(Shard& shard, uint64_t block,
                                  bool fill_from_device, Entry** out) {
  auto it = shard.map.find(block);
  if (it != shard.map.end()) {
    cache_stats_.hits.fetch_add(1, std::memory_order_relaxed);
    TouchLocked(shard, block, it->second);
    *out = &it->second;
    return OkStatus();
  }
  cache_stats_.misses.fetch_add(1, std::memory_order_relaxed);
  Status st = EvictIfFullLocked(shard);
  if (!st.ok()) {
    return st;
  }
  Entry& entry = shard.map[block];
  entry.data.resize(block_size_);
  if (fill_from_device) {
    st = base_->Read(block, entry.data.data());
    if (!st.ok()) {
      shard.map.erase(block);
      return st;
    }
  }
  shard.lru.push_front(block);
  entry.lru_it = shard.lru.begin();
  *out = &entry;
  return OkStatus();
}

Status BlockCache::Read(uint64_t block, uint8_t* buf) {
  if (block >= base_->block_count()) {
    return OutOfRangeError(StrPrintf("cache read past device end: block %llu",
                                     static_cast<unsigned long long>(block)));
  }
  Shard& shard = ShardFor(block);
  std::lock_guard<std::mutex> lock(shard.mu);
  Entry* entry = nullptr;
  Status st = GetEntryLocked(shard, block, /*fill_from_device=*/true, &entry);
  if (!st.ok()) {
    return st;
  }
  std::memcpy(buf, entry->data.data(), block_size_);
  return OkStatus();
}

Status BlockCache::Write(uint64_t block, const uint8_t* buf) {
  if (block >= base_->block_count()) {
    return OutOfRangeError(StrPrintf("cache write past device end: block %llu",
                                     static_cast<unsigned long long>(block)));
  }
  {
    Shard& shard = ShardFor(block);
    std::lock_guard<std::mutex> lock(shard.mu);
    Entry* entry = nullptr;
    // Full-block overwrite: no need to read the old contents on miss.
    Status st =
        GetEntryLocked(shard, block, /*fill_from_device=*/false, &entry);
    if (!st.ok()) {
      return st;
    }
    std::memcpy(entry->data.data(), buf, block_size_);
    if (!entry->dirty) {
      entry->dirty = true;
      dirty_count_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (dirty_count_.load(std::memory_order_relaxed) >= opts_.flush_watermark) {
    flusher_cv_.notify_one();
  }
  return OkStatus();
}

Status BlockCache::Modify(uint64_t block,
                          const std::function<void(uint8_t*)>& fn) {
  if (block >= base_->block_count()) {
    return OutOfRangeError(StrPrintf("cache modify past device end: block %llu",
                                     static_cast<unsigned long long>(block)));
  }
  {
    Shard& shard = ShardFor(block);
    std::lock_guard<std::mutex> lock(shard.mu);
    Entry* entry = nullptr;
    Status st = GetEntryLocked(shard, block, /*fill_from_device=*/true, &entry);
    if (!st.ok()) {
      return st;
    }
    fn(entry->data.data());
    if (!entry->dirty) {
      entry->dirty = true;
      dirty_count_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (dirty_count_.load(std::memory_order_relaxed) >= opts_.flush_watermark) {
    flusher_cv_.notify_one();
  }
  return OkStatus();
}

Status BlockCache::Sync() {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto& [block, entry] : shard.map) {
      if (entry.dirty) {
        Status st = WritebackLocked(block, entry);
        if (!st.ok()) {
          return st;
        }
      }
    }
  }
  cache_stats_.sync_flushes.fetch_add(1, std::memory_order_relaxed);
  return OkStatus();
}

size_t BlockCache::DropDirty() {
  size_t dropped = 0;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.map.begin(); it != shard.map.end();) {
      if (it->second.dirty) {
        shard.lru.erase(it->second.lru_it);
        it = shard.map.erase(it);
        dirty_count_.fetch_sub(1, std::memory_order_relaxed);
        ++dropped;
      } else {
        ++it;
      }
    }
  }
  cache_stats_.dropped_dirty.fetch_add(dropped, std::memory_order_relaxed);
  return dropped;
}

size_t BlockCache::cached_blocks() const {
  size_t total = 0;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.map.size();
  }
  return total;
}

void BlockCache::ResetCacheStats() {
  cache_stats_.hits.store(0, std::memory_order_relaxed);
  cache_stats_.misses.store(0, std::memory_order_relaxed);
  cache_stats_.evictions.store(0, std::memory_order_relaxed);
  cache_stats_.writebacks.store(0, std::memory_order_relaxed);
  cache_stats_.readaheads.store(0, std::memory_order_relaxed);
  cache_stats_.sync_flushes.store(0, std::memory_order_relaxed);
  cache_stats_.dropped_dirty.store(0, std::memory_order_relaxed);
}

void BlockCache::RegisterMetrics(obs::MetricsRegistry* registry) {
  registry->RegisterGauge(
      "discfs_block_cache", "Block cache counters by kind", [this] {
        auto load = [](const std::atomic<uint64_t>& v) {
          return static_cast<double>(v.load(std::memory_order_relaxed));
        };
        return std::vector<obs::GaugeSample>{
            {"kind=\"hits\"", load(cache_stats_.hits)},
            {"kind=\"misses\"", load(cache_stats_.misses)},
            {"kind=\"evictions\"", load(cache_stats_.evictions)},
            {"kind=\"writebacks\"", load(cache_stats_.writebacks)},
            {"kind=\"sync_flushes\"", load(cache_stats_.sync_flushes)},
            {"kind=\"dropped_dirty\"", load(cache_stats_.dropped_dirty)},
        };
      });
  registry->RegisterGauge("discfs_block_cache_dirty_blocks",
                          "Dirty blocks awaiting write-back", [this] {
                            return std::vector<obs::GaugeSample>{
                                {"", static_cast<double>(dirty_blocks())}};
                          });
  registry->RegisterGauge("discfs_block_cache_cached_blocks",
                          "Resident cached blocks across all shards", [this] {
                            return std::vector<obs::GaugeSample>{
                                {"", static_cast<double>(cached_blocks())}};
                          });
}

Status BlockCache::FlushSome(size_t max_blocks, uint64_t* flushed) {
  uint64_t done = 0;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    // Flush least-recently-used dirty blocks first: hot blocks likely
    // get dirtied again, so flushing them early wastes device writes.
    for (auto it = shard.lru.rbegin();
         it != shard.lru.rend() && done < max_blocks; ++it) {
      auto& entry = shard.map.at(*it);
      if (!entry.dirty) {
        continue;
      }
      Status st = WritebackLocked(*it, entry);
      if (!st.ok()) {
        return st;
      }
      ++done;
    }
    if (done >= max_blocks) {
      break;
    }
  }
  if (flushed != nullptr) {
    *flushed = done;
  }
  return OkStatus();
}

void BlockCache::FlusherMain() {
  std::unique_lock<std::mutex> lock(flusher_mu_);
  while (!stop_flusher_) {
    auto woken = [this] {
      return stop_flusher_ ||
             dirty_count_.load(std::memory_order_relaxed) >=
                 opts_.flush_watermark;
    };
    if (opts_.flush_interval_ms > 0) {
      flusher_cv_.wait_for(
          lock, std::chrono::milliseconds(opts_.flush_interval_ms), woken);
    } else {
      flusher_cv_.wait(lock, woken);
    }
    if (stop_flusher_) {
      return;
    }
    lock.unlock();
    (void)FlushSome(~0ULL, nullptr);
    lock.lock();
  }
}

}  // namespace discfs
