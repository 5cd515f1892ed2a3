#include "src/blockdev/block_cache.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "src/obs/metrics.h"
#include "src/util/strings.h"

namespace discfs {
namespace {

// Blocks per shard, at least.
constexpr size_t kMinPerShard = 64;

}  // namespace

BlockCache::BlockCache(std::shared_ptr<BlockDevice> base,
                       BlockCacheOptions opts)
    : base_(std::move(base)), opts_(opts), block_size_(base_->block_size()) {
  if (opts_.capacity_blocks < 8) opts_.capacity_blocks = 8;
  size_t shards = ShardCount(opts_.capacity_blocks, kMinPerShard);
  shard_mask_ = shards - 1;
  shard_capacity_ = opts_.capacity_blocks / shards;
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

Status BlockCache::GetEntryLocked(Shard& shard, uint64_t block,
                                  bool fill_from_device, Entry** out) {
  if (Entry* hit = shard.lru.Find(block)) {
    cache_stats_.hits.fetch_add(1, std::memory_order_relaxed);
    *out = hit;
    return OkStatus();
  }
  cache_stats_.misses.fetch_add(1, std::memory_order_relaxed);
  if (shard.lru.size() < shard_capacity_) {
    std::vector<uint8_t> data(block_size_);
    if (fill_from_device) {
      RETURN_IF_ERROR(base_->Read(block, data.data()));
    }
    *out = &shard.lru.Insert(block, Entry{std::move(data)});
    return OkStatus();
  }
  // A full shard: the coldest entry, written back if dirty, becomes the
  // new block's, buffer and nodes included.
  auto [victim, cold] = shard.lru.Coldest();
  if (cold.dirty) {
    RETURN_IF_ERROR(WritebackLocked(victim, cold));
  }
  Entry& entry = shard.lru.RekeyColdest(block);
  cache_stats_.evictions.fetch_add(1, std::memory_order_relaxed);
  if (fill_from_device) {
    Status st = base_->Read(block, entry.data.data());
    if (!st.ok()) {
      shard.lru.Erase(block);
      return st;
    }
  }
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

Status BlockCache::WriteBackAll() {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    Status st;
    shard.lru.ForEachColdestFirst([&](uint64_t block, Entry& entry) {
      if (st.ok() && entry.dirty) {
        st = WritebackLocked(block, entry);
      }
      return false;
    });
    RETURN_IF_ERROR(st);
  }
  return OkStatus();
}

Status BlockCache::Sync() {
  RETURN_IF_ERROR(WriteBackAll());
  cache_stats_.sync_flushes.fetch_add(1, std::memory_order_relaxed);
  return OkStatus();
}

size_t BlockCache::DropDirty() {
  size_t dropped = 0;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    dropped += shard.lru.ForEachColdestFirst(
        [](uint64_t, const Entry& entry) { return entry.dirty; });
  }
  dirty_count_.fetch_sub(dropped, std::memory_order_relaxed);
  cache_stats_.dropped_dirty.fetch_add(dropped, std::memory_order_relaxed);
  return dropped;
}

size_t BlockCache::cached_blocks() const {
  size_t total = 0;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.lru.size();
  }
  return total;
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
    (void)WriteBackAll();
    lock.lock();
  }
}

}  // namespace discfs
