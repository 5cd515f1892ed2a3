// Sharded write-back block cache.
//
// Sits between Ffs and a backing BlockDevice. N = ShardCount(capacity,
// 64) independent shards, each a mutex around an Lru (src/util/lru.h),
// so unrelated blocks never contend. Consecutive blocks map to the same
// shard in groups of 8 so a sequential scan stays on one shard lock for
// 8 blocks at a time. A read takes only its own shard's lock, and a miss
// reads exactly the block asked for.
//
// Write policy is write-back: Write()/Modify() dirty the cached copy
// without touching the device. Dirty blocks reach the device via
//   - eviction (the LRU victim is written back before its entry is
//     reused for the missed block),
//   - the background flusher (woken when dirty count crosses the
//     watermark, and on a periodic interval),
//   - Sync(), the durability barrier Ffs uses at metadata sync points.
// DropDirty() discards all un-flushed dirty blocks — a crash simulation
// seam for fsck tests; the device is left exactly as of the last flush.
//
// Modify(block, fn) runs a read-modify-write atomically under the shard
// lock on the authoritative cached copy. Ffs uses it for every sub-block
// update (inode table slots, bitmap bits, indirect pointers) so two
// threads patching different inodes in the same 4 KiB block cannot lose
// each other's update.
//
// Device I/O (miss fills, write-backs) happens while holding the shard
// lock: simple to reason about, TSAN-clean, and still concurrent across
// shards. See README.md in this directory for the full design notes.
#ifndef DISCFS_SRC_BLOCKDEV_BLOCK_CACHE_H_
#define DISCFS_SRC_BLOCKDEV_BLOCK_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/blockdev/blockdev.h"
#include "src/util/lru.h"
#include "src/util/status.h"

namespace discfs {

namespace obs {
class MetricsRegistry;
}  // namespace obs

struct BlockCacheOptions {
  // Total cached blocks across all shards, at least 8. The shard count
  // follows from it: ShardCount(capacity_blocks, 64).
  size_t capacity_blocks = 1024;
  // Flusher wakes when this many blocks are dirty. 0 = capacity/4.
  size_t flush_watermark = 0;
  // Periodic flush interval. 0 disables the periodic wakeup (the
  // flusher then only runs on watermark pressure).
  uint64_t flush_interval_ms = 200;
  // Run the background flusher thread at all. Tests that need exact
  // control over when write-back happens turn this off.
  bool flusher_thread = true;
};

struct BlockCacheStats {
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> misses{0};
  std::atomic<uint64_t> evictions{0};
  std::atomic<uint64_t> writebacks{0};
  // Always 0: no prefetch. Read by benchmark/ as blockdev.readaheads.
  std::atomic<uint64_t> readaheads{0};
  std::atomic<uint64_t> sync_flushes{0};
  std::atomic<uint64_t> dropped_dirty{0};
};

class BlockCache : public BlockDevice {
 public:
  BlockCache(std::shared_ptr<BlockDevice> base, BlockCacheOptions opts);
  // Flushes all dirty blocks and stops the flusher.
  ~BlockCache() override;

  uint32_t block_size() const override { return block_size_; }
  uint64_t block_count() const override { return base_->block_count(); }

  Status Read(uint64_t block, uint8_t* buf) override;
  // Full-block overwrite: installs the new contents dirty without
  // reading the device.
  Status Write(uint64_t block, const uint8_t* buf) override;

  // Atomic read-modify-write under the shard lock. `fn` receives the
  // cached block contents (filled from the device on miss) and may
  // mutate them in place; the block is marked dirty afterwards.
  Status Modify(uint64_t block, const std::function<void(uint8_t*)>& fn);

  // Durability barrier: writes every dirty block to the device. On
  // return all writes that happened-before the call are on the device.
  Status Sync();

  // Crash simulation: discards all dirty blocks without writing them.
  // Returns how many were dropped. The device then holds exactly the
  // image as of the last flush/Sync.
  size_t DropDirty();

  // Physical I/O counters (the backing device's).
  const BlockDeviceStats& stats() const override { return base_->stats(); }
  const BlockCacheStats& cache_stats() const { return cache_stats_; }

  // Exports the cache counters (and dirty/cached block levels) as gauges
  // on `registry`, labeled {kind}. The registry reads them only at scrape
  // time; the cache must outlive it.
  void RegisterMetrics(obs::MetricsRegistry* registry);

  size_t dirty_blocks() const {
    return dirty_count_.load(std::memory_order_relaxed);
  }
  size_t cached_blocks() const;
  size_t num_shards() const { return shards_.size(); }

 private:
  struct Entry {
    std::vector<uint8_t> data;
    bool dirty = false;
  };
  struct Shard {
    std::mutex mu;
    Lru<uint64_t, Entry> lru;
  };
  Shard& ShardFor(uint64_t block) {
    // Group 8 consecutive blocks per shard so a sequential scan takes
    // each shard lock for a run of blocks, not one block at a time.
    return *shards_[(block >> 3) & shard_mask_];
  }

  // All helpers below require `shard.mu` held. A miss on a full shard
  // reuses the coldest entry (written back first if dirty) for the new
  // block, so it allocates nothing; a failed fill drops that entry.
  Status GetEntryLocked(Shard& shard, uint64_t block, bool fill_from_device,
                        Entry** out);
  Status WritebackLocked(uint64_t block, Entry& entry);

  // Writes every dirty block to the device, coldest first in each shard.
  // Sync() and the flusher share it.
  Status WriteBackAll();
  void FlusherMain();

  std::shared_ptr<BlockDevice> base_;
  BlockCacheOptions opts_;
  uint32_t block_size_;
  size_t shard_capacity_;
  size_t shard_mask_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<size_t> dirty_count_{0};
  BlockCacheStats cache_stats_;

  std::mutex flusher_mu_;
  std::condition_variable flusher_cv_;
  bool stop_flusher_ = false;
  std::thread flusher_;
};

}  // namespace discfs

#endif  // DISCFS_SRC_BLOCKDEV_BLOCK_CACHE_H_
