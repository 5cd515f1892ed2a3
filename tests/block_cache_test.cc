#include "src/blockdev/block_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "src/ffs/ffs.h"

namespace discfs {
namespace {

constexpr uint32_t kBlockSize = 512;

std::vector<uint8_t> Pattern(uint64_t block) {
  std::vector<uint8_t> data(kBlockSize);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>((block * 37 + i) & 0xFF);
  }
  return data;
}

// A small cache (capacities under 128 blocks get one shard) with the
// flusher off, so eviction order and write-back timing are fully
// deterministic.
BlockCacheOptions ManualOptions(size_t capacity) {
  BlockCacheOptions opts;
  opts.capacity_blocks = capacity;
  opts.flusher_thread = false;
  return opts;
}

TEST(BlockCacheTest, HitMissEvictAccounting) {
  auto base = std::make_shared<MemBlockDevice>(kBlockSize, 64);
  BlockCache cache(base, ManualOptions(8));
  ASSERT_EQ(cache.num_shards(), 1u);

  std::vector<uint8_t> buf(kBlockSize);
  for (uint64_t b = 0; b < 8; ++b) {
    ASSERT_TRUE(cache.Read(b, buf.data()).ok());
  }
  EXPECT_EQ(cache.cache_stats().misses.load(), 8u);
  EXPECT_EQ(cache.cache_stats().hits.load(), 0u);
  EXPECT_EQ(cache.cached_blocks(), 8u);

  for (uint64_t b = 0; b < 8; ++b) {
    ASSERT_TRUE(cache.Read(b, buf.data()).ok());
  }
  EXPECT_EQ(cache.cache_stats().hits.load(), 8u);
  EXPECT_EQ(cache.cache_stats().evictions.load(), 0u);

  // A ninth block evicts the LRU victim (block 0) without growing the
  // cache; re-reading block 0 must then miss again.
  ASSERT_TRUE(cache.Read(8, buf.data()).ok());
  EXPECT_EQ(cache.cache_stats().evictions.load(), 1u);
  EXPECT_EQ(cache.cached_blocks(), 8u);
  uint64_t misses_before = cache.cache_stats().misses.load();
  ASSERT_TRUE(cache.Read(0, buf.data()).ok());
  EXPECT_EQ(cache.cache_stats().misses.load(), misses_before + 1);
}

TEST(BlockCacheTest, WriteBackDeferredUntilEviction) {
  auto base = std::make_shared<MemBlockDevice>(kBlockSize, 64);
  BlockCache cache(base, ManualOptions(8));

  auto pattern = Pattern(0);
  ASSERT_TRUE(cache.Write(0, pattern.data()).ok());
  EXPECT_EQ(cache.dirty_blocks(), 1u);
  // Write-back hasn't happened: the device still holds zeros.
  std::vector<uint8_t> on_device(kBlockSize);
  ASSERT_TRUE(base->Read(0, on_device.data()).ok());
  EXPECT_EQ(on_device, std::vector<uint8_t>(kBlockSize, 0));

  // Fill the shard so block 0 becomes the eviction victim.
  std::vector<uint8_t> buf(kBlockSize);
  for (uint64_t b = 1; b <= 8; ++b) {
    ASSERT_TRUE(cache.Read(b, buf.data()).ok());
  }
  EXPECT_GE(cache.cache_stats().writebacks.load(), 1u);
  EXPECT_EQ(cache.dirty_blocks(), 0u);
  ASSERT_TRUE(base->Read(0, on_device.data()).ok());
  EXPECT_EQ(on_device, pattern);
}

TEST(BlockCacheTest, SyncIsADurabilityBarrier) {
  auto base = std::make_shared<MemBlockDevice>(kBlockSize, 64);
  BlockCache cache(base, ManualOptions(16));

  for (uint64_t b = 0; b < 5; ++b) {
    auto pattern = Pattern(b);
    ASSERT_TRUE(cache.Write(b, pattern.data()).ok());
  }
  EXPECT_EQ(cache.dirty_blocks(), 5u);
  EXPECT_EQ(base->stats().writes.load(), 0u);

  ASSERT_TRUE(cache.Sync().ok());
  EXPECT_EQ(cache.dirty_blocks(), 0u);
  EXPECT_EQ(base->stats().writes.load(), 5u);
  for (uint64_t b = 0; b < 5; ++b) {
    std::vector<uint8_t> on_device(kBlockSize);
    ASSERT_TRUE(base->Read(b, on_device.data()).ok());
    EXPECT_EQ(on_device, Pattern(b));
  }
  // A second Sync with nothing dirty writes nothing.
  ASSERT_TRUE(cache.Sync().ok());
  EXPECT_EQ(base->stats().writes.load(), 5u);
}

TEST(BlockCacheTest, DropDirtyRestoresLastSyncImage) {
  auto base = std::make_shared<MemBlockDevice>(kBlockSize, 64);
  BlockCache cache(base, ManualOptions(16));

  auto durable = Pattern(1);
  ASSERT_TRUE(cache.Write(1, durable.data()).ok());
  ASSERT_TRUE(cache.Sync().ok());

  auto lost = Pattern(99);
  ASSERT_TRUE(cache.Write(1, lost.data()).ok());
  ASSERT_TRUE(cache.Write(2, lost.data()).ok());
  EXPECT_EQ(cache.DropDirty(), 2u);
  EXPECT_EQ(cache.dirty_blocks(), 0u);
  EXPECT_EQ(cache.cache_stats().dropped_dirty.load(), 2u);

  // Reads now refill from the device: the last-Sync image.
  std::vector<uint8_t> buf(kBlockSize);
  ASSERT_TRUE(cache.Read(1, buf.data()).ok());
  EXPECT_EQ(buf, durable);
  ASSERT_TRUE(cache.Read(2, buf.data()).ok());
  EXPECT_EQ(buf, std::vector<uint8_t>(kBlockSize, 0));
}

// A miss reads exactly the block asked for: a sequential scan costs one
// device read per block, and so does every block of a two-block read.
TEST(BlockCacheTest, MissesReadOnlyTheRequestedBlock) {
  auto base = std::make_shared<MemBlockDevice>(kBlockSize, 4096);
  BlockCacheOptions opts;
  opts.flusher_thread = false;
  BlockCache cache(base, opts);
  std::vector<uint8_t> buf(kBlockSize);

  constexpr uint64_t kScan = 256;  // 16 blocks per shard: no evictions
  for (uint64_t b = 0; b < kScan; ++b) {
    ASSERT_TRUE(cache.Read(b, buf.data()).ok());
  }
  EXPECT_EQ(cache.cache_stats().misses.load(), kScan);
  EXPECT_EQ(cache.cache_stats().hits.load(), 0u);
  EXPECT_EQ(base->stats().reads.load(), kScan);
  EXPECT_EQ(cache.cached_blocks(), kScan);

  uint64_t x = 7;
  for (int i = 0; i < 200; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const uint64_t block = kScan + (x >> 33) % (4096 - kScan - 1);
    const uint64_t misses = cache.cache_stats().misses.load();
    const uint64_t reads = base->stats().reads.load();
    ASSERT_TRUE(cache.Read(block, buf.data()).ok());
    ASSERT_TRUE(cache.Read(block + 1, buf.data()).ok());
    EXPECT_EQ(base->stats().reads.load() - reads,
              cache.cache_stats().misses.load() - misses)
        << "two-block read at " << block;
  }
  EXPECT_GT(cache.cache_stats().misses.load(), kScan);
  EXPECT_EQ(cache.cache_stats().readaheads.load(), 0u);
}

TEST(BlockCacheTest, ModifyIsAtomicAcrossThreads) {
  auto base = std::make_shared<MemBlockDevice>(kBlockSize, 64);
  BlockCacheOptions opts;
  opts.capacity_blocks = 16;
  opts.flush_interval_ms = 5;  // flusher racing the modifiers on purpose
  BlockCache cache(base, opts);

  // Each thread owns a 4-byte counter slot inside the same block and
  // increments it via Modify; no increment may be lost.
  constexpr int kThreads = 4;
  constexpr uint32_t kIters = 5000;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &failed, t] {
      for (uint32_t i = 0; i < kIters; ++i) {
        Status st = cache.Modify(0, [t](uint8_t* data) {
          uint32_t v;
          std::memcpy(&v, data + 4 * t, 4);
          ++v;
          std::memcpy(data + 4 * t, &v, 4);
        });
        if (!st.ok()) {
          failed = true;
          return;
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  ASSERT_FALSE(failed.load());
  ASSERT_TRUE(cache.Sync().ok());

  std::vector<uint8_t> on_device(kBlockSize);
  ASSERT_TRUE(base->Read(0, on_device.data()).ok());
  for (int t = 0; t < kThreads; ++t) {
    uint32_t v;
    std::memcpy(&v, on_device.data() + 4 * t, 4);
    EXPECT_EQ(v, kIters) << "lost updates in slot " << t;
  }
}

TEST(BlockCacheTest, ConcurrentReadWriteStorm) {
  auto base = std::make_shared<MemBlockDevice>(kBlockSize, 1024);
  BlockCacheOptions opts;
  opts.capacity_blocks = 128;
  opts.flush_watermark = 16;
  opts.flush_interval_ms = 5;
  BlockCache cache(base, opts);

  // Two writers stamp disjoint block ranges with their block's pattern
  // (idempotent, so any write order converges); two readers scan.
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&cache, &failed, w] {
      const uint64_t lo = w == 0 ? 0 : 512;
      uint64_t x = 12345 + w;
      for (int i = 0; i < 4000; ++i) {
        x = x * 1103515245 + 12345;  // LCG: deterministic "random" blocks
        uint64_t block = lo + (x >> 16) % 512;
        auto pattern = Pattern(block);
        if (!cache.Write(block, pattern.data()).ok()) {
          failed = true;
          return;
        }
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&cache, &failed, r] {
      std::vector<uint8_t> buf(kBlockSize);
      for (int pass = 0; pass < 4; ++pass) {
        for (uint64_t b = static_cast<uint64_t>(r) * 512;
             b < static_cast<uint64_t>(r) * 512 + 512; ++b) {
          if (!cache.Read(b, buf.data()).ok()) {
            failed = true;
            return;
          }
          // A block is either untouched (zeros) or fully stamped —
          // never a torn mix.
          if (buf[0] != 0 || buf[1] != 0) {
            if (buf != Pattern(b)) {
              failed = true;
              return;
            }
          }
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  ASSERT_FALSE(failed.load());
  ASSERT_TRUE(cache.Sync().ok());
  EXPECT_EQ(cache.dirty_blocks(), 0u);
}

// Crash simulation end-to-end: churn a filesystem past a Sync point, drop
// everything un-synced, remount, and fsck must come back clean with the
// durable files intact.
TEST(BlockCacheTest, FfsSurvivesDroppedDirtyBlocks) {
  auto dev = std::make_shared<MemBlockDevice>(4096, 4096);
  FfsFormatOptions format;
  format.inode_count = 512;
  format.mount.cache.capacity_blocks = 512;
  format.mount.cache.flusher_thread = false;  // only Sync() reaches disk
  auto fs = Ffs::Format(dev, format);
  ASSERT_TRUE(fs.ok()) << fs.status();

  std::vector<uint8_t> data(8192, 0x5A);
  auto durable = (*fs)->Create((*fs)->root(), "durable.txt", 0644);
  ASSERT_TRUE(durable.ok());
  ASSERT_TRUE(
      (*fs)->Write(durable->inode, 0, data.data(), data.size()).ok());
  ASSERT_TRUE((*fs)->Sync().ok());

  // Post-Sync churn that will be lost in the "crash".
  for (int i = 0; i < 8; ++i) {
    auto f = (*fs)->Create((*fs)->root(), "lost" + std::to_string(i), 0644);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*fs)->Write(f->inode, 0, data.data(), data.size()).ok());
  }
  ASSERT_GT((*fs)->block_cache()->DropDirty(), 0u);
  fs->reset();  // nothing dirty remains, so teardown flushes nothing

  auto remounted = Ffs::Mount(dev);
  ASSERT_TRUE(remounted.ok()) << remounted.status();
  auto report = (*remounted)->Check();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->clean()) << report->errors.front();
  EXPECT_EQ(report->files, 1u);

  auto found = (*remounted)->Lookup((*remounted)->root(), "durable.txt");
  ASSERT_TRUE(found.ok());
  std::vector<uint8_t> back(data.size());
  auto n = (*remounted)->Read(found->inode, 0, back.size(), back.data());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, data.size());
  EXPECT_EQ(back, data);
}

}  // namespace
}  // namespace discfs
