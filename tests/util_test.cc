#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "src/blockdev/block_cache.h"
#include "src/discfs/policy_cache.h"
#include "src/keynote/sigcache.h"
#include "src/util/clock.h"
#include "src/util/hex.h"
#include "src/util/lru.h"
#include "src/util/prng.h"
#include "src/util/status.h"
#include "src/util/strings.h"

namespace discfs {
namespace {

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = NotFoundError("no such inode 17");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: no such inode 17");
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(Result, HoldsError) {
  Result<int> r = InvalidArgumentError("bad");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(-1), -1);
}

Result<int> ParsePositive(int x) {
  if (x <= 0) {
    return OutOfRangeError("not positive");
  }
  return x;
}

Result<int> Doubled(int x) {
  ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(Result, AssignOrReturnPropagates) {
  auto good = Doubled(21);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 42);
  auto bad = Doubled(-1);
  EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange);
}

TEST(Hex, EncodeDecodeRoundTrip) {
  Bytes data = {0x00, 0x01, 0xab, 0xff};
  std::string hex = HexEncode(data);
  EXPECT_EQ(hex, "0001abff");
  auto back = HexDecode(hex);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), data);
}

TEST(Hex, DecodeAcceptsUppercase) {
  auto r = HexDecode("ABCDEF");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(HexEncode(r.value()), "abcdef");
}

TEST(Hex, DecodeRejectsOddLength) {
  EXPECT_FALSE(HexDecode("abc").ok());
}

TEST(Hex, DecodeRejectsNonHex) {
  EXPECT_FALSE(HexDecode("zz").ok());
}

TEST(Bytes, ConstantTimeEqual) {
  EXPECT_TRUE(ConstantTimeEqual({1, 2, 3}, {1, 2, 3}));
  EXPECT_FALSE(ConstantTimeEqual({1, 2, 3}, {1, 2, 4}));
  EXPECT_FALSE(ConstantTimeEqual({1, 2}, {1, 2, 3}));
  EXPECT_TRUE(ConstantTimeEqual({}, {}));
}

TEST(Clock, CivilFromUnixEpoch) {
  CivilTime t = CivilFromUnix(0);
  EXPECT_EQ(t.year, 1970);
  EXPECT_EQ(t.month, 1);
  EXPECT_EQ(t.day, 1);
  EXPECT_EQ(t.hour, 0);
  EXPECT_EQ(t.weekday, 4);  // Thursday
}

TEST(Clock, CivilKnownDate) {
  // 2001-05-23 12:34:56 UTC = 990621296 (paper-era date).
  CivilTime t = CivilFromUnix(990621296);
  EXPECT_EQ(t.year, 2001);
  EXPECT_EQ(t.month, 5);
  EXPECT_EQ(t.day, 23);
  EXPECT_EQ(t.hour, 12);
  EXPECT_EQ(t.minute, 34);
  EXPECT_EQ(t.second, 56);
}

TEST(Clock, CivilLeapYear) {
  // 2000-02-29 00:00:00 UTC = 951782400.
  CivilTime t = CivilFromUnix(951782400);
  EXPECT_EQ(t.year, 2000);
  EXPECT_EQ(t.month, 2);
  EXPECT_EQ(t.day, 29);
}

TEST(Clock, KeyNoteTimestampFormat) {
  CivilTime t = CivilFromUnix(990621296);
  EXPECT_EQ(KeyNoteTimestamp(t), "20010523123456");
}

TEST(Clock, KeyNoteTimestampOrdersLexicographically) {
  // Lexicographic comparison of timestamps == chronological comparison;
  // this property is what KeyNote date conditions rely on.
  int64_t times[] = {0, 86400, 990621296, 1000000000, 1700000000};
  for (size_t i = 0; i + 1 < std::size(times); ++i) {
    EXPECT_LT(KeyNoteTimestamp(CivilFromUnix(times[i])),
              KeyNoteTimestamp(CivilFromUnix(times[i + 1])));
  }
}

TEST(Clock, FakeClockAdvances) {
  FakeClock clock(100);
  EXPECT_EQ(clock.NowUnix(), 100);
  clock.Advance(50);
  EXPECT_EQ(clock.NowUnix(), 150);
  clock.Set(7);
  EXPECT_EQ(clock.NowUnix(), 7);
}

TEST(Prng, Deterministic) {
  Prng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Prng, DifferentSeedsDiverge) {
  Prng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 5);
}

TEST(Prng, NextBelowRespectsBound) {
  Prng p(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(p.NextBelow(17), 17u);
  }
}

TEST(Prng, NextBytesLength) {
  Prng p(6);
  for (size_t n : {0u, 1u, 7u, 8u, 9u, 100u}) {
    EXPECT_EQ(p.NextBytes(n).size(), n);
  }
}

TEST(Strings, Split) {
  auto parts = StrSplit("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
}

TEST(Strings, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("Authorizer", "authorizer"));
  EXPECT_TRUE(EqualsIgnoreCase("LICENSEES", "licensees"));
  EXPECT_FALSE(EqualsIgnoreCase("a", "ab"));
}

TEST(Strings, StrPrintf) {
  EXPECT_EQ(StrPrintf("inode %d gen %u", 42, 7u), "inode 42 gen 7");
}

// ----- the shared LRU -----

// The two shard-count rules ShardCount replaced: the policy and signature
// caches' FloorPow2(capacity / 32), and the inode and block caches'
// doubling while each shard keeps 64 entries.
size_t FloorPow2Rule(size_t capacity) {
  if (capacity < 64) {
    return 1;
  }
  size_t shards = 1;
  while (shards * 2 <= capacity / 32) {
    shards *= 2;
  }
  return shards > 16 ? 16 : shards;
}

size_t DoublingRule(size_t capacity) {
  size_t shards = 1;
  while (shards < 16 && capacity / (shards * 2) >= 64) shards *= 2;
  return shards;
}

TEST(ShardCount, MatchesBothFormerRules) {
  for (size_t c = 0; c <= 70000; ++c) {
    ASSERT_EQ(ShardCount(c, 32), FloorPow2Rule(c)) << "capacity " << c;
    ASSERT_EQ(ShardCount(c, 64), DoublingRule(c)) << "capacity " << c;
  }
}

TEST(ShardCount, CachesKeepTheirShardCounts) {
  EXPECT_EQ(PolicyCache(128, 60).shard_count(), 4u);
  EXPECT_EQ(PolicyCache(1024, 60).shard_count(), 16u);
  EXPECT_EQ(keynote::VerifiedSignatureCache(4096).shard_count(), 16u);
  const std::pair<size_t, size_t> block_shards[] = {
      {8, 1}, {128, 2}, {1024, 16}, {24576, 16}};
  for (const auto& [capacity, shards] : block_shards) {
    BlockCacheOptions opts;
    opts.capacity_blocks = capacity;
    opts.flusher_thread = false;
    BlockCache cache(std::make_shared<MemBlockDevice>(512, 16), opts);
    EXPECT_EQ(cache.num_shards(), shards) << "capacity " << capacity;
  }
}

// Random Find/Insert/Erase/PopColdest/ForEachColdestFirst against a
// vector kept warmest first.
TEST(Lru, MatchesARecencyOrderedModel) {
  Lru<int, int> lru;
  std::vector<std::pair<int, int>> model;  // front = warmest
  auto in_model = [&model](int key) {
    return std::find_if(model.begin(), model.end(),
                        [key](const auto& e) { return e.first == key; });
  };
  Prng prng(29);
  for (int step = 0; step < 20000; ++step) {
    const int key = static_cast<int>(prng.NextBelow(48));
    auto it = in_model(key);
    switch (prng.NextBelow(6)) {
      case 0:
      case 1: {  // Find, sometimes changing the value in place
        int* value = lru.Find(key);
        ASSERT_EQ(value != nullptr, it != model.end()) << "step " << step;
        if (value != nullptr) {
          ASSERT_EQ(*value, it->second);
          std::rotate(model.begin(), it, it + 1);
          if (prng.NextBool()) {
            *value = model.front().second = step;
          }
        }
        break;
      }
      case 2:  // Insert an absent key
        if (it == model.end()) {
          ASSERT_EQ(lru.Insert(key, step), step);
          model.insert(model.begin(), {key, step});
        }
        break;
      case 3:  // Erase
        ASSERT_EQ(lru.Erase(key), it != model.end()) << "step " << step;
        if (it != model.end()) {
          model.erase(it);
        }
        break;
      case 4:  // PopColdest
        if (!model.empty()) {
          ASSERT_EQ(lru.Coldest().first, model.back().first);
          ASSERT_EQ(lru.Coldest().second, model.back().second);
          lru.PopColdest();
          model.pop_back();
        }
        break;
      case 5: {  // ForEachColdestFirst, erasing one residue class
        const int mod = 2 + static_cast<int>(prng.NextBelow(6));
        const int residue = static_cast<int>(prng.NextBelow(mod));
        std::vector<int> visited;
        size_t erased = lru.ForEachColdestFirst([&](int k, int& v) {
          visited.push_back(k);
          EXPECT_EQ(v, in_model(k)->second);
          return k % mod == residue;
        });
        std::vector<int> expected;
        for (auto e = model.rbegin(); e != model.rend(); ++e) {
          expected.push_back(e->first);
        }
        ASSERT_EQ(visited, expected) << "step " << step;
        size_t before = model.size();
        model.erase(std::remove_if(model.begin(), model.end(),
                                   [&](const auto& e) {
                                     return e.first % mod == residue;
                                   }),
                    model.end());
        ASSERT_EQ(erased, before - model.size());
        break;
      }
    }
    ASSERT_EQ(lru.size(), model.size()) << "step " << step;
  }
}

TEST(ShardedLru, PutReplacesAndInsertKeepsTheResidentEntry) {
  ShardedLru<int, int> lru(4, 32);
  ASSERT_EQ(lru.shard_count(), 1u);
  lru.Put(1, 10);
  lru.Put(1, 11);
  int seen = 0;
  EXPECT_TRUE(lru.Find(1, [&seen](int v) {
    seen = v;
    return true;
  }));
  EXPECT_EQ(seen, 11);
  EXPECT_EQ(lru.Insert(1, 12), 11);  // the resident value wins
  EXPECT_EQ(lru.Insert(2, 20), 20);
  EXPECT_EQ(lru.size(), 2u);
  EXPECT_EQ(lru.stats().hits, 1u);
  EXPECT_EQ(lru.stats().misses, 0u);
}

TEST(ShardedLru, RejectingFindDropsTheEntryAndCountsAMiss) {
  ShardedLru<int, int> lru(4, 32);
  lru.Put(1, 10);
  EXPECT_FALSE(lru.Find(1, [](int) { return false; }));
  EXPECT_EQ(lru.size(), 0u);
  EXPECT_FALSE(lru.Find(1, [](int) { return true; }));
  EXPECT_EQ(lru.stats().hits, 0u);
  EXPECT_EQ(lru.stats().misses, 2u);
}

TEST(ShardedLru, EvictsTheColdestAndCountsIt) {
  ShardedLru<int, int> lru(2, 32);
  lru.Put(1, 10);
  lru.Insert(2, 20);
  auto hit = [](int) { return true; };
  EXPECT_TRUE(lru.Find(1, hit));  // 2 is now the coldest
  lru.Put(3, 30);
  EXPECT_TRUE(lru.Find(1, hit));
  EXPECT_FALSE(lru.Find(2, hit));
  EXPECT_TRUE(lru.Find(3, hit));
  EXPECT_EQ(lru.size(), 2u);
  EXPECT_EQ(lru.stats().evictions, 1u);
}

TEST(ShardedLru, ClearCountsAndCapacityZeroCachesNothing) {
  ShardedLru<int, int> lru(256, 32);
  ASSERT_EQ(lru.shard_count(), 8u);
  for (int i = 0; i < 100; ++i) {
    lru.Put(i, i);
  }
  EXPECT_EQ(lru.Clear(), 100u);
  EXPECT_EQ(lru.size(), 0u);

  ShardedLru<int, int> none(0, 32);
  none.Put(1, 10);
  EXPECT_EQ(none.Insert(2, 20), 20);
  EXPECT_FALSE(none.Find(2, [](int) { return true; }));
  EXPECT_EQ(none.size(), 0u);
  EXPECT_EQ(none.stats().misses, 1u);
}

// Four threads mix Put, Insert and Find over keys that overflow the
// cache: it stays within capacity, and every Find counts once.
TEST(ShardedLru, ConcurrentUseStaysWithinCapacity) {
  constexpr size_t kCapacity = 256;
  constexpr int kThreads = 4;
  constexpr int kOps = 20000;
  ShardedLru<int, int> lru(kCapacity, 32);
  std::atomic<uint64_t> finds{0};
  std::atomic<bool> over_capacity{false};
  std::atomic<bool> wrong_value{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Prng prng(100 + t);
      for (int i = 0; i < kOps; ++i) {
        const int key = static_cast<int>(prng.NextBelow(1024));
        switch (prng.NextBelow(3)) {
          case 0:
            lru.Put(key, key);
            break;
          case 1:
            if (lru.Insert(key, key) != key) {
              wrong_value = true;
            }
            break;
          default:
            lru.Find(key, [&, key](int v) {
              if (v != key) {
                wrong_value = true;
              }
              return true;
            });
            finds.fetch_add(1, std::memory_order_relaxed);
        }
        if (i % 1024 == 0 && lru.size() > kCapacity) {
          over_capacity = true;
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_FALSE(over_capacity.load());
  EXPECT_FALSE(wrong_value.load());
  EXPECT_LE(lru.size(), kCapacity);
  LruStats stats = lru.stats();
  EXPECT_EQ(stats.hits + stats.misses, finds.load());
  EXPECT_GT(stats.evictions, 0u);
}

}  // namespace
}  // namespace discfs
