// Storage data-plane benchmark: the paper's bonnie phases (Figures 7-11)
// over the FFS substrate, measuring what the block cache buys.
//
// Tiers:
//   uncached_latency — the seed path: no block cache, device latency model
//                      on (seek + transfer). The baseline the cache is
//                      gated against.
//   cached_latency   — block cache over the same modeled device: warm
//                      sequential reads must elide device I/O entirely,
//                      and the bonnie rewrite pass must run out of cache.
//   cached_fast      — latency model off: the pure software-overhead
//                      numbers, full bonnie phase set.
//   nfs              — concurrent 4 KiB-block reads of independent files
//                      through NfsServer's striped locking; with the old
//                      global mutex this cannot scale past 1x.
//
// Every tier ends with Ffs::Check(): a write-back bug that corrupts
// metadata fails the run, not just a test.
//
// Output: BENCH_storage.json (argv[1]; docs/BENCH_SCHEMAS.md).
// DISCFS_STORAGE_MB scales the file (default 4 MiB).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bonnie.h"
#include "bench/fs_backend.h"
#include "bench/report.h"
#include "src/blockdev/block_cache.h"
#include "src/blockdev/blockdev.h"
#include "src/ffs/ffs.h"
#include "src/nfs/nfs_server.h"
#include "src/vfs/vfs.h"

namespace discfs::bench {
namespace {

using Clock = std::chrono::steady_clock;

double NowSec() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

size_t StorageFileMb() {
  const char* env = std::getenv("DISCFS_STORAGE_MB");
  if (env != nullptr) {
    long v = std::strtol(env, nullptr, 10);
    if (v > 0) {
      return static_cast<size_t>(v);
    }
  }
  return 4;
}

// Paper-era disk-ish latency model: 100 us seek, 10 us per-block transfer.
LatencyModel BenchLatency() {
  LatencyModel m;
  m.seek_ns = 100 * 1000;
  m.transfer_ns = 10 * 1000;
  return m;
}

BackendOptions TierOptions(size_t file_mb, bool cached, bool latency) {
  BackendOptions opts;
  opts.device_mib = 64;
  opts.inode_count = 4096;
  // Cache sized to hold the whole bonnie file plus metadata, so the
  // rewrite pass can run fully warm.
  opts.cache_blocks = cached ? file_mb * 1024 * 1024 / 4096 * 2 + 512 : 0;
  if (latency) {
    opts.latency = BenchLatency();
  }
  return opts;
}

double MustRun(FsBackend& backend, BonniePhase phase, size_t file_mb) {
  auto result = RunBonniePhase(backend, phase, file_mb);
  if (!result.ok()) {
    std::fprintf(stderr, "FATAL: %s on %s failed: %s\n",
                 BonniePhaseName(phase), backend.name().c_str(),
                 result.status().ToString().c_str());
    std::exit(1);
  }
  PrintBonnieRow(*result);
  return result->kb_per_sec;
}

// Syncs the tier's volume and runs fsck; false (with the findings on
// stderr) when either fails.
bool FsckClean(Ffs* ffs, const char* tier) {
  if (ffs == nullptr) {
    std::fprintf(stderr, "FATAL: tier %s has no FFS backend\n", tier);
    std::exit(1);
  }
  if (Status st = ffs->Sync(); !st.ok()) {
    std::fprintf(stderr, "sync after tier %s: %s\n", tier,
                 st.ToString().c_str());
    return false;
  }
  auto report = ffs->Check();
  if (!report.ok()) {
    std::fprintf(stderr, "fsck after tier %s errored: %s\n", tier,
                 report.status().ToString().c_str());
    return false;
  }
  if (!report->clean()) {
    std::fprintf(stderr, "fsck after tier %s found %zu errors:\n", tier,
                 report->errors.size());
    for (const std::string& e : report->errors) {
      std::fprintf(stderr, "  %s\n", e.c_str());
    }
    return false;
  }
  std::printf("fsck after %s: clean (%llu files, %llu dirs, %llu blocks)\n",
              tier, static_cast<unsigned long long>(report->files),
              static_cast<unsigned long long>(report->directories),
              static_cast<unsigned long long>(report->used_blocks));
  return true;
}

struct UncachedResult {
  double write_kb_s = 0;
  double read_kb_s = 0;
  bool fsck_clean = false;
};

UncachedResult RunUncachedTier(size_t file_mb) {
  std::printf("-- tier: uncached + latency model (seed path) --\n");
  auto backend = MakeFfsBackend(TierOptions(file_mb, false, true));
  if (!backend.ok()) {
    std::fprintf(stderr, "FATAL: uncached backend: %s\n",
                 backend.status().ToString().c_str());
    std::exit(1);
  }
  UncachedResult out;
  out.write_kb_s = MustRun(**backend, BonniePhase::kSeqOutputBlock, file_mb);
  out.read_kb_s = MustRun(**backend, BonniePhase::kSeqInputBlock, file_mb);
  out.fsck_clean = FsckClean(BackendFfs(**backend), "uncached_latency");
  return out;
}

struct CachedResult {
  double write_kb_s = 0;
  double read_cold_kb_s = 0;
  double read_warm_kb_s = 0;
  double rewrite_kb_s = 0;
  double rewrite_hit_rate = 0;
  uint64_t writebacks = 0;
  uint64_t device_reads = 0;
  uint64_t device_writes = 0;
  bool fsck_clean = false;
};

CachedResult RunCachedTier(size_t file_mb) {
  std::printf("-- tier: cached + latency model --\n");
  auto backend = MakeFfsBackend(TierOptions(file_mb, true, true));
  if (!backend.ok()) {
    std::fprintf(stderr, "FATAL: cached backend: %s\n",
                 backend.status().ToString().c_str());
    std::exit(1);
  }
  Ffs* ffs = BackendFfs(**backend);
  BlockCache* cache = ffs->block_cache();
  if (cache == nullptr) {
    std::fprintf(stderr, "FATAL: cached tier mounted without a cache\n");
    std::exit(1);
  }

  CachedResult out;
  out.write_kb_s = MustRun(**backend, BonniePhase::kSeqOutputBlock, file_mb);

  // Cold read: drop the cache contents by syncing and remounting? No —
  // the interesting "cold" here is simply the first pass (the write left
  // it warm, as bonnie's own sequence does), so report it as-is and do a
  // second pass for the steady-state warm number.
  out.read_cold_kb_s =
      MustRun(**backend, BonniePhase::kSeqInputBlock, file_mb);
  out.read_warm_kb_s =
      MustRun(**backend, BonniePhase::kSeqInputBlock, file_mb);

  // Rewrite hit rate: the file was just read, so the working set is
  // resident; every rewrite read should hit.
  cache->ResetCacheStats();
  out.rewrite_kb_s = MustRun(**backend, BonniePhase::kSeqRewrite, file_mb);
  const BlockCacheStats& cs = cache->cache_stats();
  uint64_t hits = cs.hits.load();
  uint64_t misses = cs.misses.load();
  out.rewrite_hit_rate =
      hits + misses == 0 ? 0.0
                         : static_cast<double>(hits) / (hits + misses);
  out.writebacks = cs.writebacks.load();
  out.device_reads = cache->stats().reads.load();
  out.device_writes = cache->stats().writes.load();
  out.fsck_clean = FsckClean(ffs, "cached_latency");
  return out;
}

struct FastResult {
  double phase_kb_s[5] = {0, 0, 0, 0, 0};
  bool fsck_clean = false;
};

FastResult RunFastTier(size_t file_mb) {
  std::printf("-- tier: cached, latency model off --\n");
  auto backend = MakeFfsBackend(TierOptions(file_mb, true, false));
  if (!backend.ok()) {
    std::fprintf(stderr, "FATAL: fast backend: %s\n",
                 backend.status().ToString().c_str());
    std::exit(1);
  }
  FastResult out;
  const BonniePhase phases[5] = {
      BonniePhase::kSeqOutputChar, BonniePhase::kSeqOutputBlock,
      BonniePhase::kSeqRewrite, BonniePhase::kSeqInputChar,
      BonniePhase::kSeqInputBlock};
  for (int i = 0; i < 5; ++i) {
    out.phase_kb_s[i] = MustRun(**backend, phases[i], file_mb);
  }
  out.fsck_clean = FsckClean(BackendFfs(**backend), "cached_fast");
  return out;
}

// Concurrent reads of independent files through NfsServer. Returns ops/s.
double NfsReadThroughput(NfsServer& server, const std::vector<NfsFh>& files,
                         size_t threads, size_t ops_per_thread,
                         size_t read_size) {
  std::vector<std::thread> workers;
  std::atomic<uint64_t> failures{0};
  double start = NowSec();
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const NfsFh fh = files[t % files.size()];
      uint64_t offset = 0;
      for (size_t i = 0; i < ops_per_thread; ++i) {
        auto data = server.Read(fh, offset, static_cast<uint32_t>(read_size));
        if (!data.ok() || data->empty()) {
          failures.fetch_add(1);
          return;
        }
        offset += read_size;
        if (offset + read_size > 256 * 1024) {
          offset = 0;
        }
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  double elapsed = NowSec() - start;
  if (failures.load() != 0) {
    std::fprintf(stderr, "FATAL: %llu NFS read workers failed\n",
                 static_cast<unsigned long long>(failures.load()));
    std::exit(1);
  }
  return threads * ops_per_thread / elapsed;
}

struct NfsResult {
  double ops_s_1t = 0;
  double ops_s_4t = 0;
  double scaling = 0;
  bool fsck_clean = false;
};

NfsResult RunNfsTier() {
  std::printf("-- tier: NFS striped-lock concurrency --\n");
  auto dev = std::make_shared<MemBlockDevice>(4096, 16384);
  FfsFormatOptions format;
  format.inode_count = 4096;
  format.mount.cache.capacity_blocks = 8192;
  auto fs = Ffs::Format(dev, format);
  if (!fs.ok()) {
    std::fprintf(stderr, "FATAL: nfs tier format: %s\n",
                 fs.status().ToString().c_str());
    std::exit(1);
  }
  std::shared_ptr<Ffs> ffs_sp = std::move(*fs);
  Ffs* ffs = ffs_sp.get();
  NfsServer server(std::make_shared<FfsVfs>(ffs_sp));

  // Eight 256 KiB files, written through the server.
  std::vector<NfsFh> files;
  std::vector<uint8_t> chunk(64 * 1024, 0xAB);
  for (int i = 0; i < 8; ++i) {
    char name[32];
    std::snprintf(name, sizeof(name), "file%02d", i);
    auto root = server.GetRoot();
    if (!root.ok()) {
      std::fprintf(stderr, "FATAL: nfs tier GetRoot: %s\n",
                   root.status().ToString().c_str());
      std::exit(1);
    }
    auto attr = server.Create(root->fh, name, 0644);
    if (!attr.ok()) {
      std::fprintf(stderr, "FATAL: nfs tier create: %s\n",
                   attr.status().ToString().c_str());
      std::exit(1);
    }
    for (uint64_t off = 0; off < 256 * 1024; off += chunk.size()) {
      Bytes data(chunk.begin(), chunk.end());
      if (!server.Write(attr->fh, off, data).ok()) {
        std::fprintf(stderr, "FATAL: nfs tier write failed\n");
        std::exit(1);
      }
    }
    files.push_back(attr->fh);
  }

  NfsResult out;
  const size_t kOps = 20000;
  // Warmup pass populates caches before either timed run.
  NfsReadThroughput(server, files, 2, kOps / 4, 4096);
  out.ops_s_1t = NfsReadThroughput(server, files, 1, kOps, 4096);
  out.ops_s_4t = NfsReadThroughput(server, files, 4, kOps, 4096);
  out.scaling = out.ops_s_4t / out.ops_s_1t;
  std::printf("nfs read ops/s: 1t %.0f, 4t %.0f (scaling %.2fx)\n",
              out.ops_s_1t, out.ops_s_4t, out.scaling);

  out.fsck_clean = FsckClean(ffs, "nfs");
  return out;
}

int Run(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_storage.json";
  const size_t file_mb = StorageFileMb();

  std::printf("== Storage scaling: block cache vs the seed path ==\n");
  std::printf("bonnie file: %zu MiB (DISCFS_STORAGE_MB to change)\n",
              file_mb);

  UncachedResult uncached = RunUncachedTier(file_mb);
  CachedResult cached = RunCachedTier(file_mb);
  FastResult fast = RunFastTier(file_mb);
  NfsResult nfs = RunNfsTier();

  const double warm_read_speedup =
      uncached.read_kb_s > 0 ? cached.read_warm_kb_s / uncached.read_kb_s
                             : 0;
  std::printf("warm cached read vs uncached seed path: %.1fx\n",
              warm_read_speedup);
  std::printf("rewrite cache hit rate: %.1f%%\n",
              cached.rewrite_hit_rate * 100);

  Json latency_model = Json::Object();
  latency_model.Set("seek_us", 100);
  latency_model.Set("transfer_us", 10);
  Json u = Json::Object();
  u.Set("seq_output_block_kb_s", uncached.write_kb_s);
  u.Set("seq_input_block_kb_s", uncached.read_kb_s);
  u.Set("fsck_clean", uncached.fsck_clean);
  Json c = Json::Object();
  c.Set("seq_output_block_kb_s", cached.write_kb_s);
  c.Set("seq_input_block_cold_kb_s", cached.read_cold_kb_s);
  c.Set("seq_input_block_warm_kb_s", cached.read_warm_kb_s);
  c.Set("seq_rewrite_kb_s", cached.rewrite_kb_s);
  c.Set("rewrite_hit_rate", cached.rewrite_hit_rate);
  c.Set("writebacks", cached.writebacks);
  c.Set("device_reads", cached.device_reads);
  c.Set("device_writes", cached.device_writes);
  c.Set("fsck_clean", cached.fsck_clean);
  Json f = Json::Object();
  f.Set("seq_output_char_kb_s", fast.phase_kb_s[0]);
  f.Set("seq_output_block_kb_s", fast.phase_kb_s[1]);
  f.Set("seq_rewrite_kb_s", fast.phase_kb_s[2]);
  f.Set("seq_input_char_kb_s", fast.phase_kb_s[3]);
  f.Set("seq_input_block_kb_s", fast.phase_kb_s[4]);
  f.Set("fsck_clean", fast.fsck_clean);
  Json n = Json::Object();
  n.Set("read_ops_s_1t", nfs.ops_s_1t);
  n.Set("read_ops_s_4t", nfs.ops_s_4t);
  n.Set("scaling_1_to_4", nfs.scaling);
  n.Set("fsck_clean", nfs.fsck_clean);

  const int dirty_tiers = !uncached.fsck_clean + !cached.fsck_clean +
                          !fast.fsck_clean + !nfs.fsck_clean;
  double min_rate = GateMin(nfs.ops_s_1t, nfs.ops_s_4t);
  for (double rate : {uncached.write_kb_s, uncached.read_kb_s}) {
    min_rate = GateMin(min_rate, rate);
  }
  for (double rate : {cached.write_kb_s, cached.read_cold_kb_s}) {
    min_rate = GateMin(min_rate, rate);
  }
  for (double rate : {cached.read_warm_kb_s, cached.rewrite_kb_s}) {
    min_rate = GateMin(min_rate, rate);
  }
  for (double rate : fast.phase_kb_s) {
    min_rate = GateMin(min_rate, rate);
  }

  Report report("storage_scaling");
  report.Set("file_mb", file_mb);
  report.Set("latency_model", std::move(latency_model));
  report.Set("uncached_latency", std::move(u));
  report.Set("cached_latency", std::move(c));
  report.Set("cached_fast", std::move(f));
  report.Set("nfs", std::move(n));
  report.Set("warm_read_speedup", warm_read_speedup);
  report.Set("rewrite_hit_rate", cached.rewrite_hit_rate);
  report.Set("fsck_clean_all", dirty_tiers == 0);
  // Warm reads must elide device I/O, and the rewrite pass must run out
  // of a cache sized to hold the file.
  report.AddGate("warm_read_speedup", warm_read_speedup, GateOp::kGe, 3);
  report.AddGate("rewrite_hit_rate", cached.rewrite_hit_rate, GateOp::kGe, 0.9);
  report.AddGate("dirty_fsck_tiers", dirty_tiers, GateOp::kEq, 0);
  report.AddGate("min_throughput", min_rate, GateOp::kGt, 0);
  // Reads of independent files must not serialize on one server lock;
  // parallelism needs the cores to show.
  report.AddGate("nfs.scaling_1_to_4", nfs.scaling, GateOp::kGe, 1.5, 4);
  return report.Write(out_path);
}

}  // namespace
}  // namespace discfs::bench

int main(int argc, char** argv) {
  return discfs::bench::Run(argc, argv);
}
