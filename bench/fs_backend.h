// Benchmark backends: the three systems compared throughout the paper's
// evaluation (§6), behind one interface.
//
//   FFS     — direct calls into the local filesystem (the paper's local
//             baseline; "local file system experiments were performed on
//             Alice").
//   CFS-NE  — the same NFS server reached over plain TCP, no credentials
//             ("basically CFS with encryption turned off and modified to
//             run remotely").
//   DisCFS  — NFS over the secure channel with KeyNote checks + policy
//             cache (the prototype under test).
#ifndef DISCFS_BENCH_FS_BACKEND_H_
#define DISCFS_BENCH_FS_BACKEND_H_

#include <memory>
#include <string>
#include <vector>

#include "src/discfs/client.h"
#include "src/discfs/host.h"
#include "src/util/status.h"
#include "src/vfs/vfs.h"

namespace discfs::bench {

struct BenchFile {
  NfsFh fh;  // FFS backend uses .inode only
};

struct BackendOptions {
  // Device sizing.
  uint64_t device_mib = 256;
  uint32_t inode_count = 65536;
  // Storage data-plane knobs: block-cache capacity (0 = uncached seed
  // path) and an optional device latency model so the cache's I/O
  // elision is visible in wall-clock time.
  size_t cache_blocks = 4096;
  LatencyModel latency;
};

class FsBackend {
 public:
  virtual ~FsBackend() = default;

  virtual std::string name() const = 0;

  virtual Result<BenchFile> CreateFile(const std::string& name) = 0;
  virtual Result<BenchFile> OpenFile(const std::string& name) = 0;
  virtual Status WriteAt(const BenchFile& f, uint64_t offset,
                         const uint8_t* data, size_t len) = 0;
  virtual Result<size_t> ReadAt(const BenchFile& f, uint64_t offset,
                                uint8_t* buf, size_t len) = 0;
  virtual Status RemoveFile(const std::string& name) = 0;
};

// Factories. Each owns everything it needs (volume, hosts, clients).
Result<std::unique_ptr<FsBackend>> MakeFfsBackend(const BackendOptions& opts);
Result<std::unique_ptr<FsBackend>> MakeCfsNeBackend(
    const BackendOptions& opts);
Result<std::unique_ptr<FsBackend>> MakeDiscfsBackend(
    const BackendOptions& opts);

// All three, in the paper's presentation order.
Result<std::vector<std::unique_ptr<FsBackend>>> MakeAllBackends(
    const BackendOptions& opts);

// FFS-backend introspection (block-cache stats, Sync, Check); null for the
// remote backends, whose volume lives behind the host.
Ffs* BackendFfs(FsBackend& backend);

}  // namespace discfs::bench

#endif  // DISCFS_BENCH_FS_BACKEND_H_
