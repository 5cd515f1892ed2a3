// Building the system under test from public APIs only: Ffs::Format,
// DiscfsHost::Start, CfsNeHost::Start, DiscfsClient::ConnectOver over a
// loopback TcpTransport. The link is unshaped loopback TCP and the device
// is the in-memory MemBlockDevice with no latency model, so every latency
// the benchmark reports is this machine's, not a disk's or a LAN's.
#ifndef DISCFS_BENCHMARK_HARNESS_WORLD_H_
#define DISCFS_BENCHMARK_HARNESS_WORLD_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "benchmark/harness/common.h"
#include "benchmark/harness/trace.h"
#include "src/blockdev/blockdev.h"
#include "src/crypto/dsa.h"
#include "src/discfs/client.h"
#include "src/discfs/host.h"
#include "src/ffs/ffs.h"

namespace discfs::bm {

inline constexpr uint32_t kBlockBytes = 8192;  // the paper's 8 KiB transfer

// Key material comes from a seeded PRNG: the same seed gives the same keys,
// credentials and handshake transcripts.
DsaPrivateKey MakeKey(uint64_t seed);
std::function<Bytes(size_t)> SeededRand(uint64_t seed);

// Signs `count` credentials on up to four threads (input generation).
// make(i) builds the i-th credential text.
std::vector<std::string> SignAll(
    size_t count, const std::function<Result<std::string>(size_t)>& make,
    Tally& tally);

struct VolumeSpec {
  uint64_t device_mib = 64;
  uint32_t inodes = 4096;
  size_t block_cache_blocks = 1024;
};

struct Volume {
  std::shared_ptr<MemBlockDevice> device;
  std::shared_ptr<TimingDevice> timing;  // set when instrumented
  std::shared_ptr<Ffs> fs;
  // What the server is handed: FfsVfs, wrapped in TimingVfs when
  // instrumented.
  std::shared_ptr<Vfs> vfs;
};

Result<Volume> MakeVolume(const VolumeSpec& spec, bool instrumented);
// Syncs and fscks a quiesced volume; failures are check failures.
void CheckVolume(Volume& volume, const std::string& label, Tally& tally);

// One DisCFS server on its own volume, listening on loopback.
struct NodeSpec {
  VolumeSpec volume;
  size_t policy_cache_size = 128;
  DsaPrivateKey server_key;
  // Empty: the server's default policy (its own key holds everything).
  std::vector<std::string> policies;
  // Peer server keys; non-empty starts the coherence fabric.
  std::vector<DsaPublicKey> cluster_trusted;
  uint64_t rand_seed = 0;
};

struct Node {
  Volume volume;
  std::unique_ptr<DiscfsHost> host;
  DiscfsServer& server() { return host->server(); }
};

Result<std::unique_ptr<Node>> StartNode(const NodeSpec& spec,
                                        bool instrumented);
// Stops the host (its clients must be closed first), then syncs and
// fscks the volume.
void StopNode(Node& node, const std::string& label, Tally& tally);

// Connects and handshakes a DisCFS client on loopback; with `net` set a
// TimingStream sits between the TCP transport and the secure channel.
Result<std::unique_ptr<DiscfsClient>> ConnectClient(
    uint16_t port, const DsaPrivateKey& key, const DsaPublicKey& server_key,
    NetCounters* net, uint64_t rand_seed);

// The few filesystem operations the bonnie and search workloads need, so
// the same workload code drives DisCFS and CFS-NE (NFS RPCs) and FFS
// (direct Vfs calls).
class FsOps {
 public:
  virtual ~FsOps() = default;
  virtual Result<NfsFh> Root() = 0;
  virtual Result<NfsFh> Create(const NfsFh& dir, const std::string& name) = 0;
  virtual Result<NfsFh> Mkdir(const NfsFh& dir, const std::string& name) = 0;
  virtual Status Truncate(const NfsFh& file) = 0;
  virtual Status Write(const NfsFh& file, uint64_t offset,
                       const Bytes& data) = 0;
  virtual Result<Bytes> Read(const NfsFh& file, uint64_t offset,
                             uint32_t len) = 0;
  virtual Result<std::vector<NfsDirEntry>> ReadDir(const NfsFh& dir) = 0;
  // The entry's handle and size.
  virtual Result<std::pair<NfsFh, uint64_t>> Lookup(
      const NfsFh& dir, const std::string& name) = 0;
};

// NFS over an established client (DisCFS or CFS-NE); every call goes
// through TracedCall.
std::unique_ptr<FsOps> NfsOps(NfsClient& nfs);
// Direct calls into the volume (the paper's local FFS baseline).
std::unique_ptr<FsOps> VfsOps(Vfs& vfs);

// The paper's two reference systems, each on a fresh volume that is
// fscked afterwards: FFS (direct Vfs calls) and CFS-NE (the same NFS
// server over plain loopback TCP: no secure channel, no credentials).
Status WithFfs(const VolumeSpec& spec, Tally& tally,
               const std::function<Status(FsOps&)>& body);
Status WithCfsNe(const VolumeSpec& spec, Tally& tally,
                 const std::function<Status(FsOps&)>& body);

}  // namespace discfs::bm

#endif  // DISCFS_BENCHMARK_HARNESS_WORLD_H_
