#include "benchmark/harness/world.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "src/crypto/groups.h"
#include "src/util/prng.h"

namespace discfs::bm {
namespace {

constexpr size_t kSignThreads = 4;

class NfsFsOps : public FsOps {
 public:
  explicit NfsFsOps(NfsClient& nfs) : nfs_(nfs) {}

  Result<NfsFh> Root() override {
    ASSIGN_OR_RETURN(NfsFattr attr,
                     TracedCall(Op::kGetRoot, [&] { return nfs_.GetRoot(); }));
    return attr.fh;
  }

  Result<NfsFh> Create(const NfsFh& dir, const std::string& name) override {
    ASSIGN_OR_RETURN(NfsFattr attr, TracedCall(Op::kCreate, [&] {
                       return nfs_.Create(dir, name, 0644);
                     }));
    return attr.fh;
  }

  Result<NfsFh> Mkdir(const NfsFh& dir, const std::string& name) override {
    ASSIGN_OR_RETURN(NfsFattr attr, TracedCall(Op::kMkdir, [&] {
                       return nfs_.Mkdir(dir, name, 0755);
                     }));
    return attr.fh;
  }

  Status Truncate(const NfsFh& file) override {
    SetAttrRequest request;
    request.size = 0;
    return TracedCall(Op::kSetAttr, [&] {
             return nfs_.SetAttr(file, request);
           }).status();
  }

  Status Write(const NfsFh& file, uint64_t offset,
               const Bytes& data) override {
    return TracedCall(Op::kWrite, [&] {
             return nfs_.Write(file, offset, data);
           }).status();
  }

  Result<Bytes> Read(const NfsFh& file, uint64_t offset,
                     uint32_t len) override {
    return TracedCall(Op::kRead,
                      [&] { return nfs_.Read(file, offset, len); });
  }

  Result<std::vector<NfsDirEntry>> ReadDir(const NfsFh& dir) override {
    return TracedCall(Op::kReadDir, [&] { return nfs_.ReadDir(dir); });
  }

  Result<std::pair<NfsFh, uint64_t>> Lookup(
      const NfsFh& dir, const std::string& name) override {
    ASSIGN_OR_RETURN(NfsFattr attr, TracedCall(Op::kLookup, [&] {
                       return nfs_.Lookup(dir, name);
                     }));
    return std::make_pair(attr.fh, attr.size);
  }

 private:
  NfsClient& nfs_;
};

class VfsFsOps : public FsOps {
 public:
  explicit VfsFsOps(Vfs& vfs) : vfs_(vfs) {}

  Result<NfsFh> Root() override {
    ASSIGN_OR_RETURN(InodeAttr attr, vfs_.GetAttr(vfs_.root()));
    return NfsFh{attr.inode, attr.generation};
  }

  Result<NfsFh> Create(const NfsFh& dir, const std::string& name) override {
    ASSIGN_OR_RETURN(InodeAttr attr, vfs_.Create(dir.inode, name, 0644));
    return NfsFh{attr.inode, attr.generation};
  }

  Result<NfsFh> Mkdir(const NfsFh& dir, const std::string& name) override {
    ASSIGN_OR_RETURN(InodeAttr attr, vfs_.Mkdir(dir.inode, name, 0755));
    return NfsFh{attr.inode, attr.generation};
  }

  Status Truncate(const NfsFh& file) override {
    SetAttrRequest request;
    request.size = 0;
    return vfs_.SetAttr(file.inode, request);
  }

  Status Write(const NfsFh& file, uint64_t offset,
               const Bytes& data) override {
    ASSIGN_OR_RETURN(size_t n,
                     vfs_.Write(file.inode, offset, data.data(), data.size()));
    return n == data.size() ? OkStatus() : IoError("short write");
  }

  Result<Bytes> Read(const NfsFh& file, uint64_t offset,
                     uint32_t len) override {
    Bytes out(len);
    ASSIGN_OR_RETURN(size_t n, vfs_.Read(file.inode, offset, len, out.data()));
    out.resize(n);
    return out;
  }

  Result<std::vector<NfsDirEntry>> ReadDir(const NfsFh& dir) override {
    ASSIGN_OR_RETURN(std::vector<DirEntry> entries, vfs_.ReadDir(dir.inode));
    std::vector<NfsDirEntry> out;
    out.reserve(entries.size());
    for (DirEntry& e : entries) {
      // Readdir yields inode numbers; the generation only matters to NFS
      // handles, so the local baseline skips the extra GetAttr.
      out.push_back(NfsDirEntry{std::move(e.name), NfsFh{e.inode, 0}, e.type});
    }
    return out;
  }

  Result<std::pair<NfsFh, uint64_t>> Lookup(
      const NfsFh& dir, const std::string& name) override {
    ASSIGN_OR_RETURN(InodeAttr attr, vfs_.Lookup(dir.inode, name));
    return std::make_pair(NfsFh{attr.inode, attr.generation}, attr.size);
  }

 private:
  Vfs& vfs_;
};

}  // namespace

std::function<Bytes(size_t)> SeededRand(uint64_t seed) {
  return LockedPrngBytes(seed);
}

DsaPrivateKey MakeKey(uint64_t seed) {
  return DsaPrivateKey::Generate(Dsa1024(), SeededRand(seed));
}

std::vector<std::string> SignAll(
    size_t count, const std::function<Result<std::string>(size_t)>& make,
    Tally& tally) {
  std::vector<std::string> out(count);
  std::atomic<size_t> next{0};
  auto work = [&] {
    for (size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
      Result<std::string> text = make(i);
      if (tally.Ok(text, "sign credential")) {
        out[i] = std::move(text).value();
      }
    }
  };
  std::vector<std::thread> threads;
  for (size_t t = 1; t < std::min(kSignThreads, count); ++t) {
    threads.emplace_back(work);
  }
  work();
  for (std::thread& t : threads) {
    t.join();
  }
  return out;
}

Result<Volume> MakeVolume(const VolumeSpec& spec, bool instrumented) {
  Volume volume;
  volume.device = std::make_shared<MemBlockDevice>(
      4096, spec.device_mib * 1024 * 1024 / 4096);
  std::shared_ptr<BlockDevice> under = volume.device;
  if (instrumented) {
    volume.timing = std::make_shared<TimingDevice>(volume.device);
    under = volume.timing;
  }
  FfsFormatOptions format;
  format.inode_count = spec.inodes;
  format.mount.cache.capacity_blocks = spec.block_cache_blocks;
  ASSIGN_OR_RETURN(std::unique_ptr<Ffs> fs, Ffs::Format(under, format));
  volume.fs = std::move(fs);
  std::shared_ptr<Vfs> vfs = std::make_shared<FfsVfs>(volume.fs);
  if (instrumented) {
    vfs = std::make_shared<TimingVfs>(std::move(vfs));
  }
  volume.vfs = std::move(vfs);
  return volume;
}

void CheckVolume(Volume& volume, const std::string& label, Tally& tally) {
  if (!tally.Ok(volume.fs->Sync(), "volume sync")) {
    return;
  }
  Result<FsckReport> report = volume.fs->Check();
  if (!tally.Ok(report, "fsck")) {
    return;
  }
  if (!report->clean()) {
    tally.CheckFailed(label + " fsck: " + report->errors.front());
  }
}

Result<std::unique_ptr<Node>> StartNode(const NodeSpec& spec,
                                        bool instrumented) {
  auto node = std::make_unique<Node>();
  ASSIGN_OR_RETURN(node->volume, MakeVolume(spec.volume, instrumented));
  DiscfsServerConfig config;
  config.server_key = spec.server_key;
  config.policy_assertions = spec.policies;
  config.policy_cache_size = spec.policy_cache_size;
  config.rand_bytes = SeededRand(spec.rand_seed);
  config.cluster_trusted_keys = spec.cluster_trusted;
  DiscfsHostOptions options;
  options.cluster_enabled = !spec.cluster_trusted.empty();
  ASSIGN_OR_RETURN(node->host,
                   DiscfsHost::Start(node->volume.vfs, std::move(config),
                                     /*port=*/0, std::move(options)));
  return node;
}

void StopNode(Node& node, const std::string& label, Tally& tally) {
  node.host.reset();
  CheckVolume(node.volume, label, tally);
}

Result<std::unique_ptr<DiscfsClient>> ConnectClient(
    uint16_t port, const DsaPrivateKey& key, const DsaPublicKey& server_key,
    NetCounters* net, uint64_t rand_seed) {
  ASSIGN_OR_RETURN(std::unique_ptr<TcpTransport> tcp,
                   TcpTransport::Connect("127.0.0.1", port));
  std::unique_ptr<MsgStream> transport = std::move(tcp);
  if (net != nullptr) {
    transport = std::make_unique<TimingStream>(std::move(transport), net);
  }
  ChannelIdentity identity{key, SeededRand(rand_seed)};
  return DiscfsClient::ConnectOver(std::move(transport), identity, server_key);
}

std::unique_ptr<FsOps> NfsOps(NfsClient& nfs) {
  return std::make_unique<NfsFsOps>(nfs);
}

std::unique_ptr<FsOps> VfsOps(Vfs& vfs) {
  return std::make_unique<VfsFsOps>(vfs);
}

Status WithFfs(const VolumeSpec& spec, Tally& tally,
               const std::function<Status(FsOps&)>& body) {
  ASSIGN_OR_RETURN(Volume volume, MakeVolume(spec, /*instrumented=*/false));
  Status st = body(*VfsOps(*volume.vfs));
  CheckVolume(volume, "ffs reference volume", tally);
  return st;
}

Status WithCfsNe(const VolumeSpec& spec, Tally& tally,
                 const std::function<Status(FsOps&)>& body) {
  ASSIGN_OR_RETURN(Volume volume, MakeVolume(spec, /*instrumented=*/false));
  Status st;
  {
    ASSIGN_OR_RETURN(std::unique_ptr<CfsNeHost> host,
                     CfsNeHost::Start(volume.vfs));
    ASSIGN_OR_RETURN(std::unique_ptr<NfsClient> client,
                     ConnectCfsNe("127.0.0.1", host->port()));
    st = body(*NfsOps(*client));
    client->rpc()->Close();
  }
  CheckVolume(volume, "cfs-ne reference volume", tally);
  return st;
}

}  // namespace discfs::bm
