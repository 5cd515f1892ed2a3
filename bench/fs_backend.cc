#include "bench/fs_backend.h"

#include "src/crypto/groups.h"
#include "src/crypto/sysrand.h"
#include "src/discfs/credentials.h"
#include "src/net/shaper.h"

namespace discfs::bench {
namespace {

Result<std::shared_ptr<FfsVfs>> MakeVolume(const BackendOptions& opts) {
  auto dev = std::make_shared<MemBlockDevice>(
      4096, opts.device_mib * 1024 * 1024 / 4096, opts.latency);
  FfsFormatOptions format;
  format.inode_count = opts.inode_count;
  format.mount.cache.capacity_blocks = opts.cache_blocks;
  ASSIGN_OR_RETURN(std::unique_ptr<Ffs> fs, Ffs::Format(dev, format));
  return std::make_shared<FfsVfs>(std::move(fs));
}

// ---------------------------------------------------------------- FFS

class FfsBackend : public FsBackend {
 public:
  explicit FfsBackend(std::shared_ptr<FfsVfs> vfs) : vfs_(std::move(vfs)) {}

  std::string name() const override { return "FFS"; }

  Result<BenchFile> CreateFile(const std::string& name) override {
    auto existing = vfs_->Lookup(vfs_->root(), name);
    if (existing.ok()) {
      SetAttrRequest truncate;
      truncate.size = 0;
      RETURN_IF_ERROR(vfs_->SetAttr(existing->inode, truncate));
      return BenchFile{NfsFh{existing->inode, existing->generation}};
    }
    ASSIGN_OR_RETURN(InodeAttr attr, vfs_->Create(vfs_->root(), name, 0644));
    return BenchFile{NfsFh{attr.inode, attr.generation}};
  }

  Result<BenchFile> OpenFile(const std::string& name) override {
    ASSIGN_OR_RETURN(InodeAttr attr, vfs_->Lookup(vfs_->root(), name));
    return BenchFile{NfsFh{attr.inode, attr.generation}};
  }

  Status WriteAt(const BenchFile& f, uint64_t offset, const uint8_t* data,
                 size_t len) override {
    ASSIGN_OR_RETURN(size_t n, vfs_->Write(f.fh.inode, offset, data, len));
    return n == len ? OkStatus() : IoError("short write");
  }

  Result<size_t> ReadAt(const BenchFile& f, uint64_t offset, uint8_t* buf,
                        size_t len) override {
    return vfs_->Read(f.fh.inode, offset, len, buf);
  }

  Status RemoveFile(const std::string& name) override {
    return vfs_->Remove(vfs_->root(), name);
  }

  FfsVfs* vfs() { return vfs_.get(); }

 private:
  std::shared_ptr<FfsVfs> vfs_;
};

// -------------------------------------------------------- remote (shared)

// File operations shared by the two remote backends, over their
// NfsClient. DisCFS creates files with plain NFS CREATE too: the
// benchmark user's blanket credential already covers new files, so there
// is no need to mint one per file.
class RemoteBackendBase : public FsBackend {
 public:
  Result<BenchFile> CreateFile(const std::string& name) override {
    ASSIGN_OR_RETURN(NfsFh root, Root());
    auto existing = nfs().Lookup(root, name);
    if (existing.ok()) {
      SetAttrRequest truncate;
      truncate.size = 0;
      RETURN_IF_ERROR(nfs().SetAttr(existing->fh, truncate).status());
      return BenchFile{existing->fh};
    }
    ASSIGN_OR_RETURN(NfsFattr attr, nfs().Create(root, name, 0644));
    return BenchFile{attr.fh};
  }

  Result<BenchFile> OpenFile(const std::string& name) override {
    ASSIGN_OR_RETURN(NfsFh root, Root());
    ASSIGN_OR_RETURN(NfsFattr attr, nfs().Lookup(root, name));
    return BenchFile{attr.fh};
  }

  Status WriteAt(const BenchFile& f, uint64_t offset, const uint8_t* data,
                 size_t len) override {
    return nfs().Write(f.fh, offset, Bytes(data, data + len)).status();
  }

  Result<size_t> ReadAt(const BenchFile& f, uint64_t offset, uint8_t* buf,
                        size_t len) override {
    ASSIGN_OR_RETURN(Bytes data,
                     nfs().Read(f.fh, offset, static_cast<uint32_t>(len)));
    std::copy(data.begin(), data.end(), buf);
    return data.size();
  }

  Status RemoveFile(const std::string& name) override {
    ASSIGN_OR_RETURN(NfsFh root, Root());
    return nfs().Remove(root, name);
  }

 protected:
  virtual NfsClient& nfs() = 0;

  Result<NfsFh> Root() {
    if (!root_.has_value()) {
      ASSIGN_OR_RETURN(NfsFattr attr, nfs().GetRoot());
      root_ = attr.fh;
    }
    return *root_;
  }

 private:
  std::optional<NfsFh> root_;
};

// ---------------------------------------------------------------- CFS-NE

class CfsNeBackend : public RemoteBackendBase {
 public:
  CfsNeBackend(std::unique_ptr<CfsNeHost> host,
               std::unique_ptr<NfsClient> client)
      : host_(std::move(host)), client_(std::move(client)) {}

  ~CfsNeBackend() override {
    client_->rpc()->Close();
    host_.reset();
  }

  std::string name() const override { return "CFS-NE"; }

 protected:
  NfsClient& nfs() override { return *client_; }

 private:
  std::unique_ptr<CfsNeHost> host_;
  std::unique_ptr<NfsClient> client_;
};

// ---------------------------------------------------------------- DisCFS

class DiscfsBackend : public RemoteBackendBase {
 public:
  DiscfsBackend(std::unique_ptr<DiscfsHost> host,
                std::unique_ptr<DiscfsClient> client)
      : host_(std::move(host)), client_(std::move(client)) {}

  ~DiscfsBackend() override {
    client_->Close();
    host_.reset();
  }

  std::string name() const override { return "DisCFS"; }

 protected:
  NfsClient& nfs() override { return client_->nfs(); }

 private:
  std::unique_ptr<DiscfsHost> host_;
  std::unique_ptr<DiscfsClient> client_;
};

}  // namespace

Result<std::unique_ptr<FsBackend>> MakeFfsBackend(const BackendOptions& opts) {
  ASSIGN_OR_RETURN(std::shared_ptr<FfsVfs> vfs, MakeVolume(opts));
  return std::unique_ptr<FsBackend>(new FfsBackend(std::move(vfs)));
}

Result<std::unique_ptr<FsBackend>> MakeCfsNeBackend(
    const BackendOptions& opts) {
  ASSIGN_OR_RETURN(std::shared_ptr<FfsVfs> vfs, MakeVolume(opts));
  ASSIGN_OR_RETURN(std::unique_ptr<CfsNeHost> host,
                   CfsNeHost::Start(std::move(vfs)));
  // Pace the client link at the paper's testbed speed (DISCFS_LINK_MBPS to
  // change, 0 to disable).
  ASSIGN_OR_RETURN(std::unique_ptr<TcpTransport> transport,
                   TcpTransport::Connect("127.0.0.1", host->port()));
  ASSIGN_OR_RETURN(
      std::unique_ptr<NfsClient> client,
      ConnectCfsNeOver(
          MaybeShape(std::move(transport), LinkModelFromEnv())));
  return std::unique_ptr<FsBackend>(
      new CfsNeBackend(std::move(host), std::move(client)));
}

Result<std::unique_ptr<FsBackend>> MakeDiscfsBackend(
    const BackendOptions& opts) {
  ASSIGN_OR_RETURN(std::shared_ptr<FfsVfs> vfs, MakeVolume(opts));

  auto rand = [](size_t n) { return SysRandomBytes(n); };
  DsaPrivateKey admin_key = DsaPrivateKey::Generate(Dsa1024(), rand);
  DsaPrivateKey user_key = DsaPrivateKey::Generate(Dsa1024(), rand);

  DiscfsServerConfig config;
  config.server_key = admin_key;
  config.policy_cache_size = 128;  // the paper's search setting
  config.policy_cache_ttl_s = 3600;
  ASSIGN_OR_RETURN(std::unique_ptr<DiscfsHost> host,
                   DiscfsHost::Start(std::move(vfs), std::move(config)));

  ChannelIdentity identity{user_key, rand};
  // The shaped link sits UNDER the secure channel: ciphertext crosses the
  // modeled wire, exactly as IPsec packets crossed the paper's Ethernet.
  ASSIGN_OR_RETURN(std::unique_ptr<TcpTransport> transport,
                   TcpTransport::Connect("127.0.0.1", host->port()));
  ASSIGN_OR_RETURN(
      std::unique_ptr<DiscfsClient> client,
      DiscfsClient::ConnectOver(
          MaybeShape(std::move(transport), LinkModelFromEnv()), identity,
          admin_key.public_key()));

  // The administrator grants the benchmark user the whole store (blanket
  // credential, no HANDLE clause); every distinct handle still pays one
  // cold KeyNote evaluation, then hits the policy cache.
  CredentialOptions options;
  options.permissions = "RWX";
  options.comment = "benchmark user grant";
  ASSIGN_OR_RETURN(std::string credential,
                   IssueCredential(admin_key, user_key.public_key(),
                                   /*handle=*/"", options));
  RETURN_IF_ERROR(client->SubmitCredential(credential).status());

  return std::unique_ptr<FsBackend>(
      new DiscfsBackend(std::move(host), std::move(client)));
}

Result<std::vector<std::unique_ptr<FsBackend>>> MakeAllBackends(
    const BackendOptions& opts) {
  std::vector<std::unique_ptr<FsBackend>> backends;
  ASSIGN_OR_RETURN(std::unique_ptr<FsBackend> ffs, MakeFfsBackend(opts));
  backends.push_back(std::move(ffs));
  ASSIGN_OR_RETURN(std::unique_ptr<FsBackend> cfs, MakeCfsNeBackend(opts));
  backends.push_back(std::move(cfs));
  ASSIGN_OR_RETURN(std::unique_ptr<FsBackend> dis, MakeDiscfsBackend(opts));
  backends.push_back(std::move(dis));
  return backends;
}

Ffs* BackendFfs(FsBackend& backend) {
  auto* ffs = dynamic_cast<FfsBackend*>(&backend);
  return ffs == nullptr ? nullptr : ffs->vfs()->ffs();
}

}  // namespace discfs::bench
