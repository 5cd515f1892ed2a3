// DiscfsClient — the cattach-style client (§5): connects over the secure
// channel (establishing the identity binding), attaches the remote root,
// submits credentials, and performs NFS file I/O plus the DisCFS-specific
// procedures.
#ifndef DISCFS_SRC_DISCFS_CLIENT_H_
#define DISCFS_SRC_DISCFS_CLIENT_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/crypto/dsa.h"
#include "src/discfs/protocol.h"
#include "src/nfs/nfs_client.h"
#include "src/securechannel/channel.h"
#include "src/wire/lockbox.h"

namespace discfs {

struct DiscfsServerInfo {
  std::string server_principal;
  uint64_t keynote_queries = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint32_t credential_count = 0;
};

struct CreateResult {
  NfsFattr attr;
  std::string credential;  // full access for the creator; delegate freely
};

// GetLockbox result: the record (whose entries hold this client's wrapped
// content key, if any) plus the stored payload (ciphertext when sealed).
struct LockboxFetch {
  wire::LockboxRecord record;
  Bytes payload;
};

class DiscfsClient {
 public:
  // Connects to host:port, runs the handshake with `identity`, and pins the
  // server key if `expected_server` is given (self-certifying attach).
  static Result<std::unique_ptr<DiscfsClient>> Connect(
      const std::string& host, uint16_t port, const ChannelIdentity& identity,
      const std::optional<DsaPublicKey>& expected_server);

  // Same, over a caller-supplied stream already connected to a DiscfsHost
  // (a shaped or instrumented link in the benchmarks).
  static Result<std::unique_ptr<DiscfsClient>> ConnectOver(
      std::unique_ptr<MsgStream> transport, const ChannelIdentity& identity,
      const std::optional<DsaPublicKey>& expected_server);

  // The attach operation: returns the root handle. Until credentials are
  // submitted the directory is mode 000 and every data operation fails.
  Result<NfsFattr> Attach();

  // Submits a credential assertion to the server's persistent KeyNote
  // session; returns the credential id.
  Result<std::string> SubmitCredential(const std::string& text);
  // Batch submission (one round trip; server fans verification out over
  // its worker pool). results[i] is texts[i]'s id or per-credential error;
  // the outer Result fails only on transport/decode problems.
  Result<std::vector<Result<std::string>>> SubmitCredentials(
      const std::vector<std::string>& texts);
  // Issuer-side withdrawal of a delegation.
  Status RemoveCredential(const std::string& credential_id);
  // Self-revocation of this client's key (compromise recovery).
  Status RevokeOwnKey();

  // Augmented CREATE/MKDIR that return a fresh full-access credential for
  // the creator.
  Result<CreateResult> CreateWithCredential(const NfsFh& dir,
                                            const std::string& name,
                                            uint32_t mode);
  Result<CreateResult> MkdirWithCredential(const NfsFh& dir,
                                           const std::string& name,
                                           uint32_t mode);

  // Resolves a credential HANDLE (inode number) to a live file handle.
  Result<NfsFattr> ResolveHandle(uint32_t inode);

  // Lockbox sharing (needs W on `fh`; see DiscfsProc for the policy each
  // procedure enforces). `entries` carry the content key wrapped to each
  // recipient (src/crypto/keywrap.h); the returned record shows the chunk
  // ids as stored.
  Result<wire::LockboxRecord> PutLockbox(
      const NfsFh& fh, bool sealed, uint32_t chunk_size, const Bytes& payload,
      const std::vector<wire::LockboxEntry>& entries);
  // Needs R on `fh`.
  Result<LockboxFetch> GetLockbox(const NfsFh& fh);
  // Adds/replaces `entry` (needs R on `fh`).
  Status GrantLockboxAccess(const NfsFh& fh, const wire::LockboxEntry& entry);
  // Drops `recipient`'s entry (needs W on `fh`, or lockbox ownership).
  Status RevokeLockboxAccess(const NfsFh& fh, const std::string& recipient);

  Result<DiscfsServerInfo> ServerInfo();

  // Scrapes the server's metrics registry (DiscfsProc::kServerStats):
  // Prometheus text by default, one JSON object with `json`.
  Result<std::string> ServerStats(bool json = false);

  // Trace id minted for the most recent RemoveCredential/RevokeOwnKey call
  // on this client (0 before the first). The id rides the RPC trailer and
  // any coherence traffic the call triggers; servers answer
  // trace_log().Contains(id) with it.
  uint64_t last_trace_id() const { return last_trace_id_; }

  // Plain NFS operations (policy-checked server-side).
  NfsClient& nfs() { return *nfs_; }

  const DsaPublicKey& server_key() const { return server_key_; }
  const DsaPublicKey& own_key() const { return own_key_; }

  void Close() { rpc_->Close(); }

 private:
  DiscfsClient(std::shared_ptr<RpcClient> rpc, DsaPublicKey server_key,
               DsaPublicKey own_key);

  Result<Bytes> Call(DiscfsProc proc, const Bytes& args);

  std::shared_ptr<RpcClient> rpc_;
  std::unique_ptr<NfsClient> nfs_;
  DsaPublicKey server_key_;
  DsaPublicKey own_key_;
  uint64_t last_trace_id_ = 0;
};

}  // namespace discfs

#endif  // DISCFS_SRC_DISCFS_CLIENT_H_
