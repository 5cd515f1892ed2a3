// DiscfsServer — the paper's modified user-level NFS daemon (§5).
//
// Composition per connection:
//   TCP  →  SecureChannel (IKE/IPsec stand-in; binds the client's key)
//        →  RPC dispatch  →  NFS program (with the KeyNote access hook)
//                         →  DisCFS program (credential submission,
//                            credential-returning CREATE/MKDIR, revocation,
//                            handle resolution)
//
// One KeyNote session holds the local POLICY assertions plus every
// credential submitted by clients ("persistent KeyNote session"). Policy
// results are cached in an LRU (paper: 128 entries for the search
// benchmark); the cache is flushed whenever the credential set changes.
#ifndef DISCFS_SRC_DISCFS_SERVER_H_
#define DISCFS_SRC_DISCFS_SERVER_H_

#include <atomic>
#include <memory>
#include <shared_mutex>
#include <string>

#include "src/cluster/event.h"
#include "src/cluster/membership.h"
#include "src/crypto/dsa.h"
#include "src/discfs/policy_cache.h"
#include "src/discfs/protocol.h"
#include "src/discfs/revocation.h"
#include "src/keynote/session.h"
#include "src/lockbox/lockbox.h"
#include "src/nfs/nfs_server.h"
#include "src/obs/metrics.h"
#include "src/obs/recorder.h"
#include "src/obs/trace.h"
#include "src/securechannel/channel.h"
#include "src/util/clock.h"
#include "src/util/rw_mutex.h"
#include "src/vfs/vfs.h"

namespace discfs {

class WorkerPool;

namespace cluster {
class CoherenceFabric;
}  // namespace cluster

struct DiscfsServerConfig {
  // The server's identity: authenticates the secure channel AND signs the
  // credentials minted by CREATE/MKDIR. The default policy trusts it.
  DsaPrivateKey server_key;
  // Local policy assertions (KeyNote text). When empty, a default policy is
  // installed that gives the server key RWX over the whole app domain.
  std::vector<std::string> policy_assertions;
  size_t policy_cache_size = 128;   // paper's search benchmark setting
  int64_t policy_cache_ttl_s = 60;  // bounded staleness for time conditions
  // Verified-signature cache entries (H(key‖digest‖sig) of successful
  // verifies): re-submitted/replayed credentials skip the DSA modexp.
  // 0 disables.
  size_t signature_cache_size = 4096;
  int64_t revocation_horizon_s = 24 * 3600;
  const Clock* clock = nullptr;  // defaults to SystemClock
  // Handshake randomness for the host's channels; defaults to
  // SysRandomBytes.
  std::function<Bytes(size_t)> rand_bytes;
  // Channel keys of peer DisCFS servers allowed to push coherence events
  // (the cluster RPC program rejects everyone else). Empty = this server
  // accepts no remote invalidations.
  std::vector<DsaPublicKey> cluster_trusted_keys;
};

class DiscfsServer {
 public:
  struct Counters {
    std::atomic<uint64_t> keynote_queries{0};
    std::atomic<uint64_t> access_checks{0};
    std::atomic<uint64_t> denials{0};
    std::atomic<uint64_t> credentials_submitted{0};
    std::atomic<uint64_t> remote_events_applied{0};
  };

  static Result<std::unique_ptr<DiscfsServer>> Create(
      std::shared_ptr<Vfs> vfs, DiscfsServerConfig config);

  // The one serving entry point: serves a channel whose handshake already
  // completed (the host's HandshakeReactor drives handshakes on the event
  // loop; no worker ever blocks on a slow peer). Registers the channel on
  // options.loop and returns the live connection.
  Result<std::shared_ptr<RpcConnection>> ServeChannelOnLoop(
      std::unique_ptr<SecureChannel> channel,
      const RpcConnection::Options& options,
      RpcConnection::ClosedFn on_closed = nullptr);

  // --- local administration (not exposed over RPC) ---
  Status AddPolicyAssertion(const std::string& text);
  // Admission is split: the credential is parsed and its signature
  // verified (through the verified-signature cache) with NO lock held;
  // only the install — revocation checks, session insert, scoped
  // invalidation, churn publish — runs under mu_ exclusive. Concurrent
  // submitters overlap their multi-millisecond bignum math instead of
  // serializing the whole server on it.
  Result<std::string> SubmitCredential(const std::string& text);
  // Batch admission: verification fans out across the attached verify
  // pool (the calling thread participates, so the batch completes even if
  // every pool worker is busy), then all verified credentials install
  // under one exclusive lock acquisition. results[i] corresponds to
  // texts[i].
  std::vector<Result<std::string>> SubmitCredentials(
      const std::vector<std::string>& texts);
  Status RemoveCredential(const std::string& credential_id);
  void RevokeKey(const std::string& principal);

  // Shares the host's worker pool for batch-submit verification fan-out.
  // Optional: without one, SubmitCredentials verifies on the calling
  // thread only. Must outlive all serving (hosts tear connections down
  // before the pool).
  void SetVerifyPool(WorkerPool* pool);

  // --- cluster coherence (PR 4) ---
  // Wires the coherence fabric: every local credential-set mutation
  // publishes an invalidation event into it, and the cluster RPC
  // procedures (peer pushes, trust-checked against
  // config.cluster_trusted_keys) forward into it. Must be called before
  // serving starts; the fabric must outlive all serving and local
  // administration.
  void AttachCoherenceFabric(cluster::CoherenceFabric* fabric);

  // Applies one remote churn event: bumps the shipped principal
  // generations (remote-scoped), mirrors revocations into the local
  // revocation list, and expels delegations a revoked key issued here.
  // Never republishes — events travel origin → peers only.
  void ApplyRemoteEvent(const cluster::CoherenceEvent& event);

  // --- cluster liveness & anti-entropy (PR 6) ---
  // Revocation-list views for anti-entropy and state snapshots (the
  // snapshot blob IS the serialized revocation list, so restore = merge).
  Bytes SerializeRevocations() const;
  Bytes RevocationDigest() const;
  // Merges a peer's serialized revocation entries; returns how many were
  // newly learned. New entries get the same local effects as a remotely
  // pushed revocation event: cached grants invalidated, locally installed
  // chains expelled.
  size_t MergeRevocations(const Bytes& blob);

  // --- introspection ---
  const DsaPublicKey& public_key() const {
    return config_.server_key.public_key();
  }
  const Counters& counters() const { return counters_; }

  // One coherent view of every subsystem's statistics (PR 9). Replaces
  // the former cache_stats / cache_coherence_stats / signature_cache_stats
  // / cluster_health accessors; both the kServerStats exposition and the
  // tests read through this.
  struct ServerStatsSnapshot {
    PolicyCache::Stats cache;
    PolicyCache::CoherenceStats coherence;
    // Verified-signature cache telemetry: benches and tests observe
    // replay-skip behavior directly instead of inferring it from timing.
    keynote::VerifiedSignatureCache::Stats signatures;
    // Peer liveness snapshot from the attached fabric (empty standalone).
    cluster::ClusterHealth cluster;
    size_t credential_count = 0;
    size_t revocation_entries = 0;
  };
  ServerStatsSnapshot stats_snapshot() const;

  size_t credential_count() const;
  NfsServer& nfs() { return *nfs_; }
  // Lockbox storage (bench/test telemetry: chunkstore().stats()). Policy
  // enforcement lives in the RPC procedures, not in these objects.
  ChunkStore& chunkstore() { return *chunkstore_; }
  LockboxService& lockbox() { return *lockbox_; }

  // --- observability (PR 9) ---
  // The server's unified metrics registry: every subsystem's Stats struct
  // is exported as gauges, the RPC flight recorder feeds span histograms,
  // and kServerStats serves PrometheusText()/Json() from it.
  obs::MetricsRegistry& metrics() { return metrics_; }
  // Flight recorder the host wires into each connection's options.
  obs::RpcRecorder& recorder() { return recorder_; }
  // Trace observations ("rpc", "publish", "apply", "anti-entropy") seen at
  // this node; the fault harness asserts cross-node propagation through it.
  const obs::TraceLog& trace_log() const { return trace_log_; }

  // Direct policy evaluation (bench/test entry): full RWX mask `principal`
  // holds on `inode`, going through the cache.
  uint32_t EffectiveMask(const std::string& principal, uint32_t inode);

  // Zeroes counters and cache statistics (cache contents survive) so a
  // benchmark can report one phase in isolation.
  void ResetTelemetry();

 private:
  DiscfsServer(std::shared_ptr<Vfs> vfs, DiscfsServerConfig config);

  Status CheckAccess(const NfsAccessRequest& request);
  uint32_t QueryMaskLocked(const std::string& principal, uint32_t inode)
      /* requires mu_ (shared suffices; cache_ synchronizes itself) */;
  // Installs a credential whose signature has already been verified:
  // revocation checks, session insert, invalidation, churn publish.
  Result<std::string> InstallCredentialLocked(keynote::Assertion assertion)
      /* requires mu_ exclusive */;
  // Bumps the cache generation of every principal whose delegation chain
  // passes through credential `id`; entries for everyone else stay warm.
  // Returns the affected set — the closure hint shipped in coherence
  // events (computed while the chain is still installed).
  std::vector<std::string> InvalidateAffectedLocked(
      const std::string& credential_id) /* requires mu_ exclusive */;
  // Appends a churn event to the fabric (no-op without one).
  void PublishChurnLocked(cluster::CoherenceEvent event)
      /* requires mu_ exclusive */;
  void RegisterDiscfsProcs();
  void RegisterLockboxProcs();
  void RegisterClusterProcs();
  // Assigns every registered procedure its shed class (PR 10): control
  // plane (revocations, credential submits, cluster coherence, stats) is
  // shed last, data reads/writes first. See docs/OVERLOAD.md.
  void ClassifyProcPriorities();
  // Wraps every subsystem's Stats struct in registry gauges (scrape-time
  // callbacks; no hot-path cost).
  void RegisterServerMetrics();
  // Peer liveness snapshot from the attached fabric (empty standalone).
  cluster::ClusterHealth cluster_health() const;

  std::shared_ptr<Vfs> vfs_;
  DiscfsServerConfig config_;
  const Clock* clock_;
  std::unique_ptr<NfsServer> nfs_;
  std::unique_ptr<ChunkStore> chunkstore_;
  std::unique_ptr<LockboxService> lockbox_;
  RpcDispatcher dispatcher_;

  // Readers (access checks, mask queries) take mu_ shared and can run
  // concurrently; credential churn and policy installation take it
  // exclusive. A waiting writer goes ahead of new readers, so a stream of
  // access checks cannot starve a revocation; no path takes mu_ while
  // already holding it. The policy cache has its own internal locking.
  mutable WriterPreferringMutex mu_;
  keynote::KeyNoteSession session_;
  PolicyCache cache_;
  RevocationList revocation_;
  // Internally synchronized; touched outside mu_ on purpose (the whole
  // point is that signature verification holds no server lock).
  keynote::VerifiedSignatureCache sig_cache_;
  Counters counters_;
  // Set once before serving starts (SetVerifyPool); null when no host
  // provides one.
  WorkerPool* verify_pool_ = nullptr;
  // Set once before serving starts (AttachCoherenceFabric); null when
  // this server runs standalone.
  cluster::CoherenceFabric* fabric_ = nullptr;

  // Observability (PR 9). Declared after the subsystems the registered
  // gauges read; gauge callbacks only run from RPC handlers and direct
  // scrapes, both quiesced before destruction begins.
  obs::MetricsRegistry metrics_;
  obs::RpcRecorder recorder_{&metrics_};
  obs::TraceLog trace_log_;
};

}  // namespace discfs

#endif  // DISCFS_SRC_DISCFS_SERVER_H_
