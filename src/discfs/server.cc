#include "src/discfs/server.h"

#include <algorithm>
#include <condition_variable>

#include "src/cluster/fabric.h"
#include "src/cluster/protocol.h"
#include "src/discfs/action_env.h"
#include "src/discfs/credentials.h"
#include "src/util/strings.h"
#include "src/util/worker_pool.h"
#include "src/wire/xdr.h"

namespace discfs {
namespace {

std::string DefaultPolicy(const DsaPublicKey& server_key) {
  return "Authorizer: \"POLICY\"\n"
         "Licensees: \"" + server_key.ToKeyNoteString() + "\"\n"
         "Conditions: app_domain == \"" + std::string(kAppDomain) +
         "\" -> \"RWX\";\n";
}

}  // namespace

DiscfsServer::DiscfsServer(std::shared_ptr<Vfs> vfs,
                           DiscfsServerConfig config)
    : vfs_(vfs),
      config_(std::move(config)),
      clock_(config_.clock != nullptr ? config_.clock : SystemClock::Get()),
      nfs_(std::make_unique<NfsServer>(std::move(vfs))),
      chunkstore_(std::make_unique<ChunkStore>(nfs_.get())),
      lockbox_(std::make_unique<LockboxService>(nfs_.get(), chunkstore_.get())),
      session_(keynote::PermissionLattice::Get()),
      cache_(config_.policy_cache_size, config_.policy_cache_ttl_s),
      revocation_(config_.revocation_horizon_s),
      sig_cache_(config_.signature_cache_size) {}

Result<std::unique_ptr<DiscfsServer>> DiscfsServer::Create(
    std::shared_ptr<Vfs> vfs, DiscfsServerConfig config) {
  auto server = std::unique_ptr<DiscfsServer>(
      new DiscfsServer(std::move(vfs), std::move(config)));
  if (server->config_.policy_assertions.empty()) {
    RETURN_IF_ERROR(server->session_.AddPolicyAssertion(
        DefaultPolicy(server->public_key())));
  } else {
    for (const std::string& policy : server->config_.policy_assertions) {
      RETURN_IF_ERROR(server->session_.AddPolicyAssertion(policy));
    }
  }
  server->nfs_->set_access_hook([srv = server.get()](
                                    const NfsAccessRequest& request) {
    return srv->CheckAccess(request);
  });
  server->nfs_->RegisterAll(server->dispatcher_);
  server->RegisterDiscfsProcs();
  server->RegisterLockboxProcs();
  server->RegisterClusterProcs();
  server->ClassifyProcPriorities();
  server->RegisterServerMetrics();
  return server;
}

void DiscfsServer::ClassifyProcPriorities() {
  // Control plane: operations that change or replicate the authorization
  // state. Shedding a revocation under load would leave revoked keys live
  // exactly when an attacker can cheaply create load, so these classes
  // only shed at the hard admission limit.
  for (DiscfsProc proc :
       {DiscfsProc::kSubmitCredential, DiscfsProc::kRemoveCredential,
        DiscfsProc::kRevokeKey, DiscfsProc::kSubmitCredentialBatch,
        DiscfsProc::kServerInfo, DiscfsProc::kServerStats}) {
    dispatcher_.SetPriority(kDiscfsProgram, static_cast<uint32_t>(proc),
                            RpcPriority::kControl);
  }
  for (cluster::ClusterProc proc :
       {cluster::ClusterProc::kHello, cluster::ClusterProc::kPush,
        cluster::ClusterProc::kClusterStatus,
        cluster::ClusterProc::kRevocationSync}) {
    dispatcher_.SetPriority(cluster::kClusterProgram,
                            static_cast<uint32_t>(proc),
                            RpcPriority::kControl);
  }
  // Data plane: bulk reads/writes shed first — a retried READ is cheap,
  // and shedding it keeps namespace and control latency flat.
  for (NfsProc proc : {NfsProc::kNull, NfsProc::kGetAttr, NfsProc::kRead,
                       NfsProc::kWrite, NfsProc::kReadLink, NfsProc::kReadDir,
                       NfsProc::kStatFs}) {
    dispatcher_.SetPriority(kNfsProgram, static_cast<uint32_t>(proc),
                            RpcPriority::kData);
  }
  for (DiscfsProc proc : {DiscfsProc::kPutLockbox, DiscfsProc::kGetLockbox}) {
    dispatcher_.SetPriority(kDiscfsProgram, static_cast<uint32_t>(proc),
                            RpcPriority::kData);
  }
  // Everything else (namespace mutation, lookup, credential-returning
  // CREATE/MKDIR, handle resolution, lockbox grants) keeps the default
  // middle tier, kNamespace.
}

Result<std::shared_ptr<RpcConnection>> DiscfsServer::ServeChannelOnLoop(
    std::unique_ptr<SecureChannel> channel,
    const RpcConnection::Options& options, RpcConnection::ClosedFn on_closed) {
  RpcContext ctx;
  ctx.peer_key = channel->peer_key();
  RpcConnection::Options opts = options;
  if (opts.recorder == nullptr) {
    opts.recorder = &recorder_;  // flight-record every loop-served call
  }
  return RpcConnection::Start(&dispatcher_, std::move(channel),
                              std::move(ctx), opts, std::move(on_closed));
}

Status DiscfsServer::CheckAccess(const NfsAccessRequest& request) {
  counters_.access_checks.fetch_add(1, std::memory_order_relaxed);
  if (request.ctx == nullptr || !request.ctx->peer_key.has_value()) {
    counters_.denials.fetch_add(1, std::memory_order_relaxed);
    return UnauthenticatedError("no authenticated peer key");
  }
  std::string principal = request.ctx->peer_key->ToKeyNoteString();

  std::shared_lock<std::shared_mutex> lock(mu_);
  if (revocation_.IsKeyRevoked(principal, clock_->NowUnix())) {
    counters_.denials.fetch_add(1, std::memory_order_relaxed);
    return PermissionDeniedError("key has been revoked");
  }
  if (request.needed == 0) {
    return OkStatus();  // getattr-class operations: holding the handle is
                        // enough (the attach directory shows mode 000)
  }
  uint32_t mask = QueryMaskLocked(principal, request.fh.inode);
  if ((mask & request.needed) != request.needed) {
    counters_.denials.fetch_add(1, std::memory_order_relaxed);
    return PermissionDeniedError(StrPrintf(
        "policy grants \"%s\" but \"%s\" required for %s on handle %u",
        keynote::PermissionLattice::Get().Name(mask).c_str(),
        keynote::PermissionLattice::Get().Name(request.needed).c_str(),
        NfsProcName(request.proc), request.fh.inode));
  }
  return OkStatus();
}

uint32_t DiscfsServer::QueryMaskLocked(const std::string& principal,
                                       uint32_t inode) {
  int64_t now = clock_->NowUnix();
  if (auto cached = cache_.Get(principal, inode, now); cached.has_value()) {
    return *cached;
  }
  counters_.keynote_queries.fetch_add(1, std::memory_order_relaxed);
  keynote::ComplianceQuery query;
  // The cached unit is the full RWX mask per (principal, handle); the env
  // therefore describes a generic access, not one specific procedure.
  query.attributes =
      BuildActionEnv(NfsProc::kNull, inode, /*needed_mask=*/0, *clock_);
  query.attributes["operation"] = "access";
  query.action_authorizers = {principal};
  uint32_t mask = session_.Query(query);
  cache_.Put(principal, inode, mask, now);
  return mask;
}

uint32_t DiscfsServer::EffectiveMask(const std::string& principal,
                                     uint32_t inode) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return QueryMaskLocked(principal, inode);
}

Status DiscfsServer::AddPolicyAssertion(const std::string& text) {
  std::lock_guard<std::shared_mutex> lock(mu_);
  RETURN_IF_ERROR(session_.AddPolicyAssertion(text));
  cache_.InvalidateAll();  // policy roots affect every principal
  cluster::CoherenceEvent event;
  event.type = cluster::CoherenceEvent::Type::kInvalidateAll;
  PublishChurnLocked(std::move(event));
  return OkStatus();
}

std::vector<std::string> DiscfsServer::InvalidateAffectedLocked(
    const std::string& credential_id) {
  std::vector<std::string> affected =
      session_.AffectedRequesters(credential_id);
  for (const std::string& principal : affected) {
    cache_.InvalidatePrincipal(principal);
  }
  return affected;
}

void DiscfsServer::PublishChurnLocked(cluster::CoherenceEvent event) {
  // The mutating operation's trace id (thread-local, installed by the RPC
  // runtime or a local TraceScope) rides the event to every peer.
  event.trace_id = obs::CurrentTraceId();
  trace_log_.Record(event.trace_id, "publish");
  if (fabric_ != nullptr) {
    fabric_->Publish(std::move(event));
  }
}

Result<std::string> DiscfsServer::InstallCredentialLocked(
    keynote::Assertion assertion) {
  int64_t now = clock_->NowUnix();
  revocation_.Expire(now);
  std::string authorizer = assertion.authorizer();
  ASSIGN_OR_RETURN(std::string id,
                   session_.AddVerifiedCredential(std::move(assertion)));
  // Revocation is server state, so this check belongs under the lock: a
  // signature-cache hit skips the modexp, never this.
  if (revocation_.IsCredentialRevoked(id, now) ||
      revocation_.IsKeyRevoked(authorizer, now)) {
    (void)session_.RemoveCredential(id);
    return PermissionDeniedError("credential or issuing key is revoked");
  }
  counters_.credentials_submitted.fetch_add(1, std::memory_order_relaxed);
  cluster::CoherenceEvent event;
  event.type = cluster::CoherenceEvent::Type::kSubmit;
  event.credential_id = id;
  event.principals = InvalidateAffectedLocked(id);
  PublishChurnLocked(std::move(event));
  return id;
}

Result<std::string> DiscfsServer::SubmitCredential(const std::string& text) {
  // Parse + verify with no lock held: signature validity depends only on
  // the credential bytes, and the signature cache synchronizes itself.
  ASSIGN_OR_RETURN(keynote::Assertion assertion,
                   keynote::KeyNoteSession::ParseAndVerifyCredential(
                       text, &sig_cache_));
  std::lock_guard<std::shared_mutex> lock(mu_);
  return InstallCredentialLocked(std::move(assertion));
}

std::vector<Result<std::string>> DiscfsServer::SubmitCredentials(
    const std::vector<std::string>& texts) {
  const size_t n = texts.size();
  std::vector<Result<keynote::Assertion>> verified;
  verified.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    verified.emplace_back(UnavailableError("not verified"));
  }

  // Verification fan-out. Items are claimed from a shared counter; the
  // calling thread works the same loop as the pool helpers, so the batch
  // finishes even if no helper ever gets scheduled — which also makes it
  // safe to call from a pool worker (an RPC handler): the caller never
  // parks waiting for pool capacity it might itself be occupying.
  struct Shared {
    std::atomic<size_t> next{0};
    std::mutex mu;
    std::condition_variable cv;
    size_t done = 0;
  };
  auto shared = std::make_shared<Shared>();
  // Late-running helpers only touch `shared` (kept alive by the
  // shared_ptr): once `done == n` every index has been claimed and
  // completed, so a straggler's claim fails before it ever dereferences
  // the caller-owned vectors.
  auto work = [this, shared, &texts, &verified, n] {
    while (true) {
      size_t i = shared->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) {
        break;
      }
      Result<keynote::Assertion> r =
          keynote::KeyNoteSession::ParseAndVerifyCredential(texts[i],
                                                            &sig_cache_);
      verified[i] = std::move(r);
      std::lock_guard<std::mutex> lock(shared->mu);
      if (++shared->done == n) {
        shared->cv.notify_all();
      }
    }
  };
  size_t helpers =
      (verify_pool_ != nullptr && n > 1) ? std::min(verify_pool_->size(), n - 1)
                                         : 0;
  for (size_t h = 0; h < helpers; ++h) {
    verify_pool_->Submit(work);
  }
  work();
  {
    std::unique_lock<std::mutex> lock(shared->mu);
    shared->cv.wait(lock, [&] { return shared->done == n; });
  }

  // One exclusive acquisition installs the whole batch.
  std::vector<Result<std::string>> results;
  results.reserve(n);
  std::lock_guard<std::shared_mutex> lock(mu_);
  for (auto& v : verified) {
    if (v.ok()) {
      results.push_back(InstallCredentialLocked(std::move(v).value()));
    } else {
      results.push_back(v.status());
    }
  }
  return results;
}

void DiscfsServer::SetVerifyPool(WorkerPool* pool) { verify_pool_ = pool; }

Status DiscfsServer::RemoveCredential(const std::string& credential_id) {
  std::lock_guard<std::shared_mutex> lock(mu_);
  revocation_.RevokeCredential(credential_id, clock_->NowUnix(),
                               obs::CurrentTraceId());
  // Compute the closure while the chain is still known (empty when the
  // credential was never installed here).
  cluster::CoherenceEvent event;
  event.type = cluster::CoherenceEvent::Type::kRemove;
  event.credential_id = credential_id;
  event.principals = InvalidateAffectedLocked(credential_id);
  // Publish even when the credential is unknown locally: the revocation
  // list entry above is already effective on this server, and a peer that
  // does hold the credential recomputes its own closure on receipt.
  PublishChurnLocked(std::move(event));
  return session_.RemoveCredential(credential_id);
}

void DiscfsServer::RevokeKey(const std::string& principal) {
  std::lock_guard<std::shared_mutex> lock(mu_);
  int64_t now = clock_->NowUnix();
  uint64_t trace = obs::CurrentTraceId();
  revocation_.RevokeKey(principal, now, trace);
  cluster::CoherenceEvent event;
  event.type = cluster::CoherenceEvent::Type::kRevokeKey;
  event.principal = principal;
  // Delegations issued by the revoked key stop contributing immediately.
  for (const std::string& id :
       session_.CredentialIdsByAuthorizer(principal)) {
    revocation_.RevokeCredential(id, now, trace);
    for (std::string& p : InvalidateAffectedLocked(id)) {
      event.principals.push_back(std::move(p));
    }
    (void)session_.RemoveCredential(id);
  }
  // The key's own cached grants must not outlive its revocation.
  cache_.InvalidatePrincipal(principal);
  std::sort(event.principals.begin(), event.principals.end());
  event.principals.erase(
      std::unique(event.principals.begin(), event.principals.end()),
      event.principals.end());
  PublishChurnLocked(std::move(event));
}

void DiscfsServer::ResetTelemetry() {
  std::lock_guard<std::shared_mutex> lock(mu_);
  cache_.ResetStats();
  sig_cache_.ResetStats();
  counters_.keynote_queries.store(0, std::memory_order_relaxed);
  counters_.access_checks.store(0, std::memory_order_relaxed);
  counters_.denials.store(0, std::memory_order_relaxed);
}

DiscfsServer::ServerStatsSnapshot DiscfsServer::stats_snapshot() const {
  ServerStatsSnapshot snap;
  snap.cache = cache_.stats();            // internally synchronized
  snap.coherence = cache_.coherence_stats();
  snap.signatures = sig_cache_.stats();   // internally synchronized
  snap.cluster = cluster_health();
  std::shared_lock<std::shared_mutex> lock(mu_);
  snap.credential_count = session_.credential_count();
  snap.revocation_entries = revocation_.size();
  return snap;
}

void DiscfsServer::AttachCoherenceFabric(cluster::CoherenceFabric* fabric) {
  fabric_ = fabric;
}

void DiscfsServer::ApplyRemoteEvent(const cluster::CoherenceEvent& event) {
  std::lock_guard<std::shared_mutex> lock(mu_);
  counters_.remote_events_applied.fetch_add(1, std::memory_order_relaxed);
  trace_log_.Record(event.trace_id, "apply");
  int64_t now = clock_->NowUnix();
  switch (event.type) {
    case cluster::CoherenceEvent::Type::kSubmit:
      // A credential admitted elsewhere may widen the listed principals'
      // masks; drop their cached results so the next check recomputes.
      for (const std::string& principal : event.principals) {
        cache_.InvalidatePrincipalRemote(principal);
      }
      break;
    case cluster::CoherenceEvent::Type::kRemove:
      revocation_.RevokeCredential(event.credential_id, now, event.trace_id);
      if (session_.HasCredential(event.credential_id)) {
        // Our own delegation graph may reach principals the origin's did
        // not; invalidate the local closure too, then expel the chain.
        for (const std::string& principal :
             session_.AffectedRequesters(event.credential_id)) {
          cache_.InvalidatePrincipalRemote(principal);
        }
        (void)session_.RemoveCredential(event.credential_id);
      }
      for (const std::string& principal : event.principals) {
        cache_.InvalidatePrincipalRemote(principal);
      }
      break;
    case cluster::CoherenceEvent::Type::kRevokeKey:
      revocation_.RevokeKey(event.principal, now, event.trace_id);
      for (const std::string& id :
           session_.CredentialIdsByAuthorizer(event.principal)) {
        revocation_.RevokeCredential(id, now, event.trace_id);
        for (const std::string& principal : session_.AffectedRequesters(id)) {
          cache_.InvalidatePrincipalRemote(principal);
        }
        (void)session_.RemoveCredential(id);
      }
      cache_.InvalidatePrincipalRemote(event.principal);
      for (const std::string& principal : event.principals) {
        cache_.InvalidatePrincipalRemote(principal);
      }
      break;
    case cluster::CoherenceEvent::Type::kInvalidateAll:
      cache_.InvalidateAll();
      break;
  }
}

cluster::ClusterHealth DiscfsServer::cluster_health() const {
  return fabric_ == nullptr ? cluster::ClusterHealth{} : fabric_->Health();
}

Bytes DiscfsServer::SerializeRevocations() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return revocation_.SerializeEntries(clock_->NowUnix());
}

Bytes DiscfsServer::RevocationDigest() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return revocation_.Digest(clock_->NowUnix());
}

size_t DiscfsServer::MergeRevocations(const Bytes& blob) {
  std::lock_guard<std::shared_mutex> lock(mu_);
  int64_t now = clock_->NowUnix();
  auto merged = revocation_.MergeSerialized(blob, now);
  if (!merged.ok()) {
    return 0;  // malformed peer blob: learn nothing, change nothing
  }
  // Newly learned entries get the same local effects as a pushed
  // revocation event would have had (ApplyRemoteEvent's kRemove /
  // kRevokeKey arms), minus the origin's closure hints — our own
  // delegation graph supplies the affected principals.
  for (const RevocationList::MergeResult::NewEntry& entry :
       merged->new_credentials) {
    trace_log_.Record(entry.trace_id, "anti-entropy", "credential");
    if (session_.HasCredential(entry.id)) {
      for (const std::string& principal :
           session_.AffectedRequesters(entry.id)) {
        cache_.InvalidatePrincipalRemote(principal);
      }
      (void)session_.RemoveCredential(entry.id);
    }
  }
  for (const RevocationList::MergeResult::NewEntry& entry :
       merged->new_keys) {
    trace_log_.Record(entry.trace_id, "anti-entropy", "key");
    for (const std::string& id :
         session_.CredentialIdsByAuthorizer(entry.id)) {
      revocation_.RevokeCredential(id, now, entry.trace_id);
      for (const std::string& principal : session_.AffectedRequesters(id)) {
        cache_.InvalidatePrincipalRemote(principal);
      }
      (void)session_.RemoveCredential(id);
    }
    cache_.InvalidatePrincipalRemote(entry.id);
  }
  return merged->new_keys.size() + merged->new_credentials.size();
}

size_t DiscfsServer::credential_count() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return session_.credential_count();
}

void DiscfsServer::RegisterDiscfsProcs() {
  auto reg = [&](DiscfsProc proc, auto handler) {
    dispatcher_.Register(kDiscfsProgram, static_cast<uint32_t>(proc),
                         handler);
  };

  reg(DiscfsProc::kSubmitCredential,
      [this](const Bytes& args, const RpcContext&) -> Result<Bytes> {
        XdrReader r(args);
        ASSIGN_OR_RETURN(std::string text, r.GetString(1 << 20));
        ASSIGN_OR_RETURN(std::string id, SubmitCredential(text));
        XdrWriter w;
        w.PutString(id);
        return w.Take();
      });

  reg(DiscfsProc::kSubmitCredentialBatch,
      [this](const Bytes& args, const RpcContext&) -> Result<Bytes> {
        XdrReader r(args);
        ASSIGN_OR_RETURN(uint32_t count, r.GetU32());
        if (count > kMaxCredentialBatch) {
          return InvalidArgumentError(
              StrPrintf("batch of %u exceeds the %u-credential bound", count,
                        kMaxCredentialBatch));
        }
        std::vector<std::string> texts;
        texts.reserve(count);
        for (uint32_t i = 0; i < count; ++i) {
          ASSIGN_OR_RETURN(std::string text, r.GetString(1 << 20));
          texts.push_back(std::move(text));
        }
        std::vector<Result<std::string>> results = SubmitCredentials(texts);
        XdrWriter w;
        w.PutU32(static_cast<uint32_t>(results.size()));
        for (const Result<std::string>& result : results) {
          w.PutU32(static_cast<uint32_t>(result.status().code()));
          w.PutString(result.ok() ? result.value()
                                  : result.status().message());
        }
        return w.Take();
      });

  reg(DiscfsProc::kRemoveCredential,
      [this](const Bytes& args, const RpcContext& ctx) -> Result<Bytes> {
        XdrReader r(args);
        ASSIGN_OR_RETURN(std::string id, r.GetString());
        if (!ctx.peer_key.has_value()) {
          return UnauthenticatedError("no authenticated peer key");
        }
        {
          // Only the credential's issuer may withdraw it remotely; the
          // administrator uses the local API.
          std::shared_lock<std::shared_mutex> lock(mu_);
          const keynote::Assertion* credential = session_.FindCredential(id);
          if (credential == nullptr) {
            return NotFoundError("no credential with id " + id);
          }
          if (credential->authorizer() !=
              ctx.peer_key->ToKeyNoteString()) {
            return PermissionDeniedError(
                "only the issuer may remove a credential");
          }
        }
        trace_log_.Record(ctx.trace_id, "rpc", "remove-credential");
        RETURN_IF_ERROR(RemoveCredential(id));
        return Bytes();
      });

  reg(DiscfsProc::kRevokeKey,
      [this](const Bytes& args, const RpcContext& ctx) -> Result<Bytes> {
        XdrReader r(args);
        ASSIGN_OR_RETURN(std::string principal, r.GetString(1 << 20));
        if (!ctx.peer_key.has_value()) {
          return UnauthenticatedError("no authenticated peer key");
        }
        // A key may revoke itself (compromise recovery); everything else is
        // the administrator's call, via the local API.
        if (ctx.peer_key->ToKeyNoteString() != principal) {
          return PermissionDeniedError(
              "remote revocation is limited to the requesting key itself");
        }
        trace_log_.Record(ctx.trace_id, "rpc", "revoke-key");
        RevokeKey(principal);
        return Bytes();
      });

  auto make_with_credential = [this](bool mkdir) {
    return [this, mkdir](const Bytes& args,
                         const RpcContext& ctx) -> Result<Bytes> {
      XdrReader r(args);
      ASSIGN_OR_RETURN(NfsFh dir, ReadFh(r));
      ASSIGN_OR_RETURN(std::string name, r.GetString());
      ASSIGN_OR_RETURN(uint32_t mode, r.GetU32());
      if (!ctx.peer_key.has_value()) {
        return UnauthenticatedError("no authenticated peer key");
      }
      // Same check the plain NFS CREATE runs: write access to the parent.
      NfsAccessRequest access;
      access.proc = mkdir ? NfsProc::kMkdir : NfsProc::kCreate;
      access.fh = dir;
      access.needed = 2;  // W
      access.ctx = &ctx;
      RETURN_IF_ERROR(CheckAccess(access));

      ASSIGN_OR_RETURN(NfsFattr attr, mkdir ? nfs_->Mkdir(dir, name, mode)
                                            : nfs_->Create(dir, name, mode));

      // Mint the creator's credential (the paper's augmented procedure:
      // "upon successful creation ... return a credential with full access
      // to the creator of the file").
      CredentialOptions options;
      options.permissions = "RWX";
      options.comment = name;
      ASSIGN_OR_RETURN(
          std::string credential,
          IssueCredential(config_.server_key, *ctx.peer_key,
                          HandleString(attr.fh.inode), options));
      // Admit it immediately so the creator can use the file without a
      // resubmission round-trip.
      RETURN_IF_ERROR(SubmitCredential(credential).status());

      XdrWriter w;
      WriteFattr(w, attr);
      w.PutString(credential);
      return w.Take();
    };
  };
  reg(DiscfsProc::kCreateReturnsCred, make_with_credential(false));
  reg(DiscfsProc::kMkdirReturnsCred, make_with_credential(true));

  reg(DiscfsProc::kResolveHandle,
      [this](const Bytes& args, const RpcContext& ctx) -> Result<Bytes> {
        XdrReader r(args);
        ASSIGN_OR_RETURN(uint32_t inode, r.GetU32());
        if (!ctx.peer_key.has_value()) {
          return UnauthenticatedError("no authenticated peer key");
        }
        // The file only "appears" once some credential grants the requester
        // something on it.
        uint32_t mask =
            EffectiveMask(ctx.peer_key->ToKeyNoteString(), inode);
        if (mask == 0) {
          return PermissionDeniedError(
              "no credential covers this handle for the requesting key");
        }
        ASSIGN_OR_RETURN(InodeAttr attr, vfs_->GetAttr(inode));
        XdrWriter w;
        WriteFattr(w, FattrFromInode(attr));
        return w.Take();
      });

  reg(DiscfsProc::kServerInfo,
      [this](const Bytes&, const RpcContext&) -> Result<Bytes> {
        XdrWriter w;
        w.PutString(public_key().ToKeyNoteString());
        w.PutU64(counters_.keynote_queries.load(std::memory_order_relaxed));
        ServerStatsSnapshot stats = stats_snapshot();
        w.PutU64(stats.cache.hits);
        w.PutU64(stats.cache.misses);
        w.PutU32(static_cast<uint32_t>(stats.credential_count));
        return w.Take();
      });

  reg(DiscfsProc::kServerStats,
      [this](const Bytes& args, const RpcContext& ctx) -> Result<Bytes> {
        XdrReader r(args);
        ASSIGN_OR_RETURN(uint32_t format, r.GetU32());
        if (format > 1) {
          return InvalidArgumentError(
              StrPrintf("unknown stats format %u (0 = Prometheus text, "
                        "1 = JSON)",
                        format));
        }
        trace_log_.Record(ctx.trace_id, "rpc", "server-stats");
        XdrWriter w;
        w.PutString(format == 0 ? metrics_.PrometheusText()
                                : metrics_.Json());
        return w.Take();
      });
}

void DiscfsServer::RegisterLockboxProcs() {
  auto reg = [&](DiscfsProc proc, auto handler) {
    dispatcher_.Register(kDiscfsProgram, static_cast<uint32_t>(proc),
                         handler);
  };

  // Admission shared by all four procedures: the same CheckAccess the NFS
  // hook runs, so a key revocation (local or coherence-propagated) that
  // denies READ/WRITE denies the lockbox operation identically.
  auto check = [this](const RpcContext& ctx, NfsProc proc, const NfsFh& fh,
                      uint32_t needed) -> Status {
    if (!ctx.peer_key.has_value()) {
      return UnauthenticatedError("no authenticated peer key");
    }
    NfsAccessRequest access;
    access.proc = proc;
    access.fh = fh;
    access.needed = needed;
    access.ctx = &ctx;
    return CheckAccess(access);
  };

  reg(DiscfsProc::kPutLockbox,
      [this, check](const Bytes& args, const RpcContext& ctx) -> Result<Bytes> {
        XdrReader r(args);
        ASSIGN_OR_RETURN(NfsFh fh, ReadFh(r));
        RETURN_IF_ERROR(check(ctx, NfsProc::kWrite, fh, /*needed=*/2));
        wire::LockboxRecord record;
        record.handle = fh.inode;
        record.owner = ctx.peer_key->ToKeyNoteString();
        ASSIGN_OR_RETURN(record.sealed, r.GetBool());
        ASSIGN_OR_RETURN(record.chunk_size, r.GetU32());
        ASSIGN_OR_RETURN(Bytes payload, r.GetOpaque(kMaxLockboxPayload));
        ASSIGN_OR_RETURN(uint32_t entry_count, r.GetU32());
        if (entry_count > wire::LockboxRecord::kMaxEntries) {
          return InvalidArgumentError("lockbox entry list too large");
        }
        record.entries.reserve(entry_count);
        for (uint32_t i = 0; i < entry_count; ++i) {
          wire::LockboxEntry entry;
          ASSIGN_OR_RETURN(entry.recipient, r.GetString(1 << 16));
          ASSIGN_OR_RETURN(entry.wrapped_key, r.GetOpaque(1 << 13));
          record.entries.push_back(std::move(entry));
        }
        ASSIGN_OR_RETURN(wire::LockboxRecord stored,
                         lockbox_->Put(std::move(record), payload));
        XdrWriter w;
        w.PutOpaque(wire::EncodeLockboxRecord(stored));
        return w.Take();
      });

  reg(DiscfsProc::kGetLockbox,
      [this, check](const Bytes& args, const RpcContext& ctx) -> Result<Bytes> {
        XdrReader r(args);
        ASSIGN_OR_RETURN(NfsFh fh, ReadFh(r));
        RETURN_IF_ERROR(check(ctx, NfsProc::kRead, fh, /*needed=*/4));
        ASSIGN_OR_RETURN(LockboxService::Box box, lockbox_->Get(fh.inode));
        XdrWriter w;
        w.PutOpaque(wire::EncodeLockboxRecord(box.record));
        w.PutOpaque(box.payload);
        return w.Take();
      });

  reg(DiscfsProc::kGrantAccess,
      [this, check](const Bytes& args, const RpcContext& ctx) -> Result<Bytes> {
        XdrReader r(args);
        ASSIGN_OR_RETURN(NfsFh fh, ReadFh(r));
        wire::LockboxEntry entry;
        ASSIGN_OR_RETURN(entry.recipient, r.GetString(1 << 16));
        ASSIGN_OR_RETURN(entry.wrapped_key, r.GetOpaque(1 << 13));
        // R suffices: a reader can already unwrap the content key and pass
        // it along out of band; recording an entry adds no authority.
        RETURN_IF_ERROR(check(ctx, NfsProc::kRead, fh, /*needed=*/4));
        RETURN_IF_ERROR(lockbox_->Grant(fh.inode, entry));
        return Bytes();
      });

  reg(DiscfsProc::kRevokeAccess,
      [this, check](const Bytes& args, const RpcContext& ctx) -> Result<Bytes> {
        XdrReader r(args);
        ASSIGN_OR_RETURN(NfsFh fh, ReadFh(r));
        ASSIGN_OR_RETURN(std::string recipient, r.GetString(1 << 16));
        if (!ctx.peer_key.has_value()) {
          return UnauthenticatedError("no authenticated peer key");
        }
        // W, or owning the record: the owner must be able to cut off a
        // recipient even after their own W delegation lapsed.
        Status writable = check(ctx, NfsProc::kWrite, fh, /*needed=*/2);
        if (!writable.ok()) {
          ASSIGN_OR_RETURN(wire::LockboxRecord record,
                           lockbox_->GetRecord(fh.inode));
          if (record.owner != ctx.peer_key->ToKeyNoteString()) {
            return writable;
          }
        }
        RETURN_IF_ERROR(lockbox_->Revoke(fh.inode, recipient));
        return Bytes();
      });
}

void DiscfsServer::RegisterClusterProcs() {
  // Only configured peer servers may speak the coherence program: a fake
  // push is at best a cache flush, at worst a forged revocation, or —
  // subtlest — a cursor poisoned under another origin's name that makes
  // every future event from that origin dedup away. The last is why the
  // claimed origin must equal the authenticated channel key (a node's id
  // IS its public key string), not merely belong to *a* trusted peer.
  auto check_peer = [this](const RpcContext& ctx,
                           const std::string& origin) -> Status {
    if (!ctx.peer_key.has_value()) {
      return UnauthenticatedError("no authenticated peer key");
    }
    if (origin != ctx.peer_key->ToKeyNoteString()) {
      return PermissionDeniedError(
          "origin does not match the authenticated peer key");
    }
    for (const DsaPublicKey& key : config_.cluster_trusted_keys) {
      if (key == *ctx.peer_key) {
        return OkStatus();
      }
    }
    return PermissionDeniedError(
        "peer key is not a trusted cluster member");
  };

  dispatcher_.Register(
      cluster::kClusterProgram,
      static_cast<uint32_t>(cluster::ClusterProc::kHello),
      [this, check_peer](const Bytes& args,
                         const RpcContext& ctx) -> Result<Bytes> {
        if (fabric_ == nullptr) {
          return FailedPreconditionError("no coherence fabric attached");
        }
        ASSIGN_OR_RETURN(cluster::HelloRequest hello,
                         cluster::DecodeHello(args));
        RETURN_IF_ERROR(check_peer(ctx, hello.origin));
        XdrWriter w;
        w.PutU64(fabric_->HandleHello(hello.origin, hello.incarnation,
                                      hello.head_seq, hello.listen_addr));
        return w.Take();
      });

  dispatcher_.Register(
      cluster::kClusterProgram,
      static_cast<uint32_t>(cluster::ClusterProc::kPush),
      [this, check_peer](const Bytes& args,
                         const RpcContext& ctx) -> Result<Bytes> {
        if (fabric_ == nullptr) {
          return FailedPreconditionError("no coherence fabric attached");
        }
        ASSIGN_OR_RETURN(cluster::PushRequest request,
                         cluster::DecodePush(args));
        RETURN_IF_ERROR(check_peer(ctx, request.origin));
        XdrWriter w;
        w.PutU64(fabric_->HandlePush(request.origin, request.events));
        return w.Take();
      });

  dispatcher_.Register(
      cluster::kClusterProgram,
      static_cast<uint32_t>(cluster::ClusterProc::kClusterStatus),
      [this, check_peer](const Bytes& args,
                         const RpcContext& ctx) -> Result<Bytes> {
        if (fabric_ == nullptr) {
          return FailedPreconditionError("no coherence fabric attached");
        }
        ASSIGN_OR_RETURN(cluster::StatusRequest request,
                         cluster::DecodeStatusRequest(args));
        RETURN_IF_ERROR(check_peer(ctx, request.origin));
        return cluster::EncodeStatusReply(fabric_->HandleStatus(request));
      });

  dispatcher_.Register(
      cluster::kClusterProgram,
      static_cast<uint32_t>(cluster::ClusterProc::kRevocationSync),
      [this, check_peer](const Bytes& args,
                         const RpcContext& ctx) -> Result<Bytes> {
        ASSIGN_OR_RETURN(cluster::RevocationSyncRequest request,
                         cluster::DecodeRevocationSyncRequest(args));
        RETURN_IF_ERROR(check_peer(ctx, request.origin));
        cluster::RevocationSyncReply reply;
        if (RevocationDigest() == request.digest) {
          // Lists already agree; skip the merge and ship nothing back.
          reply.match = true;
        } else {
          (void)MergeRevocations(request.entries);
          // Serialize *after* merging so the sender pulls the union.
          reply.entries = SerializeRevocations();
        }
        return cluster::EncodeRevocationSyncReply(reply);
      });
}

void DiscfsServer::RegisterServerMetrics() {
  // Every existing Stats struct becomes a gauge callback: the subsystem
  // keeps owning its numbers, the registry reads them only at scrape time.
  auto one = [](double v) {
    return std::vector<obs::GaugeSample>{{"", v}};
  };
  metrics_.RegisterGauge(
      "discfs_keynote_queries_total", "KeyNote compliance queries",
      [this, one] { return one(static_cast<double>(counters_.keynote_queries.load(
          std::memory_order_relaxed))); });
  metrics_.RegisterGauge(
      "discfs_access_checks_total", "NFS access-hook checks",
      [this, one] { return one(static_cast<double>(counters_.access_checks.load(
          std::memory_order_relaxed))); });
  metrics_.RegisterGauge(
      "discfs_denials_total", "Access checks denied",
      [this, one] { return one(static_cast<double>(counters_.denials.load(
          std::memory_order_relaxed))); });
  metrics_.RegisterGauge(
      "discfs_credentials_submitted_total", "Credentials admitted",
      [this, one] { return one(static_cast<double>(counters_.credentials_submitted.load(
          std::memory_order_relaxed))); });
  metrics_.RegisterGauge(
      "discfs_remote_events_applied_total", "Coherence events applied",
      [this, one] { return one(static_cast<double>(counters_.remote_events_applied.load(
          std::memory_order_relaxed))); });
  metrics_.RegisterGauge(
      "discfs_policy_cache", "Policy cache counters by {kind}", [this] {
        PolicyCache::Stats s = cache_.stats();
        PolicyCache::CoherenceStats c = cache_.coherence_stats();
        return std::vector<obs::GaugeSample>{
            {"kind=\"hits\"", static_cast<double>(s.hits)},
            {"kind=\"misses\"", static_cast<double>(s.misses)},
            {"kind=\"evictions\"", static_cast<double>(s.evictions)},
            {"kind=\"invalidations\"", static_cast<double>(s.invalidations)},
            {"kind=\"local_bumps\"", static_cast<double>(c.local_bumps)},
            {"kind=\"remote_bumps\"", static_cast<double>(c.remote_bumps)},
        };
      });
  metrics_.RegisterGauge(
      "discfs_signature_cache", "Verified-signature cache counters by {kind}",
      [this] {
        keynote::VerifiedSignatureCache::Stats s = sig_cache_.stats();
        return std::vector<obs::GaugeSample>{
            {"kind=\"hits\"", static_cast<double>(s.hits)},
            {"kind=\"misses\"", static_cast<double>(s.misses)},
            {"kind=\"evictions\"", static_cast<double>(s.evictions)},
        };
      });
  metrics_.RegisterGauge(
      "discfs_chunkstore", "Content-addressed chunk store counters by {kind}",
      [this] {
        ChunkStore::Stats s = chunkstore_->stats();
        return std::vector<obs::GaugeSample>{
            {"kind=\"puts\"", static_cast<double>(s.puts)},
            {"kind=\"dedup_hits\"", static_cast<double>(s.dedup_hits)},
            {"kind=\"stored\"", static_cast<double>(s.stored)},
            {"kind=\"removed\"", static_cast<double>(s.removed)},
        };
      });
  metrics_.RegisterGauge(
      "discfs_nfs_ops_served_total", "NFS procedures served",
      [this, one] { return one(static_cast<double>(nfs_->ops_served())); });
  metrics_.RegisterGauge(
      "discfs_credentials", "Credentials currently installed", [this, one] {
        std::shared_lock<std::shared_mutex> lock(mu_);
        return one(static_cast<double>(session_.credential_count()));
      });
  metrics_.RegisterGauge(
      "discfs_revocation_entries", "Unexpired revocation-list entries",
      [this, one] {
        std::shared_lock<std::shared_mutex> lock(mu_);
        return one(static_cast<double>(revocation_.size()));
      });
  metrics_.RegisterGauge(
      "discfs_traces_recorded_total", "Trace observations at this node",
      [this, one] {
        return one(static_cast<double>(trace_log_.recorded_total()));
      });
  // Cluster liveness: one labeled sample per configured peer, plus the
  // origin log position. Peer ack lag = head_seq - acked_seq, the replica
  // staleness a dashboard actually alerts on.
  metrics_.RegisterGauge(
      "discfs_cluster_head_seq", "Origin coherence log head", [this, one] {
        return one(static_cast<double>(cluster_health().head_seq));
      });
  auto per_peer = [this](auto field) {
    cluster::ClusterHealth health = cluster_health();
    std::vector<obs::GaugeSample> out;
    out.reserve(health.peers.size());
    for (const cluster::PeerHealth& peer : health.peers) {
      out.push_back(
          {"peer=\"" + peer.address + "\"", field(health, peer)});
    }
    return out;
  };
  metrics_.RegisterGauge(
      "discfs_cluster_peer_healthy", "1 = peer heard from within deadline",
      [per_peer] {
        return per_peer([](const cluster::ClusterHealth&,
                           const cluster::PeerHealth& p) {
          return p.healthy ? 1.0 : 0.0;
        });
      });
  metrics_.RegisterGauge(
      "discfs_cluster_peer_connected", "1 = transport to peer established",
      [per_peer] {
        return per_peer([](const cluster::ClusterHealth&,
                           const cluster::PeerHealth& p) {
          return p.connected ? 1.0 : 0.0;
        });
      });
  metrics_.RegisterGauge(
      "discfs_cluster_peer_ack_lag",
      "Events published here the peer has not acked", [per_peer] {
        return per_peer([](const cluster::ClusterHealth& h,
                           const cluster::PeerHealth& p) {
          return p.acked_seq <= h.head_seq
                     ? static_cast<double>(h.head_seq - p.acked_seq)
                     : 0.0;
        });
      });
}

}  // namespace discfs
