// Lockbox sharing benchmark: content-addressed dedup across users and
// cluster-wide revocation of a single device, end to end over RPC.
//
// Phase 1 (single node): kPublicUsers clients each store the SAME public
// corpus into their own file. Content addressing must collapse the
// storage to one copy — the dedup ratio (dedup hits / chunk puts) is
// (users-1)/users per fully shared corpus. Then
// kPrivateUsers clients seal the same plaintext under their OWN random
// content keys; those ciphertext chunks must never collide (dedup across
// private data would leak plaintext equality — the Bifrost caveat).
//
// Phase 2 (two nodes, coherence fabric): one user, three device keys as
// delegation leaves. One device's credential is revoked on node A; after
// propagation every lockbox fetch by that device on node B must be
// denied while the sibling devices keep being served from node B's warm
// policy cache (zero KeyNote recomputations).
//
// Output: table on stdout plus BENCH_lockbox.json (path from argv[1];
// docs/BENCH_SCHEMAS.md).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/report.h"
#include "src/blockdev/blockdev.h"
#include "src/cluster/fabric.h"
#include "src/crypto/groups.h"
#include "src/crypto/keywrap.h"
#include "src/discfs/action_env.h"
#include "src/discfs/client.h"
#include "src/discfs/credentials.h"
#include "src/discfs/host.h"
#include "src/ffs/ffs.h"
#include "src/lockbox/chunkstore.h"
#include "src/lockbox/lockbox.h"

namespace discfs {
namespace {

using bench::BenchRand;
using bench::GateOp;
using bench::Json;
using bench::NowSec;

constexpr size_t kPublicUsers = 16;
constexpr size_t kPrivateUsers = 8;
constexpr size_t kPayloadBytes = 256 << 10;
constexpr uint32_t kChunkBytes = 16 << 10;
constexpr size_t kRevokedAttempts = 20;
constexpr auto kConvergeTimeout = std::chrono::seconds(30);

struct Node {
  std::shared_ptr<FfsVfs> vfs;
  std::unique_ptr<DiscfsHost> host;
};

Node StartNode(const DsaPrivateKey& key, const DsaPublicKey& admin_key,
               uint64_t seed, std::vector<DsaPublicKey> trusted = {},
               bool cluster = false) {
  Node node;
  auto dev = std::make_shared<MemBlockDevice>(16384, 4096);
  auto fs = Ffs::Format(dev, FfsFormatOptions{4096});
  if (!fs.ok()) {
    std::fprintf(stderr, "format failed: %s\n",
                 fs.status().ToString().c_str());
    std::abort();
  }
  node.vfs = std::make_shared<FfsVfs>(std::move(fs).value());
  DiscfsServerConfig config;
  config.server_key = key;
  config.rand_bytes = BenchRand(seed);
  config.cluster_trusted_keys = std::move(trusted);
  config.policy_assertions.push_back(
      "Authorizer: \"POLICY\"\n"
      "Licensees: \"" + admin_key.ToKeyNoteString() + "\"\n"
      "Conditions: app_domain == \"DisCFS\" -> \"RWX\";\n");
  DiscfsHostOptions options;
  options.cluster_enabled = cluster;
  auto host = DiscfsHost::Start(node.vfs, std::move(config), /*port=*/0,
                                std::move(options));
  if (!host.ok()) {
    std::fprintf(stderr, "host start failed: %s\n",
                 host.status().ToString().c_str());
    std::abort();
  }
  node.host = std::move(host).value();
  return node;
}

#define BENCH_CHECK(cond)                                              \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "FATAL %s:%d: %s\n", __FILE__, __LINE__,    \
                   #cond);                                             \
      std::abort();                                                    \
    }                                                                  \
  } while (0)

struct DedupResult {
  uint64_t public_puts = 0;
  uint64_t public_dedup_hits = 0;
  uint64_t public_stored_chunks = 0;
  double public_dedup_ratio = 0;
  uint64_t private_puts = 0;
  uint64_t private_dedup_hits = 0;
  uint64_t private_unique_chunks = 0;
  double put_mb_s = 0;
  double get_mb_s = 0;
  // Mark/sweep audit over the final store state (PR 10): every stored
  // chunk's refcount must equal the live references from lockbox records.
  uint64_t audit_records = 0;
  uint64_t audit_chunks = 0;
  uint64_t audit_live_references = 0;
  bool audit_clean = false;
};

DedupResult RunDedupPhase() {
  DedupResult out;
  DsaPrivateKey admin = DsaPrivateKey::Generate(Dsa512(), BenchRand(1));
  DsaPrivateKey server = DsaPrivateKey::Generate(Dsa512(), BenchRand(2));
  Node node = StartNode(server, admin.public_key(), 10);

  // Varied content so chunks within one payload are distinct — the only
  // dedup measured is the cross-user kind.
  Bytes corpus = BenchRand(42)(kPayloadBytes);

  size_t total_users = kPublicUsers + kPrivateUsers;
  std::vector<DsaPrivateKey> users;
  std::vector<std::unique_ptr<DiscfsClient>> clients;
  std::vector<NfsFh> fhs;
  CredentialOptions rw;
  rw.permissions = "RW";
  for (size_t u = 0; u < total_users; ++u) {
    users.push_back(DsaPrivateKey::Generate(Dsa512(), BenchRand(100 + u)));
    std::string path = "/user-" + std::to_string(u) + ".bin";
    BENCH_CHECK(WriteFileAt(*node.vfs, path, "x").ok());
    InodeAttr attr = ResolvePath(*node.vfs, path).value();
    fhs.push_back({attr.inode, attr.generation});
    ChannelIdentity id{users[u], BenchRand(200 + u)};
    auto client = DiscfsClient::Connect("127.0.0.1", node.host->port(), id,
                                        server.public_key());
    BENCH_CHECK(client.ok());
    clients.push_back(std::move(client).value());
    std::string cred = IssueCredential(admin, users[u].public_key(),
                                       HandleString(attr.inode), rw)
                           .value();
    BENCH_CHECK(clients[u]->SubmitCredential(cred).ok());
  }

  // --- public corpus: every user stores the same bytes ---
  ChunkStore::Stats before = node.host->server().chunkstore().stats();
  double t0 = NowSec();
  for (size_t u = 0; u < kPublicUsers; ++u) {
    BENCH_CHECK(clients[u]
                    ->PutLockbox(fhs[u], /*sealed=*/false, kChunkBytes,
                                 corpus, {})
                    .ok());
  }
  double put_s = NowSec() - t0;
  ChunkStore::Stats after = node.host->server().chunkstore().stats();
  out.public_puts = after.puts - before.puts;
  out.public_dedup_hits = after.dedup_hits - before.dedup_hits;
  out.public_stored_chunks = after.stored - before.stored;
  out.public_dedup_ratio =
      out.public_puts == 0
          ? 0
          : static_cast<double>(out.public_dedup_hits) / out.public_puts;
  out.put_mb_s =
      (kPublicUsers * kPayloadBytes) / (put_s * 1024.0 * 1024.0);

  t0 = NowSec();
  for (size_t u = 0; u < kPublicUsers; ++u) {
    auto fetch = clients[u]->GetLockbox(fhs[u]);
    BENCH_CHECK(fetch.ok());
    BENCH_CHECK(fetch->payload == corpus);
  }
  double get_s = NowSec() - t0;
  out.get_mb_s =
      (kPublicUsers * kPayloadBytes) / (get_s * 1024.0 * 1024.0);

  // --- private corpus: same plaintext, per-user content keys ---
  before = after;
  for (size_t u = kPublicUsers; u < total_users; ++u) {
    Bytes key = GenerateContentKey(BenchRand(300 + u));
    Bytes sealed = SealPayload(key, corpus, BenchRand(400 + u));
    std::vector<wire::LockboxEntry> entries;
    entries.push_back(
        {users[u].public_key().ToKeyNoteString(),
         WrapKey(users[u].public_key(), key, BenchRand(500 + u)).value()});
    BENCH_CHECK(clients[u]
                    ->PutLockbox(fhs[u], /*sealed=*/true, kChunkBytes,
                                 sealed, entries)
                    .ok());
  }
  after = node.host->server().chunkstore().stats();
  out.private_puts = after.puts - before.puts;
  out.private_dedup_hits = after.dedup_hits - before.dedup_hits;
  out.private_unique_chunks = after.stored - before.stored;

  // All mutation is quiesced: audit the final store state.
  auto audit = node.host->server().chunkstore().Audit();
  BENCH_CHECK(audit.ok());
  out.audit_records = audit->live_records;
  out.audit_chunks = audit->chunks_scanned;
  out.audit_live_references = audit->live_references;
  out.audit_clean = audit->clean();
  if (!audit->clean()) {
    std::fprintf(stderr,
                 "audit: %zu orphaned, %zu over-referenced, %zu "
                 "under-referenced, %zu missing, %zu corrupt\n",
                 audit->orphaned.size(), audit->over_referenced.size(),
                 audit->under_referenced.size(), audit->missing.size(),
                 audit->corrupt.size());
  }

  for (auto& client : clients) {
    client->Close();
  }
  return out;
}

struct RevocationResult {
  size_t devices = 3;
  size_t revoked_attempts = 0;
  size_t revoked_denied = 0;
  double denial_rate = 0;
  size_t sibling_fetches = 0;
  uint64_t sibling_keynote_queries = 0;
  double propagation_ms = 0;
};

RevocationResult RunRevocationPhase() {
  RevocationResult out;
  DsaPrivateKey admin = DsaPrivateKey::Generate(Dsa512(), BenchRand(1));
  DsaPrivateKey server_a = DsaPrivateKey::Generate(Dsa512(), BenchRand(2));
  DsaPrivateKey server_b = DsaPrivateKey::Generate(Dsa512(), BenchRand(3));
  DsaPrivateKey user = DsaPrivateKey::Generate(Dsa512(), BenchRand(4));

  Node node_a = StartNode(server_a, admin.public_key(), 10,
                          {server_b.public_key()}, /*cluster=*/true);
  Node node_b = StartNode(server_b, admin.public_key(), 11,
                          {server_a.public_key()}, /*cluster=*/true);
  BENCH_CHECK(node_a.host
                  ->AddClusterPeer({"127.0.0.1", node_b.host->port(),
                                    server_b.public_key()})
                  .ok());
  BENCH_CHECK(node_b.host
                  ->AddClusterPeer({"127.0.0.1", node_a.host->port(),
                                    server_a.public_key()})
                  .ok());

  BENCH_CHECK(WriteFileAt(*node_b.vfs, "/vault.bin", "x").ok());
  InodeAttr file = ResolvePath(*node_b.vfs, "/vault.bin").value();
  NfsFh fh{file.inode, file.generation};

  CredentialOptions rw;
  rw.permissions = "RW";
  CredentialOptions ro;
  ro.permissions = "R";
  std::string user_cred =
      IssueCredential(admin, user.public_key(), HandleString(file.inode), rw)
          .value();

  ChannelIdentity user_id{user, BenchRand(20)};
  auto user_client = DiscfsClient::Connect("127.0.0.1", node_b.host->port(),
                                           user_id, server_b.public_key());
  BENCH_CHECK(user_client.ok());
  BENCH_CHECK((*user_client)->SubmitCredential(user_cred).ok());

  Bytes plaintext = BenchRand(43)(kPayloadBytes);
  Bytes content_key = GenerateContentKey(BenchRand(30));
  Bytes sealed = SealPayload(content_key, plaintext, BenchRand(31));

  std::vector<DsaPrivateKey> devices;
  std::vector<wire::LockboxEntry> entries;
  for (size_t i = 0; i < out.devices; ++i) {
    devices.push_back(DsaPrivateKey::Generate(Dsa512(), BenchRand(50 + i)));
    entries.push_back(
        {devices[i].public_key().ToKeyNoteString(),
         WrapKey(devices[i].public_key(), content_key, BenchRand(60 + i))
             .value()});
  }
  BENCH_CHECK((*user_client)
                  ->PutLockbox(fh, /*sealed=*/true, kChunkBytes, sealed,
                               entries)
                  .ok());

  std::vector<std::unique_ptr<DiscfsClient>> device_clients;
  std::vector<std::string> device_cred_ids;
  for (size_t i = 0; i < out.devices; ++i) {
    ChannelIdentity id{devices[i], BenchRand(70 + i)};
    auto client = DiscfsClient::Connect("127.0.0.1", node_b.host->port(),
                                        id, server_b.public_key());
    BENCH_CHECK(client.ok());
    device_clients.push_back(std::move(client).value());
    std::string cred = IssueCredential(user, devices[i].public_key(),
                                       HandleString(file.inode), ro)
                           .value();
    device_cred_ids.push_back(
        device_clients[i]->SubmitCredential(cred).value());
    auto fetch = device_clients[i]->GetLockbox(fh);
    BENCH_CHECK(fetch.ok());
    int index = fetch->record.FindEntry(
        devices[i].public_key().ToKeyNoteString());
    BENCH_CHECK(index >= 0);
    Bytes key =
        UnwrapKey(devices[i], fetch->record.entries[index].wrapped_key)
            .value();
    BENCH_CHECK(OpenPayload(key, fetch->payload).value() == plaintext);
  }

  // All three grants are warm on B before the revocation.
  const std::atomic<uint64_t>& b_queries =
      node_b.host->server().counters().keynote_queries;
  const uint64_t warm_queries = b_queries.load();
  for (auto& client : device_clients) {
    BENCH_CHECK(client->GetLockbox(fh).ok());
  }
  BENCH_CHECK(b_queries.load() == warm_queries);

  // Device 0 is lost. Revocation is ACCEPTED ON A (which never installed
  // the credential) and must deny on B through the fabric.
  double t0 = NowSec();
  node_a.host->server().RemoveCredential(device_cred_ids[0]);
  BENCH_CHECK(node_a.host->fabric()->WaitForAck(
      node_a.host->fabric()->stats().head_seq, kConvergeTimeout));
  out.propagation_ms = (NowSec() - t0) * 1e3;

  // Siblings first: they must be served from B's cache.
  const uint64_t sibling_queries = b_queries.load();
  for (size_t i = 1; i < out.devices; ++i) {
    BENCH_CHECK(device_clients[i]->GetLockbox(fh).ok());
    ++out.sibling_fetches;
  }
  out.sibling_keynote_queries = b_queries.load() - sibling_queries;

  for (size_t k = 0; k < kRevokedAttempts; ++k) {
    ++out.revoked_attempts;
    auto fetch = device_clients[0]->GetLockbox(fh);
    if (!fetch.ok() &&
        fetch.status().code() == StatusCode::kPermissionDenied) {
      ++out.revoked_denied;
    }
  }
  out.denial_rate =
      out.revoked_attempts == 0
          ? 0
          : static_cast<double>(out.revoked_denied) / out.revoked_attempts;

  (*user_client)->Close();
  for (auto& client : device_clients) {
    client->Close();
  }
  return out;
}

int Run(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_lockbox.json";

  std::printf("== lockbox sharing: dedup across users ==\n");
  DedupResult dedup = RunDedupPhase();
  std::printf(
      "public:  %llu puts, %llu dedup hits (ratio %.4f), %llu stored\n",
      static_cast<unsigned long long>(dedup.public_puts),
      static_cast<unsigned long long>(dedup.public_dedup_hits),
      dedup.public_dedup_ratio,
      static_cast<unsigned long long>(dedup.public_stored_chunks));
  std::printf(
      "private: %llu puts, %llu dedup hits, %llu unique chunks\n",
      static_cast<unsigned long long>(dedup.private_puts),
      static_cast<unsigned long long>(dedup.private_dedup_hits),
      static_cast<unsigned long long>(dedup.private_unique_chunks));
  std::printf("throughput: put %.1f MB/s, get %.1f MB/s\n", dedup.put_mb_s,
              dedup.get_mb_s);
  std::printf("audit: %llu records, %llu chunks, %llu live refs, %s\n",
              static_cast<unsigned long long>(dedup.audit_records),
              static_cast<unsigned long long>(dedup.audit_chunks),
              static_cast<unsigned long long>(dedup.audit_live_references),
              dedup.audit_clean ? "clean" : "DIRTY");

  std::printf("== lockbox sharing: device revocation via coherence ==\n");
  RevocationResult rev = RunRevocationPhase();
  std::printf(
      "revoked device: %zu/%zu fetches denied (rate %.4f), "
      "propagation %.2f ms\n",
      rev.revoked_denied, rev.revoked_attempts, rev.denial_rate,
      rev.propagation_ms);
  std::printf("siblings: %zu warm fetches, %llu keynote queries\n",
              rev.sibling_fetches,
              static_cast<unsigned long long>(rev.sibling_keynote_queries));

  Json dedup_json = Json::Object();
  dedup_json.Set("public_puts", dedup.public_puts);
  dedup_json.Set("public_dedup_hits", dedup.public_dedup_hits);
  dedup_json.Set("public_stored_chunks", dedup.public_stored_chunks);
  dedup_json.Set("public_dedup_ratio", dedup.public_dedup_ratio);
  dedup_json.Set("private_puts", dedup.private_puts);
  dedup_json.Set("private_dedup_hits", dedup.private_dedup_hits);
  dedup_json.Set("private_unique_chunks", dedup.private_unique_chunks);
  dedup_json.Set("put_mb_s", dedup.put_mb_s);
  dedup_json.Set("get_mb_s", dedup.get_mb_s);
  Json audit = Json::Object();
  audit.Set("records", dedup.audit_records);
  audit.Set("chunks", dedup.audit_chunks);
  audit.Set("live_references", dedup.audit_live_references);
  audit.Set("clean", dedup.audit_clean);
  Json revocation = Json::Object();
  revocation.Set("devices", rev.devices);
  revocation.Set("revoked_attempts", rev.revoked_attempts);
  revocation.Set("revoked_denied", rev.revoked_denied);
  revocation.Set("denial_rate", rev.denial_rate);
  revocation.Set("sibling_fetches", rev.sibling_fetches);
  revocation.Set("sibling_keynote_queries", rev.sibling_keynote_queries);
  revocation.Set("propagation_ms", rev.propagation_ms);

  const double min_mb_s = bench::GateMin(dedup.put_mb_s, dedup.get_mb_s);
  bench::Report report("lockbox_sharing");
  report.Set("public_users", kPublicUsers);
  report.Set("private_users", kPrivateUsers);
  report.Set("payload_kb", kPayloadBytes >> 10);
  report.Set("chunk_kb", kChunkBytes >> 10);
  report.Set("dedup", std::move(dedup_json));
  report.Set("audit", std::move(audit));
  report.Set("revocation", std::move(revocation));
  // Content addressing must collapse shared public data, while sealed
  // chunks must never dedup: a hit would leak plaintext equality.
  report.AddGate("dedup.public_dedup_ratio", dedup.public_dedup_ratio,
                 GateOp::kGe, 0.9);
  report.AddGate("dedup.private_dedup_hits", dedup.private_dedup_hits,
                 GateOp::kEq, 0);
  report.AddGate("dedup.public_stored_chunks", dedup.public_stored_chunks,
                 GateOp::kGt, 0);
  report.AddGate("dedup.min_mb_s", min_mb_s, GateOp::kGt, 0);
  // No orphaned, skewed, missing or corrupt chunks after the workload.
  report.AddGate("audit.clean", dedup.audit_clean ? 1 : 0, GateOp::kEq, 1);
  report.AddGate("audit.records", dedup.audit_records, GateOp::kGt, 0);
  report.AddGate("audit.chunks", dedup.audit_chunks, GateOp::kGt, 0);
  // A revoked device never fetches a lockbox anywhere in the cluster, and
  // the revocation stays scoped to the lost device's chain.
  report.AddGate("revocation.denial_rate", rev.denial_rate, GateOp::kEq, 1);
  report.AddGate("revocation.sibling_keynote_queries",
                 rev.sibling_keynote_queries, GateOp::kEq, 0);
  return report.Write(out_path);
}

}  // namespace
}  // namespace discfs

int main(int argc, char** argv) { return discfs::Run(argc, argv); }
