// The paper's distributed requirement (§2, §4.3): "The access mechanism
// should work for both centralized servers and in a distributed environment
// where the files are stored in multiple servers. ... Since the servers do
// not need to share information about users, there is no synchronization
// overhead."
//
// This test runs TWO independent DisCFS servers (separate volumes, separate
// KeyNote sessions) whose policies trust the same administrator key, and
// shows a user working against both with credentials — with no
// server-to-server communication of any kind. The PR 4 tests below then
// opt the same topology into the coherence fabric and show the one thing
// isolated servers cannot do: a revocation accepted on one server denying
// access on every other, scoped to the affected principal.
#include <gtest/gtest.h>

#include <chrono>

#include "src/crypto/groups.h"
#include "src/discfs/action_env.h"
#include "src/discfs/client.h"
#include "src/discfs/credentials.h"
#include "src/discfs/host.h"
#include "src/util/prng.h"

namespace discfs {
namespace {

// Locked: cluster peer handshakes overlap client handshakes on the pool.
std::function<Bytes(size_t)> TestRand(uint64_t seed) {
  return LockedPrngBytes(seed);
}

struct Node {
  std::shared_ptr<FfsVfs> vfs;
  std::unique_ptr<DiscfsHost> host;
};

Node StartNode(const DsaPrivateKey& server_key, const DsaPublicKey& admin_key,
               uint64_t seed,
               std::vector<DsaPublicKey> cluster_trusted_keys = {}) {
  Node node;
  auto dev = std::make_shared<MemBlockDevice>(4096, 4096);
  auto fs = Ffs::Format(dev, FfsFormatOptions{512});
  EXPECT_TRUE(fs.ok());
  node.vfs = std::make_shared<FfsVfs>(std::move(fs).value());

  DiscfsServerConfig config;
  config.server_key = server_key;
  config.rand_bytes = TestRand(seed);
  config.cluster_trusted_keys = std::move(cluster_trusted_keys);
  // Each node's local policy trusts the ADMINISTRATOR key, not the node's
  // own channel key: one administrative root spans the fleet.
  config.policy_assertions.push_back(
      "Authorizer: \"POLICY\"\n"
      "Licensees: \"" + admin_key.ToKeyNoteString() + "\"\n"
      "Conditions: app_domain == \"DisCFS\" -> \"RWX\";\n");
  auto host = DiscfsHost::Start(node.vfs, std::move(config));
  EXPECT_TRUE(host.ok()) << host.status();
  node.host = std::move(host).value();
  return node;
}

TEST(DiscfsMultiServer, OneAdminKeyManyServersNoSync) {
  DsaPrivateKey admin = DsaPrivateKey::Generate(Dsa512(), TestRand(1));
  DsaPrivateKey server_a = DsaPrivateKey::Generate(Dsa512(), TestRand(2));
  DsaPrivateKey server_b = DsaPrivateKey::Generate(Dsa512(), TestRand(3));
  DsaPrivateKey bob = DsaPrivateKey::Generate(Dsa512(), TestRand(4));

  Node node_a = StartNode(server_a, admin.public_key(), 10);
  Node node_b = StartNode(server_b, admin.public_key(), 11);

  // Seed different files on each repository. The dummy file on B offsets
  // its inode numbering so handles do NOT collide across volumes (the
  // cross-server check below relies on distinct handles).
  ASSERT_TRUE(WriteFileAt(*node_a.vfs, "/east-coast.txt", "data at A").ok());
  ASSERT_TRUE(WriteFileAt(*node_b.vfs, "/dummy.txt", "filler").ok());
  ASSERT_TRUE(WriteFileAt(*node_b.vfs, "/west-coast.txt", "data at B").ok());
  InodeAttr file_a =
      ResolvePath(*node_a.vfs, "/east-coast.txt").value();
  InodeAttr file_b =
      ResolvePath(*node_b.vfs, "/west-coast.txt").value();

  // The admin issues Bob one credential per file; nothing is installed on
  // the servers ahead of time.
  CredentialOptions read_only;
  read_only.permissions = "R";
  std::string cred_a =
      IssueCredential(admin, bob.public_key(), HandleString(file_a.inode),
                      read_only)
          .value();
  std::string cred_b =
      IssueCredential(admin, bob.public_key(), HandleString(file_b.inode),
                      read_only)
          .value();

  // Bob attaches to both servers (each authenticates with its own key).
  ChannelIdentity bob_id{bob, TestRand(20)};
  auto client_a = DiscfsClient::Connect("127.0.0.1", node_a.host->port(),
                                        bob_id, server_a.public_key());
  ASSERT_TRUE(client_a.ok()) << client_a.status();
  auto client_b = DiscfsClient::Connect("127.0.0.1", node_b.host->port(),
                                        bob_id, server_b.public_key());
  ASSERT_TRUE(client_b.ok()) << client_b.status();

  // Each server only ever sees the credentials submitted to it.
  ASSERT_TRUE((*client_a)->SubmitCredential(cred_a).ok());
  ASSERT_TRUE((*client_b)->SubmitCredential(cred_b).ok());

  NfsFh fh_a{file_a.inode, file_a.generation};
  NfsFh fh_b{file_b.inode, file_b.generation};
  auto data_a = (*client_a)->nfs().Read(fh_a, 0, 100);
  ASSERT_TRUE(data_a.ok()) << data_a.status();
  EXPECT_EQ(ToString(*data_a), "data at A");
  auto data_b = (*client_b)->nfs().Read(fh_b, 0, 100);
  ASSERT_TRUE(data_b.ok()) << data_b.status();
  EXPECT_EQ(ToString(*data_b), "data at B");

  // Authorization state is strictly local: server B never learned about
  // cred_a, so the matching handle on B (same inode number!) stays closed.
  auto cross = (*client_b)->nfs().Read(fh_a, 0, 100);
  EXPECT_EQ(cross.status().code(), StatusCode::kPermissionDenied);

  EXPECT_EQ(node_a.host->server().credential_count(), 1u);
  EXPECT_EQ(node_b.host->server().credential_count(), 1u);

  (*client_a)->Close();
  (*client_b)->Close();
}

TEST(DiscfsMultiServer, DelegationWorksAcrossServers) {
  // Bob delegates to Alice once; the same pair of credentials opens the
  // same file handle on any server that trusts the admin root — the
  // "global file sharing" of the title.
  DsaPrivateKey admin = DsaPrivateKey::Generate(Dsa512(), TestRand(1));
  DsaPrivateKey server_a = DsaPrivateKey::Generate(Dsa512(), TestRand(2));
  DsaPrivateKey server_b = DsaPrivateKey::Generate(Dsa512(), TestRand(3));
  DsaPrivateKey bob = DsaPrivateKey::Generate(Dsa512(), TestRand(4));
  DsaPrivateKey alice = DsaPrivateKey::Generate(Dsa512(), TestRand(5));

  Node node_a = StartNode(server_a, admin.public_key(), 10);
  Node node_b = StartNode(server_b, admin.public_key(), 11);

  // The same report is replicated on both servers; because both volumes
  // are freshly formatted the same way, the file lands on the same inode.
  ASSERT_TRUE(WriteFileAt(*node_a.vfs, "/report.txt", "Q3 numbers").ok());
  ASSERT_TRUE(WriteFileAt(*node_b.vfs, "/report.txt", "Q3 numbers").ok());
  InodeAttr fa = ResolvePath(*node_a.vfs, "/report.txt").value();
  InodeAttr fb = ResolvePath(*node_b.vfs, "/report.txt").value();
  ASSERT_EQ(fa.inode, fb.inode);  // same handle on both replicas

  CredentialOptions rw;
  rw.permissions = "RW";
  std::string admin_to_bob =
      IssueCredential(admin, bob.public_key(), HandleString(fa.inode), rw)
          .value();
  CredentialOptions ro;
  ro.permissions = "R";
  std::string bob_to_alice =
      IssueCredential(bob, alice.public_key(), HandleString(fa.inode), ro)
          .value();

  ChannelIdentity alice_id{alice, TestRand(30)};
  for (Node* node : {&node_a, &node_b}) {
    auto client = DiscfsClient::Connect("127.0.0.1", node->host->port(),
                                        alice_id, std::nullopt);
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE((*client)->SubmitCredential(admin_to_bob).ok());
    ASSERT_TRUE((*client)->SubmitCredential(bob_to_alice).ok());
    auto attr = (*client)->ResolveHandle(fa.inode);
    ASSERT_TRUE(attr.ok()) << attr.status();
    auto data = (*client)->nfs().Read(attr->fh, 0, 100);
    ASSERT_TRUE(data.ok()) << data.status();
    EXPECT_EQ(ToString(*data), "Q3 numbers");
    (*client)->Close();
  }
}

TEST(DiscfsMultiServer, RevocationOnOneServerDeniesOnPeersScoped) {
  // PR 4: the same fleet, now joined by the coherence fabric. A credential
  // withdrawn on server A must stop working on server B — including B's
  // *cached* grant — while an unrelated principal's cached grant on B
  // survives untouched (scoped invalidation, not a flush).
  DsaPrivateKey admin = DsaPrivateKey::Generate(Dsa512(), TestRand(1));
  DsaPrivateKey server_a = DsaPrivateKey::Generate(Dsa512(), TestRand(2));
  DsaPrivateKey server_b = DsaPrivateKey::Generate(Dsa512(), TestRand(3));
  DsaPrivateKey bob = DsaPrivateKey::Generate(Dsa512(), TestRand(4));
  DsaPrivateKey carol = DsaPrivateKey::Generate(Dsa512(), TestRand(5));

  Node node_a =
      StartNode(server_a, admin.public_key(), 10, {server_b.public_key()});
  Node node_b =
      StartNode(server_b, admin.public_key(), 11, {server_a.public_key()});
  ASSERT_TRUE(node_a.host
                  ->AddClusterPeer({"127.0.0.1", node_b.host->port(),
                                    server_b.public_key()})
                  .ok());
  ASSERT_TRUE(node_b.host
                  ->AddClusterPeer({"127.0.0.1", node_a.host->port(),
                                    server_a.public_key()})
                  .ok());

  // The report is replicated on both volumes (same handle, as in
  // DelegationWorksAcrossServers).
  ASSERT_TRUE(WriteFileAt(*node_a.vfs, "/report.txt", "Q3 numbers").ok());
  ASSERT_TRUE(WriteFileAt(*node_b.vfs, "/report.txt", "Q3 numbers").ok());
  InodeAttr fa = ResolvePath(*node_a.vfs, "/report.txt").value();
  InodeAttr fb = ResolvePath(*node_b.vfs, "/report.txt").value();
  ASSERT_EQ(fa.inode, fb.inode);
  NfsFh fh{fb.inode, fb.generation};

  CredentialOptions ro;
  ro.permissions = "R";
  std::string bob_cred =
      IssueCredential(admin, bob.public_key(), HandleString(fa.inode), ro)
          .value();
  std::string carol_cred =
      IssueCredential(admin, carol.public_key(), HandleString(fa.inode), ro)
          .value();

  // A holds bob's credential too (it will accept the revocation). Wait
  // for the submit event to land on B before warming B's cache, so the
  // entries below stay warm until the revocation arrives.
  auto bob_cred_id = node_a.host->server().SubmitCredential(bob_cred);
  ASSERT_TRUE(bob_cred_id.ok()) << bob_cred_id.status();
  ASSERT_TRUE(node_a.host->fabric()->WaitForAck(
      1, std::chrono::milliseconds(10000)));

  // Bob and carol both work against B; their reads warm B's policy cache.
  ChannelIdentity bob_id{bob, TestRand(20)};
  ChannelIdentity carol_id{carol, TestRand(21)};
  auto bob_client = DiscfsClient::Connect("127.0.0.1", node_b.host->port(),
                                          bob_id, server_b.public_key());
  ASSERT_TRUE(bob_client.ok()) << bob_client.status();
  auto carol_client = DiscfsClient::Connect("127.0.0.1", node_b.host->port(),
                                            carol_id, server_b.public_key());
  ASSERT_TRUE(carol_client.ok()) << carol_client.status();
  ASSERT_TRUE((*bob_client)->SubmitCredential(bob_cred).ok());
  ASSERT_TRUE((*carol_client)->SubmitCredential(carol_cred).ok());
  ASSERT_TRUE((*bob_client)->nfs().Read(fh, 0, 100).ok());
  ASSERT_TRUE((*carol_client)->nfs().Read(fh, 0, 100).ok());

  // Both grants are now served from B's cache.
  const std::atomic<uint64_t>& b_queries =
      node_b.host->server().counters().keynote_queries;
  const uint64_t warm_queries = b_queries.load();
  ASSERT_TRUE((*bob_client)->nfs().Read(fh, 0, 100).ok());
  ASSERT_TRUE((*carol_client)->nfs().Read(fh, 0, 100).ok());
  EXPECT_EQ(b_queries.load(), warm_queries);

  // The issuer withdraws bob's credential ON A; B never hears about it
  // directly — only through the fabric.
  const uint64_t remote_bumps_before =
      node_b.host->server().stats_snapshot().coherence.remote_bumps;
  ASSERT_TRUE(node_a.host->server().RemoveCredential(*bob_cred_id).ok());
  ASSERT_TRUE(node_a.host->fabric()->WaitForAck(
      2, std::chrono::milliseconds(10000)));
  // The bump reached B through the remote path.
  EXPECT_GE(node_b.host->server().stats_snapshot().coherence.remote_bumps,
            remote_bumps_before + 1);

  // Carol first: her entry must still be warm (survivor check — the
  // invalidation was scoped to bob).
  const uint64_t survivor_queries = b_queries.load();
  auto carol_read = (*carol_client)->nfs().Read(fh, 0, 100);
  ASSERT_TRUE(carol_read.ok()) << carol_read.status();
  EXPECT_EQ(b_queries.load(), survivor_queries)
      << "carol's cached grant should have survived bob's revocation";
  // Bob's previously warm cached grant on B is now denied.
  auto bob_read = (*bob_client)->nfs().Read(fh, 0, 100);
  EXPECT_EQ(bob_read.status().code(), StatusCode::kPermissionDenied)
      << bob_read.status();

  // B expelled the revoked credential from its own session.
  EXPECT_EQ(node_b.host->server().credential_count(), 1u);  // carol's only

  // A revocation minted on a server that never even held the credential
  // must still propagate: A knows carol's credential only by id, yet
  // removing it there revokes her grant on B (B recomputes its own
  // closure on receipt).
  std::string carol_cred_id =
      (*carol_client)->SubmitCredential(carol_cred).value();  // idempotent
  EXPECT_EQ(node_a.host->server()
                .RemoveCredential(carol_cred_id)
                .code(),
            StatusCode::kNotFound);  // not installed on A — still published
  ASSERT_TRUE(node_a.host->fabric()->WaitForAck(
      3, std::chrono::milliseconds(10000)));
  auto carol_after = (*carol_client)->nfs().Read(fh, 0, 100);
  EXPECT_EQ(carol_after.status().code(), StatusCode::kPermissionDenied)
      << carol_after.status();
  EXPECT_EQ(node_b.host->server().credential_count(), 0u);

  (*bob_client)->Close();
  (*carol_client)->Close();
}

}  // namespace
}  // namespace discfs
