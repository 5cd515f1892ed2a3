// Lockbox sharing layer (PR 8): end-to-end encrypted files whose content
// keys are sealed per recipient, multi-device principals as delegation
// leaves, and content-addressed dedup — all policed by the same KeyNote
// admission path as NFS I/O, so a revocation accepted anywhere in the
// cluster denies lockbox fetches everywhere.
#include <gtest/gtest.h>

#include <chrono>

#include "src/crypto/groups.h"
#include "src/crypto/keywrap.h"
#include "src/discfs/action_env.h"
#include "src/discfs/client.h"
#include "src/discfs/credentials.h"
#include "src/discfs/host.h"
#include "src/lockbox/chunkstore.h"
#include "src/lockbox/lockbox.h"
#include "src/util/prng.h"
#include "src/wire/lockbox.h"
#include "src/wire/xdr.h"

namespace discfs {
namespace {

std::function<Bytes(size_t)> TestRand(uint64_t seed) {
  return LockedPrngBytes(seed);
}

// --- crypto: key wrap + payload sealing ---

TEST(KeyWrap, RoundTripAndTamperRejection) {
  DsaPrivateKey alice = DsaPrivateKey::Generate(Dsa512(), TestRand(1));
  DsaPrivateKey mallory = DsaPrivateKey::Generate(Dsa512(), TestRand(2));
  Bytes key = GenerateContentKey(TestRand(3));

  auto wrapped = WrapKey(alice.public_key(), key, TestRand(4));
  ASSERT_TRUE(wrapped.ok()) << wrapped.status();

  auto unwrapped = UnwrapKey(alice, *wrapped);
  ASSERT_TRUE(unwrapped.ok()) << unwrapped.status();
  EXPECT_EQ(*unwrapped, key);

  // The wrong private key must not unwrap.
  EXPECT_FALSE(UnwrapKey(mallory, *wrapped).ok());

  // Any bit flip must be rejected by the AEAD tag.
  Bytes bent = *wrapped;
  bent[bent.size() / 2] ^= 0x01;
  EXPECT_FALSE(UnwrapKey(alice, bent).ok());
}

TEST(KeyWrap, WrapsAreNondeterministic) {
  DsaPrivateKey alice = DsaPrivateKey::Generate(Dsa512(), TestRand(1));
  Bytes key = GenerateContentKey(TestRand(3));
  auto w1 = WrapKey(alice.public_key(), key, TestRand(10));
  auto w2 = WrapKey(alice.public_key(), key, TestRand(11));
  ASSERT_TRUE(w1.ok() && w2.ok());
  // Fresh ephemerals: identical plaintext keys produce unlinkable blobs.
  EXPECT_NE(*w1, *w2);
  EXPECT_EQ(*UnwrapKey(alice, *w1), key);
  EXPECT_EQ(*UnwrapKey(alice, *w2), key);
}

TEST(LockboxCrypto, SealOpenPayload) {
  Bytes key = GenerateContentKey(TestRand(5));
  Bytes plaintext = ToBytes("the quarterly numbers are strong");
  Bytes sealed = SealPayload(key, plaintext, TestRand(6));
  auto opened = OpenPayload(key, sealed);
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_EQ(*opened, plaintext);

  Bytes bent = sealed;
  bent.back() ^= 0x80;
  EXPECT_FALSE(OpenPayload(key, bent).ok());
  EXPECT_FALSE(OpenPayload(GenerateContentKey(TestRand(7)), sealed).ok());
}

// Whoever builds a wrapped-key blob chooses its nonce length. Anything but
// 12 bytes is a malformed blob, including a longer nonce whose first 12
// bytes are the genuine ones.
TEST(KeyWrap, NonceOfWrongLengthRejected) {
  DsaPrivateKey alice = DsaPrivateKey::Generate(Dsa512(), TestRand(1));
  auto wrapped =
      WrapKey(alice.public_key(), GenerateContentKey(TestRand(3)), TestRand(4));
  ASSERT_TRUE(wrapped.ok()) << wrapped.status();
  XdrReader r(*wrapped);
  Bytes ephemeral = r.GetOpaque().value();
  Bytes nonce = r.GetOpaque().value();
  Bytes box = r.GetOpaque().value();
  for (size_t len : {0u, 4u, 11u, 13u, 20u}) {
    Bytes bent_nonce = nonce;
    bent_nonce.resize(len, 0x33);
    XdrWriter w;
    w.PutOpaque(ephemeral);
    w.PutOpaque(bent_nonce);
    w.PutOpaque(box);
    EXPECT_EQ(UnwrapKey(alice, w.Take()).status().code(),
              StatusCode::kInvalidArgument)
        << "nonce of " << len << " bytes";
  }
}

// A granter may wrap a secret of any length as the content key; the
// recipient must not hand a short one to the AEAD.
TEST(LockboxCrypto, WrappedContentKeyOfWrongLengthRejected) {
  DsaPrivateKey alice = DsaPrivateKey::Generate(Dsa512(), TestRand(1));
  Bytes sealed = SealPayload(GenerateContentKey(TestRand(5)),
                             ToBytes("payload"), TestRand(6));
  auto wrapped = WrapKey(alice.public_key(), Bytes(5, 0x42), TestRand(7));
  ASSERT_TRUE(wrapped.ok()) << wrapped.status();
  auto key = UnwrapKey(alice, *wrapped);
  ASSERT_TRUE(key.ok()) << key.status();
  ASSERT_EQ(key->size(), 5u);
  EXPECT_EQ(OpenPayload(*key, sealed).status().code(),
            StatusCode::kInvalidArgument);
}

// --- wire codec ---

TEST(LockboxWire, RecordRoundTrip) {
  wire::LockboxRecord record;
  record.handle = 42;
  record.owner = "dsa-hex:deadbeef";
  record.sealed = true;
  record.chunk_size = 4096;
  record.payload_size = 8192;
  record.chunks = {std::string(64, 'a'), std::string(64, 'b')};
  record.entries.push_back({"dsa-hex:01", ToBytes("wrapped-one")});
  record.entries.push_back({"dsa-hex:02", ToBytes("wrapped-two")});

  Bytes encoded = wire::EncodeLockboxRecord(record);
  auto decoded = wire::DecodeLockboxRecord(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->handle, 42u);
  EXPECT_EQ(decoded->owner, record.owner);
  EXPECT_TRUE(decoded->sealed);
  EXPECT_EQ(decoded->chunk_size, 4096u);
  EXPECT_EQ(decoded->payload_size, 8192u);
  EXPECT_EQ(decoded->chunks, record.chunks);
  ASSERT_EQ(decoded->entries.size(), 2u);
  EXPECT_EQ(decoded->entries[1].recipient, "dsa-hex:02");
  EXPECT_EQ(decoded->entries[1].wrapped_key, ToBytes("wrapped-two"));
  EXPECT_EQ(decoded->FindEntry("dsa-hex:02"), 1);
  EXPECT_EQ(decoded->FindEntry("dsa-hex:99"), -1);

  Bytes garbage = ToBytes("NOPE");
  EXPECT_FALSE(wire::DecodeLockboxRecord(garbage).ok());
  Bytes truncated(encoded.begin(), encoded.begin() + encoded.size() / 2);
  EXPECT_FALSE(wire::DecodeLockboxRecord(truncated).ok());
}

// --- chunk store: dedup, refcounts, GC ---

struct PlainStack {
  std::shared_ptr<FfsVfs> vfs;
  std::unique_ptr<NfsServer> nfs;

  PlainStack() {
    auto dev = std::make_shared<MemBlockDevice>(4096, 4096);
    auto fs = Ffs::Format(dev, FfsFormatOptions{512});
    EXPECT_TRUE(fs.ok());
    vfs = std::make_shared<FfsVfs>(std::move(fs).value());
    nfs = std::make_unique<NfsServer>(vfs);
  }
};

TEST(ChunkStore, DedupRefcountAndGc) {
  PlainStack stack;
  ChunkStore store(stack.nfs.get());

  Bytes alpha = ToBytes(std::string(3000, 'a'));
  Bytes beta = ToBytes(std::string(3000, 'b'));

  auto id1 = store.Put(alpha);
  ASSERT_TRUE(id1.ok()) << id1.status();
  EXPECT_EQ(*id1, ChunkStore::ChunkId(alpha));
  EXPECT_EQ(store.RefCount(*id1).value(), 1u);

  // Identical bytes converge on the same chunk: one stored copy, count 2.
  auto id2 = store.Put(alpha);
  ASSERT_TRUE(id2.ok());
  EXPECT_EQ(*id1, *id2);
  EXPECT_EQ(store.RefCount(*id1).value(), 2u);

  auto id3 = store.Put(beta);
  ASSERT_TRUE(id3.ok());
  EXPECT_NE(*id1, *id3);

  ChunkStore::Stats stats = store.stats();
  EXPECT_EQ(stats.puts, 3u);
  EXPECT_EQ(stats.dedup_hits, 1u);
  EXPECT_EQ(stats.stored, 2u);

  EXPECT_EQ(store.Get(*id1).value(), alpha);
  EXPECT_EQ(store.Get(*id3).value(), beta);

  // First release only decrements; the content stays fetchable.
  ASSERT_TRUE(store.Release(*id1).ok());
  EXPECT_EQ(store.RefCount(*id1).value(), 1u);
  EXPECT_EQ(store.Get(*id1).value(), alpha);

  // Last release garbage-collects the chunk file.
  ASSERT_TRUE(store.Release(*id1).ok());
  EXPECT_EQ(store.RefCount(*id1).value(), 0u);
  EXPECT_EQ(store.Get(*id1).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.stats().removed, 1u);

  // A re-put after GC stores fresh content under the same id.
  ASSERT_TRUE(store.Put(alpha).ok());
  EXPECT_EQ(store.Get(*id1).value(), alpha);
  EXPECT_EQ(store.RefCount(*id1).value(), 1u);

  EXPECT_FALSE(store.Get("zz").ok());  // malformed id
  EXPECT_EQ(store.Get(std::string(64, '0')).status().code(),
            StatusCode::kNotFound);
}

// --- lockbox service over the chunk store ---

TEST(LockboxService, PutGetGrantRevokeAndChunkAccounting) {
  PlainStack stack;
  ChunkStore store(stack.nfs.get());
  LockboxService service(stack.nfs.get(), &store);

  // Two files with the same PUBLIC payload: every chunk dedups.
  Bytes payload = ToBytes(std::string(2000, 'x') + std::string(2000, 'y'));
  wire::LockboxRecord rec;
  rec.handle = 101;
  rec.owner = "dsa-hex:aa";
  rec.sealed = false;
  rec.chunk_size = 1024;
  auto stored_a = service.Put(rec, payload);
  ASSERT_TRUE(stored_a.ok()) << stored_a.status();
  EXPECT_EQ(stored_a->chunks.size(), 4u);
  EXPECT_EQ(stored_a->payload_size, payload.size());

  rec.handle = 102;
  rec.owner = "dsa-hex:bb";
  ASSERT_TRUE(service.Put(rec, payload).ok());
  ChunkStore::Stats stats = store.stats();
  EXPECT_EQ(stats.puts, 8u);
  EXPECT_EQ(stats.dedup_hits, 4u);  // the second file stored zero new bytes
  EXPECT_EQ(stats.stored, 4u);
  EXPECT_EQ(store.RefCount(stored_a->chunks[0]).value(), 2u);

  auto box = service.Get(101);
  ASSERT_TRUE(box.ok()) << box.status();
  EXPECT_EQ(box->payload, payload);
  EXPECT_EQ(box->record.owner, "dsa-hex:aa");

  // Grant / re-grant / revoke on the sidecar.
  ASSERT_TRUE(service.Grant(101, {"dsa-hex:cc", ToBytes("w1")}).ok());
  ASSERT_TRUE(service.Grant(101, {"dsa-hex:cc", ToBytes("w2")}).ok());
  auto record = service.GetRecord(101);
  ASSERT_TRUE(record.ok());
  ASSERT_EQ(record->entries.size(), 1u);  // replaced, not duplicated
  EXPECT_EQ(record->entries[0].wrapped_key, ToBytes("w2"));
  ASSERT_TRUE(service.Revoke(101, "dsa-hex:cc").ok());
  EXPECT_EQ(service.Revoke(101, "dsa-hex:cc").code(), StatusCode::kNotFound);

  // Removing one file drops its references; shared chunks survive until
  // the second file goes too.
  ASSERT_TRUE(service.Remove(101).ok());
  EXPECT_EQ(store.RefCount(stored_a->chunks[0]).value(), 1u);
  ASSERT_TRUE(service.Remove(102).ok());
  EXPECT_EQ(store.RefCount(stored_a->chunks[0]).value(), 0u);
  EXPECT_EQ(store.stats().removed, 4u);
  EXPECT_EQ(service.Get(101).status().code(), StatusCode::kNotFound);
}

TEST(LockboxService, ReplacePutReleasesOldChunks) {
  PlainStack stack;
  ChunkStore store(stack.nfs.get());
  LockboxService service(stack.nfs.get(), &store);

  wire::LockboxRecord rec;
  rec.handle = 7;
  rec.owner = "dsa-hex:aa";
  rec.chunk_size = 1024;
  Bytes v1 = ToBytes(std::string(1500, '1'));
  auto stored_v1 = service.Put(rec, v1);
  ASSERT_TRUE(stored_v1.ok());

  Bytes v2 = ToBytes(std::string(1500, '2'));
  auto stored_v2 = service.Put(rec, v2);
  ASSERT_TRUE(stored_v2.ok());

  // v1's chunks were released to zero and collected; v2's are live.
  for (const std::string& id : stored_v1->chunks) {
    EXPECT_EQ(store.RefCount(id).value(), 0u);
  }
  for (const std::string& id : stored_v2->chunks) {
    EXPECT_EQ(store.RefCount(id).value(), 1u);
  }
  EXPECT_EQ(service.Get(7)->payload, v2);
}

TEST(ChunkStore, AuditMarkSweepAgainstLiveRecords) {
  PlainStack stack;
  ChunkStore store(stack.nfs.get());
  LockboxService service(stack.nfs.get(), &store);

  // Empty store: vacuously clean.
  auto empty = store.Audit();
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_TRUE(empty->clean());
  EXPECT_EQ(empty->live_records, 0u);
  EXPECT_EQ(empty->chunks_scanned, 0u);

  // Two records sharing one payload: 4 unique chunks, 8 references.
  Bytes payload = ToBytes(std::string(2000, 'x') + std::string(2000, 'y'));
  wire::LockboxRecord rec;
  rec.handle = 201;
  rec.owner = "dsa-hex:aa";
  rec.chunk_size = 1024;
  auto stored = service.Put(rec, payload);
  ASSERT_TRUE(stored.ok()) << stored.status();
  rec.handle = 202;
  rec.owner = "dsa-hex:bb";
  ASSERT_TRUE(service.Put(rec, payload).ok());

  auto clean = store.Audit();
  ASSERT_TRUE(clean.ok());
  EXPECT_TRUE(clean->clean());
  EXPECT_EQ(clean->live_records, 2u);
  EXPECT_EQ(clean->chunks_scanned, 4u);
  EXPECT_EQ(clean->live_references, 8u);

  // A chunk Put directly (no record references it) is an orphan.
  Bytes loose = ToBytes(std::string(500, 'z'));
  auto orphan_id = store.Put(loose);
  ASSERT_TRUE(orphan_id.ok());
  auto with_orphan = store.Audit();
  ASSERT_TRUE(with_orphan.ok());
  EXPECT_FALSE(with_orphan->clean());
  ASSERT_EQ(with_orphan->orphaned.size(), 1u);
  EXPECT_EQ(with_orphan->orphaned[0], *orphan_id);
  ASSERT_TRUE(store.Release(*orphan_id).ok());

  // An extra Put of an existing chunk's bytes bumps the stored refcount
  // above the live reference count: over-referenced (leak direction).
  Bytes first_chunk(payload.begin(), payload.begin() + 1024);
  ASSERT_TRUE(store.Put(first_chunk).ok());
  auto skewed = store.Audit();
  ASSERT_TRUE(skewed.ok());
  ASSERT_EQ(skewed->over_referenced.size(), 1u);
  EXPECT_EQ(skewed->over_referenced[0], stored->chunks[0]);
  ASSERT_TRUE(store.Release(stored->chunks[0]).ok());

  // Dropping references out from under the records: one Release leaves the
  // stored count below the live count (under-referenced, the dangerous
  // direction); a second garbage-collects data the records still need.
  ASSERT_TRUE(store.Release(stored->chunks[1]).ok());
  auto under = store.Audit();
  ASSERT_TRUE(under.ok());
  ASSERT_EQ(under->under_referenced.size(), 1u);
  EXPECT_EQ(under->under_referenced[0], stored->chunks[1]);
  ASSERT_TRUE(store.Release(stored->chunks[1]).ok());
  auto missing = store.Audit();
  ASSERT_TRUE(missing.ok());
  ASSERT_EQ(missing->missing.size(), 1u);
  EXPECT_EQ(missing->missing[0], stored->chunks[1]);
  EXPECT_TRUE(missing->under_referenced.empty());
}

// --- end-to-end over RPC: sealed sharing between principals ---

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
  config.policy_assertions.push_back(
      "Authorizer: \"POLICY\"\n"
      "Licensees: \"" + admin_key.ToKeyNoteString() + "\"\n"
      "Conditions: app_domain == \"DisCFS\" -> \"RWX\";\n");
  auto host = DiscfsHost::Start(node.vfs, std::move(config));
  EXPECT_TRUE(host.ok()) << host.status();
  node.host = std::move(host).value();
  return node;
}

TEST(LockboxEndToEnd, SealedSharingServerNeverSeesPlaintext) {
  DsaPrivateKey admin = DsaPrivateKey::Generate(Dsa512(), TestRand(1));
  DsaPrivateKey server = DsaPrivateKey::Generate(Dsa512(), TestRand(2));
  DsaPrivateKey owner = DsaPrivateKey::Generate(Dsa512(), TestRand(3));
  DsaPrivateKey reader = DsaPrivateKey::Generate(Dsa512(), TestRand(4));
  DsaPrivateKey outsider = DsaPrivateKey::Generate(Dsa512(), TestRand(5));

  Node node = StartNode(server, admin.public_key(), 10);
  ASSERT_TRUE(WriteFileAt(*node.vfs, "/secret.txt", "placeholder").ok());
  InodeAttr file = ResolvePath(*node.vfs, "/secret.txt").value();
  NfsFh fh{file.inode, file.generation};

  CredentialOptions rw;
  rw.permissions = "RW";
  CredentialOptions ro;
  ro.permissions = "R";
  std::string owner_cred =
      IssueCredential(admin, owner.public_key(), HandleString(file.inode), rw)
          .value();
  std::string reader_cred =
      IssueCredential(admin, reader.public_key(), HandleString(file.inode),
                      ro)
          .value();
  std::string outsider_cred =
      IssueCredential(admin, outsider.public_key(), HandleString(file.inode),
                      ro)
          .value();

  ChannelIdentity owner_id{owner, TestRand(20)};
  auto owner_client = DiscfsClient::Connect("127.0.0.1", node.host->port(),
                                            owner_id, server.public_key());
  ASSERT_TRUE(owner_client.ok()) << owner_client.status();
  ASSERT_TRUE((*owner_client)->SubmitCredential(owner_cred).ok());

  // The owner seals the payload client-side and wraps the content key to
  // itself and to the reader — NOT to the outsider.
  Bytes plaintext = ToBytes("attack at dawn, bring coffee");
  Bytes content_key = GenerateContentKey(TestRand(30));
  Bytes sealed = SealPayload(content_key, plaintext, TestRand(31));
  std::vector<wire::LockboxEntry> entries;
  entries.push_back(
      {owner.public_key().ToKeyNoteString(),
       WrapKey(owner.public_key(), content_key, TestRand(32)).value()});
  entries.push_back(
      {reader.public_key().ToKeyNoteString(),
       WrapKey(reader.public_key(), content_key, TestRand(33)).value()});

  auto stored = (*owner_client)
                    ->PutLockbox(fh, /*sealed=*/true, /*chunk_size=*/512,
                                 sealed, entries);
  ASSERT_TRUE(stored.ok()) << stored.status();
  EXPECT_EQ(stored->owner, owner.public_key().ToKeyNoteString());
  EXPECT_FALSE(stored->chunks.empty());

  // Nothing stored server-side contains the plaintext: every chunk is
  // ciphertext under a key the server never saw.
  for (const std::string& id : stored->chunks) {
    auto chunk = node.host->server().chunkstore().Get(id);
    ASSERT_TRUE(chunk.ok());
    EXPECT_EQ(ToString(*chunk).find("attack at dawn"), std::string::npos);
  }

  // The reader fetches, unwraps its entry, and opens the payload.
  ChannelIdentity reader_id{reader, TestRand(21)};
  auto reader_client = DiscfsClient::Connect("127.0.0.1", node.host->port(),
                                             reader_id, server.public_key());
  ASSERT_TRUE(reader_client.ok());
  ASSERT_TRUE((*reader_client)->SubmitCredential(reader_cred).ok());
  auto fetch = (*reader_client)->GetLockbox(fh);
  ASSERT_TRUE(fetch.ok()) << fetch.status();
  EXPECT_EQ(fetch->payload, sealed);
  int index = fetch->record.FindEntry(reader.public_key().ToKeyNoteString());
  ASSERT_GE(index, 0);
  auto unwrapped =
      UnwrapKey(reader, fetch->record.entries[index].wrapped_key);
  ASSERT_TRUE(unwrapped.ok()) << unwrapped.status();
  auto opened = OpenPayload(*unwrapped, fetch->payload);
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_EQ(*opened, plaintext);

  // The outsider holds R (policy admits the fetch) but no lockbox entry:
  // cryptographic access control holds where policy alone would not.
  ChannelIdentity outsider_id{outsider, TestRand(22)};
  auto outsider_client = DiscfsClient::Connect(
      "127.0.0.1", node.host->port(), outsider_id, server.public_key());
  ASSERT_TRUE(outsider_client.ok());
  ASSERT_TRUE((*outsider_client)->SubmitCredential(outsider_cred).ok());
  auto outsider_fetch = (*outsider_client)->GetLockbox(fh);
  ASSERT_TRUE(outsider_fetch.ok()) << outsider_fetch.status();
  EXPECT_EQ(
      outsider_fetch->record.FindEntry(outsider.public_key().ToKeyNoteString()),
      -1);
  // Trying other people's entries fails at the crypto layer.
  for (const wire::LockboxEntry& entry : outsider_fetch->record.entries) {
    EXPECT_FALSE(UnwrapKey(outsider, entry.wrapped_key).ok());
  }

  // The reader (R) may grant: it records an entry for the outsider.
  Bytes reader_key_copy = *unwrapped;
  ASSERT_TRUE(
      (*reader_client)
          ->GrantLockboxAccess(
              fh, {outsider.public_key().ToKeyNoteString(),
                   WrapKey(outsider.public_key(), reader_key_copy,
                           TestRand(34))
                       .value()})
          .ok());
  auto regrant = (*outsider_client)->GetLockbox(fh);
  ASSERT_TRUE(regrant.ok());
  index = regrant->record.FindEntry(outsider.public_key().ToKeyNoteString());
  ASSERT_GE(index, 0);
  EXPECT_EQ(*OpenPayload(
                *UnwrapKey(outsider, regrant->record.entries[index].wrapped_key),
                regrant->payload),
            plaintext);

  // The outsider (R, not owner) cannot revoke; the owner can.
  EXPECT_EQ((*outsider_client)
                ->RevokeLockboxAccess(
                    fh, reader.public_key().ToKeyNoteString())
                .code(),
            StatusCode::kPermissionDenied);
  ASSERT_TRUE((*owner_client)
                  ->RevokeLockboxAccess(
                      fh, outsider.public_key().ToKeyNoteString())
                  .ok());
  auto after = (*reader_client)->GetLockbox(fh);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(
      after->record.FindEntry(outsider.public_key().ToKeyNoteString()), -1);

  (*owner_client)->Close();
  (*reader_client)->Close();
  (*outsider_client)->Close();
}

// --- multi-device principals + cluster-wide revocation ---

TEST(LockboxMultiDevice, RevokeOneDeviceDeniesClusterWideSiblingsStayWarm) {
  // One human, three devices. The user key delegates to each device key
  // (delegation leaves), and each device gets its own wrapped-key entry.
  // Revoking ONE device's credential on node A must deny that device's
  // lockbox fetch on node B (coherence), while the sibling devices'
  // cached grants on B stay warm.
  DsaPrivateKey admin = DsaPrivateKey::Generate(Dsa512(), TestRand(1));
  DsaPrivateKey server_a = DsaPrivateKey::Generate(Dsa512(), TestRand(2));
  DsaPrivateKey server_b = DsaPrivateKey::Generate(Dsa512(), TestRand(3));
  DsaPrivateKey user = DsaPrivateKey::Generate(Dsa512(), TestRand(4));
  DsaPrivateKey laptop = DsaPrivateKey::Generate(Dsa512(), TestRand(5));
  DsaPrivateKey phone = DsaPrivateKey::Generate(Dsa512(), TestRand(6));
  DsaPrivateKey tablet = DsaPrivateKey::Generate(Dsa512(), TestRand(7));

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

  // The shared file lives on B.
  ASSERT_TRUE(WriteFileAt(*node_b.vfs, "/vault.bin", "placeholder").ok());
  InodeAttr file = ResolvePath(*node_b.vfs, "/vault.bin").value();
  NfsFh fh{file.inode, file.generation};

  CredentialOptions rw;
  rw.permissions = "RW";
  CredentialOptions ro;
  ro.permissions = "R";
  std::string user_cred =
      IssueCredential(admin, user.public_key(), HandleString(file.inode), rw)
          .value();
  // Device keys are delegation LEAVES: user -> device, R only.
  DsaPrivateKey* devices[] = {&laptop, &phone, &tablet};
  std::string device_creds[3];
  for (int i = 0; i < 3; ++i) {
    device_creds[i] = IssueCredential(user, devices[i]->public_key(),
                                      HandleString(file.inode), ro)
                          .value();
  }

  // The user seals the vault and wraps the content key to EACH device key
  // — losing one device never exposes the others' entries.
  ChannelIdentity user_id{user, TestRand(20)};
  auto user_client = DiscfsClient::Connect("127.0.0.1", node_b.host->port(),
                                           user_id, server_b.public_key());
  ASSERT_TRUE(user_client.ok()) << user_client.status();
  ASSERT_TRUE((*user_client)->SubmitCredential(user_cred).ok());
  Bytes plaintext = ToBytes(std::string(4000, 'v'));
  Bytes content_key = GenerateContentKey(TestRand(30));
  Bytes sealed = SealPayload(content_key, plaintext, TestRand(31));
  std::vector<wire::LockboxEntry> entries;
  for (int i = 0; i < 3; ++i) {
    entries.push_back({devices[i]->public_key().ToKeyNoteString(),
                       WrapKey(devices[i]->public_key(), content_key,
                               TestRand(40 + i))
                           .value()});
  }
  ASSERT_TRUE((*user_client)
                  ->PutLockbox(fh, /*sealed=*/true, /*chunk_size=*/512,
                               sealed, entries)
                  .ok());

  // Every device attaches to B with its delegation chain and fetches.
  std::unique_ptr<DiscfsClient> device_clients[3];
  std::string device_cred_ids[3];
  for (int i = 0; i < 3; ++i) {
    ChannelIdentity id{*devices[i], TestRand(50 + i)};
    auto client = DiscfsClient::Connect("127.0.0.1", node_b.host->port(), id,
                                        server_b.public_key());
    ASSERT_TRUE(client.ok()) << client.status();
    device_clients[i] = std::move(client).value();
    // user_cred is already installed (the user submitted it); re-submitting
    // it per device would invalidate every sibling's cached grant, since
    // the whole device fan-out hangs off that credential.
    device_cred_ids[i] =
        device_clients[i]->SubmitCredential(device_creds[i]).value();
    auto fetch = device_clients[i]->GetLockbox(fh);
    ASSERT_TRUE(fetch.ok()) << "device " << i << ": " << fetch.status();
    int index = fetch->record.FindEntry(
        devices[i]->public_key().ToKeyNoteString());
    ASSERT_GE(index, 0);
    EXPECT_EQ(*OpenPayload(*UnwrapKey(*devices[i],
                                      fetch->record.entries[index].wrapped_key),
                           fetch->payload),
              plaintext);
  }

  // All three grants are warm in B's policy cache.
  const std::atomic<uint64_t>& b_queries =
      node_b.host->server().counters().keynote_queries;
  const uint64_t warm_queries = b_queries.load();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(device_clients[i]->GetLockbox(fh).ok());
  }
  EXPECT_EQ(b_queries.load(), warm_queries);

  // The laptop is lost. The revocation is accepted on node A — which never
  // even installed the credential (NotFound locally, still published) —
  // and must deny the laptop's LOCKBOX fetch on B through the fabric.
  EXPECT_EQ(
      node_a.host->server().RemoveCredential(device_cred_ids[0]).code(),
      StatusCode::kNotFound);
  ASSERT_TRUE(node_a.host->fabric()->WaitForAck(
      1, std::chrono::milliseconds(10000)));

  // Siblings first: phone and tablet must still be served FROM CACHE —
  // the invalidation was scoped to the laptop's chain.
  const uint64_t sibling_queries = b_queries.load();
  for (int i = 1; i < 3; ++i) {
    auto fetch = device_clients[i]->GetLockbox(fh);
    ASSERT_TRUE(fetch.ok()) << "sibling device " << i << ": "
                            << fetch.status();
  }
  EXPECT_EQ(b_queries.load(), sibling_queries)
      << "sibling devices' cached grants should have survived";
  // The laptop is denied — same CheckAccess path as NFS reads.
  auto denied = device_clients[0]->GetLockbox(fh);
  EXPECT_EQ(denied.status().code(), StatusCode::kPermissionDenied)
      << denied.status();
  // And its plain NFS read is denied identically (one admission path).
  EXPECT_EQ(device_clients[0]->nfs().Read(fh, 0, 16).status().code(),
            StatusCode::kPermissionDenied);

  // The user (whose own chain is intact) still fetches fine.
  ASSERT_TRUE((*user_client)->GetLockbox(fh).ok());

  (*user_client)->Close();
  for (auto& client : device_clients) {
    client->Close();
  }
}

// --- dedup semantics across users: public dedups, sealed never collides ---

TEST(LockboxDedup, PublicPayloadsDedupSealedPayloadsDoNot) {
  DsaPrivateKey admin = DsaPrivateKey::Generate(Dsa512(), TestRand(1));
  DsaPrivateKey server = DsaPrivateKey::Generate(Dsa512(), TestRand(2));
  Node node = StartNode(server, admin.public_key(), 10);

  // Four files; two users each store the same public corpus and a private
  // (sealed) copy of the same plaintext.
  for (const char* path : {"/pub1", "/pub2", "/priv1", "/priv2"}) {
    ASSERT_TRUE(WriteFileAt(*node.vfs, path, "x").ok());
  }
  InodeAttr pub1 = ResolvePath(*node.vfs, "/pub1").value();
  InodeAttr pub2 = ResolvePath(*node.vfs, "/pub2").value();
  InodeAttr priv1 = ResolvePath(*node.vfs, "/priv1").value();
  InodeAttr priv2 = ResolvePath(*node.vfs, "/priv2").value();

  DsaPrivateKey users[2] = {DsaPrivateKey::Generate(Dsa512(), TestRand(3)),
                            DsaPrivateKey::Generate(Dsa512(), TestRand(4))};
  std::unique_ptr<DiscfsClient> clients[2];
  CredentialOptions rw;
  rw.permissions = "RW";
  for (int u = 0; u < 2; ++u) {
    ChannelIdentity id{users[u], TestRand(20 + u)};
    auto client = DiscfsClient::Connect("127.0.0.1", node.host->port(), id,
                                        server.public_key());
    ASSERT_TRUE(client.ok());
    clients[u] = std::move(client).value();
    for (InodeAttr* file : {&pub1, &pub2, &priv1, &priv2}) {
      std::string cred = IssueCredential(admin, users[u].public_key(),
                                         HandleString(file->inode), rw)
                             .value();
      ASSERT_TRUE(clients[u]->SubmitCredential(cred).ok());
    }
  }

  // Varied content, so the 512-byte chunks WITHIN one payload are all
  // distinct and the only dedup measured is the cross-user kind.
  Bytes shared_plaintext = TestRand(99)(4096);

  // Public: identical plaintext from different users — full chunk overlap.
  NfsFh pub_fhs[2] = {{pub1.inode, pub1.generation},
                      {pub2.inode, pub2.generation}};
  auto pub_a = clients[0]->PutLockbox(pub_fhs[0], /*sealed=*/false, 512,
                                      shared_plaintext, {});
  ASSERT_TRUE(pub_a.ok()) << pub_a.status();
  auto pub_b = clients[1]->PutLockbox(pub_fhs[1], /*sealed=*/false, 512,
                                      shared_plaintext, {});
  ASSERT_TRUE(pub_b.ok()) << pub_b.status();
  EXPECT_EQ(pub_a->chunks, pub_b->chunks);  // content-addressed: same ids

  // Private: each user seals under their OWN random content key; the
  // ciphertexts (and so the chunk ids) must not collide even though the
  // plaintext is identical — dedup must not leak private-data equality.
  NfsFh priv_fhs[2] = {{priv1.inode, priv1.generation},
                       {priv2.inode, priv2.generation}};
  std::vector<std::string> priv_chunks[2];
  for (int u = 0; u < 2; ++u) {
    Bytes key = GenerateContentKey(TestRand(60 + u));
    Bytes sealed = SealPayload(key, shared_plaintext, TestRand(62 + u));
    auto stored = clients[u]->PutLockbox(priv_fhs[u], /*sealed=*/true, 512,
                                         sealed, {});
    ASSERT_TRUE(stored.ok()) << stored.status();
    priv_chunks[u] = stored->chunks;
  }
  for (const std::string& id : priv_chunks[0]) {
    for (const std::string& other : priv_chunks[1]) {
      EXPECT_NE(id, other);
    }
  }

  // Accounting: the public corpus cost one stored copy, the private two.
  ChunkStore::Stats stats = node.host->server().chunkstore().stats();
  EXPECT_EQ(stats.dedup_hits, pub_a->chunks.size());

  clients[0]->Close();
  clients[1]->Close();
}

}  // namespace
}  // namespace discfs
