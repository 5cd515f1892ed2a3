// Micro-benchmarks for the primitive operations of the access-control
// mechanism (§6: "a set of micro-benchmarks which measured primitive
// operations in the context of our access control mechanism"), plus the
// crypto and transport primitives underneath them.
//
// Self-timed (no external benchmark framework): each case is run in
// growing batches until the timed batch lasts long enough to trust the
// clock, then reported as ns/op (and MB/s where a payload size applies).
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/fs_backend.h"
#include "bench/report.h"
#include "src/crypto/aead.h"
#include "src/crypto/chacha20.h"
#include "src/crypto/dh.h"
#include "src/crypto/dsa.h"
#include "src/crypto/groups.h"
#include "src/crypto/poly1305.h"
#include "src/crypto/sha.h"
#include "src/discfs/credentials.h"
#include "src/discfs/host.h"
#include "src/discfs/policy_cache.h"
#include "src/keynote/session.h"
#include "src/util/prng.h"

namespace discfs {
namespace {

using bench::BenchRand;
using bench::NowSec;

constexpr size_t kBlock = 8192;
constexpr double kMinBatchSec = 0.05;

// Results are folded into this sink so the optimizer cannot discard the
// measured work.
volatile uint64_t g_sink = 0;

void Sink(uint64_t v) { g_sink += v; }
void Sink(const Bytes& b) { g_sink += b.empty() ? 1 : b[0]; }
void Sink(bool b) { g_sink += b ? 1 : 2; }

struct Timing {
  uint64_t iters = 0;
  double ns_per_op = 0;
};

// Doubles the batch until it spans kMinBatchSec of wall clock, so cheap
// ops (a cache hit) and expensive ones (a handshake) both get a stable
// per-op figure from the same harness.
Timing Measure(const std::function<void()>& op) {
  op();  // warm-up
  uint64_t iters = 1;
  while (true) {
    double t0 = NowSec();
    for (uint64_t i = 0; i < iters; ++i) {
      op();
    }
    double elapsed = NowSec() - t0;
    if (elapsed >= kMinBatchSec) {
      return {iters, elapsed * 1e9 / static_cast<double>(iters)};
    }
    double scale =
        elapsed > 0 ? (kMinBatchSec / elapsed) * 1.5 : 100.0;
    iters = std::max(iters + 1,
                     static_cast<uint64_t>(
                         static_cast<double>(iters) * std::min(scale, 100.0)));
  }
}

void Report(const char* name, const Timing& t, size_t bytes_per_op = 0) {
  if (bytes_per_op > 0) {
    double mb_s = static_cast<double>(bytes_per_op) * 1e9 /
                  (t.ns_per_op * 1024.0 * 1024.0);
    std::printf("%-34s %10llu %14.1f %10.1f\n", name,
                static_cast<unsigned long long>(t.iters), t.ns_per_op, mb_s);
  } else {
    std::printf("%-34s %10llu %14.1f %10s\n", name,
                static_cast<unsigned long long>(t.iters), t.ns_per_op, "-");
  }
  std::fflush(stdout);
}

// ----- hash / AEAD primitives -----

void BenchHashAndAead() {
  Bytes data = Prng(1).NextBytes(kBlock);
  Report("sha1_8k", Measure([&] { Sink(Sha1::Hash(data)); }), kBlock);
  Report("sha256_8k", Measure([&] { Sink(Sha256::Hash(data)); }), kBlock);
  Bytes key(32, 0x42);
  Bytes nonce(12, 0);
  // The record transform's kernels, one 8 KiB pass each, then the whole
  // seal and open: the split shows which kernel a change moved.
  Bytes out(kBlock + Aead::kTagSize);
  Report("chacha20_8k", Measure([&] {
           ChaCha20(key.data(), nonce.data(), 1)
               .Crypt(data.data(), out.data(), kBlock);
           Sink(out);
         }),
         kBlock);
  Report("poly1305_8k", Measure([&] { Sink(Poly1305Tag(key, data)); }),
         kBlock);
  Report("poly1305_8k_reference",
         Measure([&] { Sink(Poly1305TagReference(key, data)); }), kBlock);
  Aead aead(key);
  Report("aead_seal_8k", Measure([&] { Sink(aead.Seal(nonce, {}, data)); }),
         kBlock);
  Bytes sealed = aead.Seal(nonce, {}, data);
  Report("aead_open_8k", Measure([&] {
           Sink(aead.Open(nonce.data(), nullptr, 0, sealed.data(),
                          sealed.size(), out.data())
                    .ok());
         }),
         kBlock);
  Bytes small(data.begin(), data.begin() + 128);
  Report("aead_seal_128", Measure([&] { Sink(aead.Seal(nonce, {}, small)); }),
         small.size());
}

// ----- DSA and DH (1024/160, the production group) -----

void BenchDsa() {
  // The kernel under every exponentiation: one 1024-bit Montgomery
  // multiply on the group's context.
  const MontgomeryCtx& mont = GetGroupContext(Dsa1024())->mont_p();
  MontgomeryCtx::Elem a = mont.ToMont(Dsa1024().g);
  MontgomeryCtx::Elem b = mont.ToMont(BigNum::Sub(Dsa1024().p, BigNum(2)));
  Report("mont_mul_1024", Measure([&] {
           mont.MulMont(a.data(), b.data(), a.data());
           Sink(a[0]);
         }));

  DsaPrivateKey key = DsaPrivateKey::Generate(Dsa1024(), BenchRand(1));
  Bytes digest = Sha1::Hash("credential body");
  Report("dsa_sign_1024", Measure([&] {
           DsaSignature sig = key.Sign(digest);
           Sink(static_cast<uint64_t>(sig.r.BitLength()));
         }));
  DsaSignature sig = key.Sign(digest);
  Report("dsa_verify_1024",
         Measure([&] { Sink(key.public_key().Verify(digest, sig)); }));
  // A verify under a key with no cached context: the y comb's build plus
  // one verify, the cost of a new client's first handshake signature.
  Report("dsa_verify_1024_new_key", Measure([&] {
           auto ctx = DsaVerifyContext::Create(key.public_key());
           Sink(ctx.ok() && ctx->Verify(digest, sig));
         }));

  DhKeyPair dh = DhKeyPair::Generate(Dsa1024(), BenchRand(3));
  DhKeyPair peer = DhKeyPair::Generate(Dsa1024(), BenchRand(4));
  Bytes peer_public = peer.PublicValue();
  Report("dh_public_1024", Measure([&] { Sink(dh.PublicValue()); }));
  Report("dh_shared_1024", Measure([&] {
           Sink(dh.SharedSecret(peer_public).ok());
         }));
}

// ----- credential lifecycle -----

void BenchCredentials() {
  DsaPrivateKey issuer = DsaPrivateKey::Generate(Dsa1024(), BenchRand(1));
  DsaPrivateKey subject = DsaPrivateKey::Generate(Dsa1024(), BenchRand(2));
  CredentialOptions options;
  Report("credential_issue", Measure([&] {
           Sink(IssueCredential(issuer, subject.public_key(), "666240",
                                options)
                    .ok());
         }));
  std::string text =
      IssueCredential(issuer, subject.public_key(), "666240", options)
          .value();
  Report("credential_parse_verify", Measure([&] {
           auto assertion = keynote::Assertion::Parse(text);
           Sink(assertion->VerifySignature().ok());
         }));
}

// ----- KeyNote compliance checking: delegation-chain depth sweep -----

void BenchKeyNoteChain(size_t chain_len) {
  auto rand = BenchRand(7);
  std::vector<DsaPrivateKey> keys;
  for (size_t i = 0; i <= chain_len; ++i) {
    keys.push_back(DsaPrivateKey::Generate(Dsa512(), rand));
  }
  keynote::KeyNoteSession session(keynote::PermissionLattice::Get());
  std::string policy =
      "Authorizer: \"POLICY\"\n"
      "Licensees: \"" + keys[0].public_key().ToKeyNoteString() + "\"\n"
      "Conditions: app_domain == \"DisCFS\" -> \"RWX\";\n";
  if (!session.AddPolicyAssertion(policy).ok()) {
    std::fprintf(stderr, "policy setup failed\n");
    return;
  }
  CredentialOptions options;
  for (size_t i = 0; i + 1 <= chain_len; ++i) {
    auto cred =
        IssueCredential(keys[i], keys[i + 1].public_key(), "666240", options);
    if (!cred.ok() || !session.AddCredential(*cred).ok()) {
      std::fprintf(stderr, "credential setup failed\n");
      return;
    }
  }
  keynote::ComplianceQuery query;
  query.attributes = {{"app_domain", "DisCFS"},
                      {keynote::kHandleAttribute, "666240"}};
  query.action_authorizers = {keys[chain_len].public_key().ToKeyNoteString()};
  std::string name = "keynote_query_chain_" + std::to_string(chain_len);
  Report(name.c_str(), Measure([&] {
           Sink(static_cast<uint64_t>(session.Query(query)));
         }));
}

// Compliance-check cost as the persistent session accumulates credentials
// for other handles. Each is pinned to its own HANDLE, so however many
// there are, the indexed slice holds only POLICY and the queried handle's
// credential.
void BenchKeyNoteSessionSize(size_t n_creds) {
  auto rand = BenchRand(21);
  DsaPrivateKey admin = DsaPrivateKey::Generate(Dsa512(), rand);
  DsaPrivateKey user = DsaPrivateKey::Generate(Dsa512(), rand);
  keynote::KeyNoteSession session(keynote::PermissionLattice::Get());
  std::string policy =
      "Authorizer: \"POLICY\"\n"
      "Licensees: \"" + admin.public_key().ToKeyNoteString() + "\"\n"
      "Conditions: app_domain == \"DisCFS\" -> \"RWX\";\n";
  if (!session.AddPolicyAssertion(policy).ok()) {
    std::fprintf(stderr, "policy setup failed\n");
    return;
  }
  CredentialOptions options;
  for (size_t i = 0; i < n_creds; ++i) {
    auto cred = IssueCredential(admin, user.public_key(),
                                std::to_string(1000 + i), options);
    if (!cred.ok() || !session.AddCredential(*cred).ok()) {
      std::fprintf(stderr, "credential setup failed\n");
      return;
    }
  }
  keynote::ComplianceQuery query;
  query.attributes = {{"app_domain", "DisCFS"},
                      {keynote::kHandleAttribute, "1000"}};
  query.action_authorizers = {user.public_key().ToKeyNoteString()};
  std::string name = "keynote_query_session_" + std::to_string(n_creds);
  Report(name.c_str(), Measure([&] {
           Sink(static_cast<uint64_t>(session.Query(query)));
         }));
}

void BenchPolicyCache() {
  PolicyCache cache(128, 3600);
  cache.Put("dsa-hex:user", 666240, 7, 0);
  Report("policy_cache_hit",
         Measure([&] {
           Sink(cache.Get("dsa-hex:user", 666240, 1).has_value());
         }));
}

// ----- channel and RPC round trips -----

void BenchSecureHandshake() {
  DsaPrivateKey server_key = DsaPrivateKey::Generate(Dsa1024(), BenchRand(1));
  DsaPrivateKey client_key = DsaPrivateKey::Generate(Dsa1024(), BenchRand(2));
  Report("secure_handshake", Measure([&] {
           auto transports = InProcTransport::CreatePair();
           ChannelIdentity client_id{client_key, BenchRand(10)};
           ChannelIdentity server_id{server_key, BenchRand(11)};
           Result<std::unique_ptr<SecureChannel>> server_chan =
               UnavailableError("pending");
           std::thread server([&] {
             server_chan = SecureChannel::ServerHandshake(
                 std::move(transports.b), server_id);
           });
           auto client_chan = SecureChannel::ClientHandshake(
               std::move(transports.a), client_id, std::nullopt);
           server.join();
           Sink(client_chan.ok() && server_chan.ok());
         }));
}

// Full remote stacks (CFS-style NFS-only vs DisCFS with admission) against
// the local FFS baseline, 8 KiB at offset 0.
void BenchRemoteStacks() {
  bench::BackendOptions opts;
  opts.device_mib = 128;
  auto cfs_backend = bench::MakeCfsNeBackend(opts).value();
  auto discfs_backend = bench::MakeDiscfsBackend(opts).value();
  auto ffs_backend = bench::MakeFfsBackend(opts).value();
  auto cfs_file = cfs_backend->CreateFile("bench.dat").value();
  auto discfs_file = discfs_backend->CreateFile("bench.dat").value();
  auto ffs_file = ffs_backend->CreateFile("bench.dat").value();
  Bytes block = Prng(3).NextBytes(kBlock);
  (void)cfs_backend->WriteAt(cfs_file, 0, block.data(), block.size());
  (void)discfs_backend->WriteAt(discfs_file, 0, block.data(), block.size());
  (void)ffs_backend->WriteAt(ffs_file, 0, block.data(), block.size());
  Bytes buf(kBlock);

  Report("read_8k_cfs_ne", Measure([&] {
           Sink(cfs_backend->ReadAt(cfs_file, 0, buf.data(), buf.size()).ok());
         }),
         kBlock);
  Report("read_8k_discfs", Measure([&] {
           Sink(discfs_backend->ReadAt(discfs_file, 0, buf.data(), buf.size())
                    .ok());
         }),
         kBlock);
  Report("write_8k_cfs_ne", Measure([&] {
           Sink(cfs_backend->WriteAt(cfs_file, 0, block.data(), block.size())
                    .ok());
         }),
         kBlock);
  Report("write_8k_discfs", Measure([&] {
           Sink(discfs_backend
                    ->WriteAt(discfs_file, 0, block.data(), block.size())
                    .ok());
         }),
         kBlock);
  Report("read_8k_ffs_local", Measure([&] {
           Sink(ffs_backend->ReadAt(ffs_file, 0, buf.data(), buf.size()).ok());
         }),
         kBlock);
}

int Run(int, char**) {
  std::printf("== micro_ops: access-control and transport primitives ==\n");
  std::printf("%-34s %10s %14s %10s\n", "op", "iters", "ns/op", "MB/s");

  BenchHashAndAead();
  BenchDsa();
  BenchCredentials();
  for (size_t depth : {1, 2, 4, 8}) {
    BenchKeyNoteChain(depth);
  }
  for (size_t creds : {1, 10, 100, 500}) {
    BenchKeyNoteSessionSize(creds);
  }
  BenchPolicyCache();
  BenchSecureHandshake();
  BenchRemoteStacks();
  return 0;
}

}  // namespace
}  // namespace discfs

int main(int argc, char** argv) { return discfs::Run(argc, argv); }
