#include <gtest/gtest.h>

#include "src/crypto/groups.h"
#include "src/discfs/action_env.h"
#include "src/discfs/credentials.h"
#include "src/discfs/policy_cache.h"
#include "src/discfs/revocation.h"
#include "src/util/prng.h"
#include "src/vfs/vfs.h"

namespace discfs {
namespace {

std::function<Bytes(size_t)> TestRand(uint64_t seed) {
  auto prng = std::make_shared<Prng>(seed);
  return [prng](size_t n) { return prng->NextBytes(n); };
}

// ----- action environment -----

TEST(ActionEnv, ContainsPaperAttributes) {
  FakeClock clock(990621296);  // 2001-05-23 12:34:56 UTC
  auto env = BuildActionEnv(NfsProc::kRead, 666240, 4, clock);
  EXPECT_EQ(env["app_domain"], "DisCFS");
  EXPECT_EQ(env["HANDLE"], "666240");
  EXPECT_EQ(env["operation"], "read");
  EXPECT_EQ(env["perm_needed"], "R");
  EXPECT_EQ(env["time_of_day"], "1234");
  EXPECT_EQ(env["date"], "20010523");
  EXPECT_EQ(env["timestamp"], "20010523123456");
  EXPECT_EQ(env["weekday"], "3");  // Wednesday
}

TEST(ActionEnv, ProcNamesDistinct) {
  std::set<std::string> names;
  for (NfsProc proc :
       {NfsProc::kGetAttr, NfsProc::kSetAttr, NfsProc::kLookup,
        NfsProc::kRead, NfsProc::kWrite, NfsProc::kCreate, NfsProc::kRemove,
        NfsProc::kRename, NfsProc::kMkdir, NfsProc::kRmdir,
        NfsProc::kReadDir, NfsProc::kStatFs}) {
    names.insert(NfsProcName(proc));
  }
  EXPECT_EQ(names.size(), 12u);
}

// ----- credentials -----

TEST(Credentials, ConditionsMatchPaperShape) {
  CredentialOptions options;
  options.permissions = "RWX";
  std::string cond = BuildConditions("666240", options);
  EXPECT_EQ(cond,
            "(app_domain == \"DisCFS\") && (HANDLE == \"666240\") -> "
            "\"RWX\";");
}

TEST(Credentials, ExpiryAndHoursComposed) {
  CredentialOptions options;
  options.permissions = "R";
  options.expires_at = "20011231235959";
  options.outside_hours = std::make_pair("0900", "1700");
  std::string cond = BuildConditions("7", options);
  EXPECT_NE(cond.find("timestamp < \"20011231235959\""), std::string::npos);
  EXPECT_NE(cond.find("time_of_day < \"0900\" || time_of_day >= \"1700\""),
            std::string::npos);
}

TEST(Credentials, IssueProducesVerifiableAssertion) {
  DsaPrivateKey issuer = DsaPrivateKey::Generate(Dsa512(), TestRand(1));
  DsaPrivateKey subject = DsaPrivateKey::Generate(Dsa512(), TestRand(2));
  CredentialOptions options;
  options.comment = "testdir";
  auto text = IssueCredential(issuer, subject.public_key(), "666240", options);
  ASSERT_TRUE(text.ok()) << text.status();
  auto assertion = keynote::Assertion::Parse(*text);
  ASSERT_TRUE(assertion.ok());
  EXPECT_TRUE(assertion->VerifySignature().ok());
  EXPECT_EQ(assertion->comment(), "testdir");
  EXPECT_EQ(assertion->licensee_principals()[0],
            subject.public_key().ToKeyNoteString());
}

// ----- policy cache -----

TEST(PolicyCacheTest, HitAfterPut) {
  PolicyCache cache(8, 60);
  EXPECT_FALSE(cache.Get("k1", 7, 100).has_value());
  cache.Put("k1", 7, 5, 100);
  auto hit = cache.Get("k1", 7, 100);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 5u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(PolicyCacheTest, DistinctKeysIndependent) {
  PolicyCache cache(8, 60);
  cache.Put("k1", 7, 4, 0);
  cache.Put("k1", 8, 6, 0);
  cache.Put("k2", 7, 7, 0);
  EXPECT_EQ(*cache.Get("k1", 7, 0), 4u);
  EXPECT_EQ(*cache.Get("k1", 8, 0), 6u);
  EXPECT_EQ(*cache.Get("k2", 7, 0), 7u);
}

TEST(PolicyCacheTest, TtlExpiry) {
  PolicyCache cache(8, 60);
  cache.Put("k", 1, 4, 100);
  EXPECT_TRUE(cache.Get("k", 1, 159).has_value());
  EXPECT_FALSE(cache.Get("k", 1, 160).has_value());
}

TEST(PolicyCacheTest, LruEvictionOrder) {
  PolicyCache cache(2, 60);
  cache.Put("a", 1, 1, 0);
  cache.Put("b", 2, 2, 0);
  EXPECT_TRUE(cache.Get("a", 1, 0).has_value());  // refresh a
  cache.Put("c", 3, 3, 0);                        // evicts b
  EXPECT_TRUE(cache.Get("a", 1, 0).has_value());
  EXPECT_FALSE(cache.Get("b", 2, 0).has_value());
  EXPECT_TRUE(cache.Get("c", 3, 0).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(PolicyCacheTest, CapacityZeroDisables) {
  PolicyCache cache(0, 60);
  cache.Put("k", 1, 4, 0);
  EXPECT_FALSE(cache.Get("k", 1, 0).has_value());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PolicyCacheTest, InvalidateAllFlushes) {
  PolicyCache cache(8, 60);
  cache.Put("a", 1, 1, 0);
  cache.Put("b", 2, 2, 0);
  cache.InvalidateAll();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Get("a", 1, 0).has_value());
}

TEST(PolicyCacheTest, UpdateExistingEntry) {
  PolicyCache cache(2, 60);
  cache.Put("a", 1, 1, 0);
  cache.Put("a", 1, 7, 0);
  EXPECT_EQ(*cache.Get("a", 1, 0), 7u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PolicyCacheTest, StressManyEntries) {
  PolicyCache cache(128, 3600);
  for (uint32_t i = 0; i < 1000; ++i) {
    cache.Put("k" + std::to_string(i % 200), i, i % 8, 0);
  }
  EXPECT_LE(cache.size(), 128u);
}

// Regression for the PR 4 generation-table blind spot: generations used
// to live in a 1024-slot hashed array, so two principals whose hashes
// collided mod 1024 shared one counter and a bump for one invalidated the
// other. Force exactly that collision and check the bystander survives.
TEST(PolicyCacheTest, BumpNeverInvalidatesCollidingPrincipal) {
  PolicyCache cache(1024, 3600);
  std::hash<std::string> h;
  const std::string a = "p0";
  std::string b;
  bool found = false;
  for (int i = 1; i < 200000; ++i) {
    b = "p" + std::to_string(i);
    if (h(b) % 1024 == h(a) % 1024) {
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found) << "no hash collision in 200000 candidates";
  cache.Put(a, 1, 3, 0);
  cache.Put(b, 2, 5, 0);
  cache.InvalidatePrincipal(a, /*remote=*/true);
  EXPECT_FALSE(cache.Get(a, 1, 0).has_value());
  auto hit = cache.Get(b, 2, 0);
  ASSERT_TRUE(hit.has_value()) << "bump of " << a << " invalidated " << b;
  EXPECT_EQ(*hit, 5u);
  EXPECT_EQ(cache.coherence_stats().remote_bumps, 1u);
}

// The generation table bounds tracked principals per stripe by rebasing
// (forget the counters, raise the floor above everything ever issued).
// A naive clear-to-zero would let a principal's counter climb back onto
// an old stamp and serve a revoked grant; the rebase must only ever
// over-invalidate.
TEST(PolicyCacheTest, GenerationRebaseNeverServesStale) {
  PolicyCache cache(8, 3600);
  for (int i = 0; i < 3; ++i) {
    cache.InvalidatePrincipal("victim");
  }
  cache.Put("victim", 1, 7, 0);
  EXPECT_TRUE(cache.Get("victim", 1, 0).has_value());
  // Flood with distinct principals until every stripe has rebased
  // (deterministic: std::hash is fixed per platform, and 150k principals
  // put ~9k in each of the 16 stripes, far past the 4096 bound).
  for (int i = 0; i < 150000; ++i) {
    cache.InvalidatePrincipal("flood" + std::to_string(i));
  }
  EXPECT_GT(cache.coherence_stats().generation_rebases, 0u);
  // The victim's stripe rebased: its entry (stamped gen 3) must read as
  // stale even though the table no longer tracks the victim at all...
  EXPECT_FALSE(cache.Get("victim", 1, 0).has_value());
  cache.Put("victim", 1, 9, 0);
  // ...and bumping the victim back up to its old stamp value must never
  // resurrect a pre-rebase entry (counters restart above the old high).
  for (int i = 0; i < 3; ++i) {
    cache.InvalidatePrincipal("victim");
    EXPECT_FALSE(cache.Get("victim", 1, 0).has_value());
  }
  cache.Put("victim", 1, 11, 0);
  EXPECT_EQ(*cache.Get("victim", 1, 0), 11u);
}

// ----- revocation -----

TEST(RevocationTest, KeyRevocation) {
  RevocationList list(3600);
  EXPECT_FALSE(list.IsKeyRevoked("k", 100));
  list.RevokeKey("k", 100);
  EXPECT_TRUE(list.IsKeyRevoked("k", 100));
  EXPECT_TRUE(list.IsKeyRevoked("k", 3699));
  // Beyond the horizon (short-lived credentials make this safe — §4.1).
  EXPECT_FALSE(list.IsKeyRevoked("k", 3701));
}

TEST(RevocationTest, CredentialRevocation) {
  RevocationList list(100);
  list.RevokeCredential("c1", 50);
  EXPECT_TRUE(list.IsCredentialRevoked("c1", 60));
  EXPECT_FALSE(list.IsCredentialRevoked("c2", 60));
}

TEST(RevocationTest, ExpireReclaimsMemory) {
  RevocationList list(100);
  list.RevokeKey("k1", 0);
  list.RevokeCredential("c1", 0);
  list.RevokeKey("k2", 500);
  EXPECT_EQ(list.size(), 3u);
  list.Expire(600);
  EXPECT_EQ(list.size(), 1u);  // only k2 still within horizon
  EXPECT_TRUE(list.IsKeyRevoked("k2", 550));
}

TEST(RevocationTest, ZeroHorizonMeansForever) {
  RevocationList list(0);
  list.RevokeKey("k", 0);
  EXPECT_TRUE(list.IsKeyRevoked("k", 1'000'000'000));
  list.Expire(1'000'000'000);
  EXPECT_EQ(list.size(), 1u);
}

// ----- vfs path helpers -----

class VfsPathTest : public ::testing::Test {
 protected:
  VfsPathTest() {
    auto dev = std::make_shared<MemBlockDevice>(4096, 4096);
    auto fs = Ffs::Format(dev, FfsFormatOptions{256});
    EXPECT_TRUE(fs.ok());
    vfs_ = std::make_unique<FfsVfs>(std::move(fs).value());
  }
  std::unique_ptr<FfsVfs> vfs_;
};

TEST_F(VfsPathTest, MkdirAllAndResolve) {
  auto dir = MkdirAll(*vfs_, "/a/b/c", 0755);
  ASSERT_TRUE(dir.ok()) << dir.status();
  auto found = ResolvePath(*vfs_, "/a/b/c");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->inode, dir->inode);
  // Idempotent.
  EXPECT_TRUE(MkdirAll(*vfs_, "/a/b/c", 0755).ok());
}

TEST_F(VfsPathTest, WriteReadFileByPath) {
  ASSERT_TRUE(MkdirAll(*vfs_, "/docs", 0755).ok());
  ASSERT_TRUE(WriteFileAt(*vfs_, "/docs/readme.txt", "hello world").ok());
  auto content = ReadFileAt(*vfs_, "/docs/readme.txt");
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "hello world");
  // Overwrite truncates.
  ASSERT_TRUE(WriteFileAt(*vfs_, "/docs/readme.txt", "x").ok());
  EXPECT_EQ(*ReadFileAt(*vfs_, "/docs/readme.txt"), "x");
}

TEST_F(VfsPathTest, PathValidation) {
  EXPECT_FALSE(ResolvePath(*vfs_, "relative/path").ok());
  EXPECT_FALSE(ResolvePath(*vfs_, "/a/../b").ok());
  EXPECT_FALSE(ResolvePath(*vfs_, "/missing").ok());
  EXPECT_TRUE(ResolvePath(*vfs_, "/").ok());
}

TEST_F(VfsPathTest, MkdirAllRejectsFileInTheWay) {
  ASSERT_TRUE(WriteFileAt(*vfs_, "/blocker", "file").ok());
  EXPECT_FALSE(MkdirAll(*vfs_, "/blocker/sub", 0755).ok());
}

}  // namespace
}  // namespace discfs
