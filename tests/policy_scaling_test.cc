// Tests for the indexed compliance engine, the sharded generation-stamped
// policy cache, and the server's scoped invalidation (ISSUE 1).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/blockdev/blockdev.h"
#include "src/crypto/groups.h"
#include "src/discfs/policy_cache.h"
#include "src/ffs/ffs.h"
#include "src/discfs/server.h"
#include "src/keynote/session.h"
#include "src/util/clock.h"
#include "src/util/prng.h"
#include "src/vfs/vfs.h"

namespace discfs {
namespace {

using keynote::Assertion;
using keynote::AssertionBuilder;
using keynote::CheckCompliance;
using keynote::ComplianceQuery;
using keynote::DelegationIndex;
using keynote::KeyNoteSession;
using keynote::PermissionLattice;
using keynote::SignatureAlgorithm;

std::function<Bytes(size_t)> TestRand(uint64_t seed) {
  auto prng = std::make_shared<Prng>(seed);
  return [prng](size_t n) { return prng->NextBytes(n); };
}

std::string Key(const DsaPrivateKey& k) {
  return k.public_key().ToKeyNoteString();
}

// issuer → licensees under `conditions` (comment varies the assertion id
// so repeated grants stay distinct).
std::string Credential(const DsaPrivateKey& issuer,
                       const std::string& licensees,
                       const std::string& conditions,
                       const std::string& comment = "",
                       const std::string& handle_constant = "") {
  AssertionBuilder builder;
  builder.SetAuthorizer(Key(issuer));
  builder.SetLicensees(licensees);
  builder.SetConditions(conditions);
  if (!comment.empty()) {
    builder.SetComment(comment);
  }
  if (!handle_constant.empty()) {
    builder.AddLocalConstant("HANDLE", handle_constant);
  }
  auto signed_text = builder.Sign(issuer, SignatureAlgorithm::kDsaSha1);
  EXPECT_TRUE(signed_text.ok()) << signed_text.status();
  return *signed_text;
}

// The paper's Figure 5 conditions: `perms` on `handle`.
std::string HandleConditions(const std::string& handle,
                             const std::string& perms) {
  return "(app_domain == \"DisCFS\") && (HANDLE == \"" + handle +
         "\") -> \"" + perms + "\";";
}

// issuer → licensees expression, `perms` on `handle`.
std::string Grant(const DsaPrivateKey& issuer, const std::string& licensees,
                  const std::string& handle, const std::string& perms,
                  const std::string& comment = "") {
  return Credential(issuer, licensees, HandleConditions(handle, perms),
                    comment);
}

ComplianceQuery AccessQuery(const std::string& principal,
                            const std::string& handle) {
  ComplianceQuery query;
  query.attributes = {{"app_domain", "DisCFS"},
                      {"HANDLE", handle},
                      {"operation", "access"}};
  query.action_authorizers = {principal};
  return query;
}

// ----- sharded policy cache -----

TEST(ShardedPolicyCacheTest, ExpiredEntryIsErasedOnGet) {
  PolicyCache cache(8, 60);
  cache.Put("k", 1, 4, 100);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(cache.Get("k", 1, 160).has_value());
  // The dead entry no longer pins capacity.
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ShardedPolicyCacheTest, InvalidatePrincipalIsScoped) {
  PolicyCache cache(256, 60);
  EXPECT_GT(cache.shard_count(), 1u);
  cache.Put("alice", 1, 7, 0);
  cache.Put("alice", 2, 7, 0);
  cache.Put("bob", 1, 5, 0);
  cache.InvalidatePrincipal("alice");
  EXPECT_FALSE(cache.Get("alice", 1, 0).has_value());
  EXPECT_FALSE(cache.Get("alice", 2, 0).has_value());
  EXPECT_TRUE(cache.Get("bob", 1, 0).has_value());
  EXPECT_EQ(cache.stats().invalidations, 2u);
}

TEST(ShardedPolicyCacheTest, PutAfterInvalidationIsFresh) {
  PolicyCache cache(256, 60);
  cache.Put("alice", 1, 7, 0);
  cache.InvalidatePrincipal("alice");
  cache.Put("alice", 1, 4, 0);
  auto hit = cache.Get("alice", 1, 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 4u);
}

TEST(ShardedPolicyCacheTest, CapacityHoldsAcrossShards) {
  PolicyCache cache(256, 3600);
  for (uint32_t i = 0; i < 5000; ++i) {
    cache.Put("p" + std::to_string(i % 700), i, i % 8, 0);
  }
  EXPECT_LE(cache.size(), 256u);
  EXPECT_GT(cache.stats().evictions, 0u);
}

// ----- randomized indexed/full-scan equivalence -----

// HANDLE literals a credential may pin: spellings of one number that
// numeric `==` equates, other numbers, non-numeric handles, and "" (what an
// absent HANDLE evaluates to).
const char* const kPins[] = {"1", "01", "1e0", "2", "2.0", "3", "a", "b", ""};
// HANDLE values queried, besides leaving the attribute out.
const char* const kHandles[] = {"1", "01", "2.0", "05", "a", "c", "nan", ""};

// Random Conditions over the shapes DelegationIndex must classify: pinned
// (either operand order, any conjunct position, clauses agreeing or not,
// subprogram clauses) and every shape it must leave unpinned, including a
// Local-Constant named HANDLE (set in `*handle_constant`).
std::string PickConditions(Prng& prng, const std::string& perms,
                           std::string* handle_constant) {
  auto lit = [&] {
    const char* pin = kPins[prng.NextBelow(std::size(kPins))];
    return "\"" + std::string(pin) + "\"";
  };
  const std::string domain = "app_domain == \"DisCFS\"";
  const std::string value = " -> \"" + perms + "\";";
  switch (prng.NextBelow(12)) {
    case 0:
    case 1:
      return "(" + domain + ") && (HANDLE == " + lit() + ")" + value;
    case 2:
      return "(" + lit() + " == HANDLE) && " + domain + value;
    case 3: {
      // Two clauses: the same literal, another spelling of it, or another.
      std::string first = "HANDLE == " + lit() + value;
      return first + domain + " && HANDLE == " + lit() + " -> \"R\";";
    }
    case 4: {
      std::string first = lit();
      return "HANDLE == " + first + " || HANDLE == " + lit() + value;
    }
    case 5:
      return "HANDLE != " + lit() + value;
    case 6:
      return "$(\"HAN\" . \"DLE\") == " + lit() + value;
    case 7:
      return "HANDLE == " + lit() + " -> { " + domain + value + " };";
    case 8:
      return domain + " -> { HANDLE == " + lit() + value + " };";
    case 9:
      return "";
    case 10:
      return "HANDLE ~= \"^[12]$\"" + value;
    default:
      // The constant turns the identifier into a literal.
      *handle_constant = kPins[prng.NextBelow(std::size(kPins))];
      if (handle_constant->empty()) {
        *handle_constant = "1";
      }
      return "HANDLE == \"1\"" + value;
  }
}

// Random delegation graphs over a small pool of signing keys plus synthetic
// (non-key) principals; every (requester, handle) query must agree between
// the indexed slice and the full scan, before and after a third of the
// credentials is removed.
TEST(IndexedQueryTest, MatchesFullScanOnRandomizedGraphs) {
  std::vector<DsaPrivateKey> keys;
  for (uint64_t i = 0; i < 5; ++i) {
    keys.push_back(DsaPrivateKey::Generate(Dsa512(), TestRand(100 + i)));
  }
  const char* perms[] = {"R", "RW", "RX", "RWX", "X", "false"};
  size_t granted = 0;
  size_t queries = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Prng prng(seed);
    KeyNoteSession session(PermissionLattice::Get());

    // Everything any principal can name in a licensees field.
    std::vector<std::string> principals;
    for (const auto& k : keys) {
      principals.push_back(Key(k));
    }
    for (int u = 0; u < 6; ++u) {
      principals.push_back("user" + std::to_string(u));
    }
    auto pick_principal = [&]() {
      return "\"" + principals[prng.NextBelow(principals.size())] + "\"";
    };
    auto pick_licensees = [&]() {
      switch (prng.NextBelow(6)) {
        case 0:
          return pick_principal() + " && " + pick_principal();
        case 1:
          return pick_principal() + " || " + pick_principal();
        case 2:
          return "2-of(" + pick_principal() + ", " + pick_principal() +
                 ", " + pick_principal() + ")";
        default:
          return pick_principal();
      }
    };
    auto add_policy = [&](const std::string& licensees, const char* perm) {
      std::string policy =
          "Authorizer: \"POLICY\"\n"
          "Licensees: " + licensees + "\n"
          "Conditions: app_domain == \"DisCFS\" -> \"" + perm + "\";\n";
      ASSERT_TRUE(session.AddPolicyAssertion(policy).ok());
    };

    // One root trusting every key, so most credentials sit on a chain to
    // POLICY and their Conditions decide answers, plus a random root.
    std::string any_key;
    for (const auto& k : keys) {
      any_key += (any_key.empty() ? "\"" : " || \"") + Key(k) + "\"";
    }
    add_policy(any_key, "RWX");
    add_policy(pick_licensees(), perms[prng.NextBelow(4)]);

    // 60 random credentials, each signed by a random key.
    std::vector<std::string> ids;
    for (int c = 0; c < 60; ++c) {
      const DsaPrivateKey& issuer = keys[prng.NextBelow(keys.size())];
      std::string handle_constant;
      std::string conditions =
          PickConditions(prng, perms[prng.NextBelow(6)], &handle_constant);
      auto id = session.AddCredential(
          Credential(issuer, pick_licensees(), conditions,
                     "c" + std::to_string(c), handle_constant));
      ASSERT_TRUE(id.ok()) << id.status() << " for " << conditions;
      ids.push_back(*id);
    }

    auto check = [&](const ComplianceQuery& query, const std::string& what) {
      uint32_t full = session.QueryFullScan(query);
      EXPECT_EQ(session.Query(query), full) << what;
      granted += full != 0;
      ++queries;
    };
    auto check_all = [&](const std::string& phase) {
      for (const std::string& requester : principals) {
        std::string where = phase + " seed " + std::to_string(seed) +
                            " requester " + requester + " handle ";
        for (const char* handle : kHandles) {
          check(AccessQuery(requester, handle), where + handle);
        }
        ComplianceQuery absent = AccessQuery(requester, "");
        absent.attributes.erase("HANDLE");
        check(absent, where + "(absent)");
      }
      // Unknown requester and empty-authorizer edge cases.
      check(AccessQuery("stranger", "1"), phase + " stranger");
      ComplianceQuery empty;
      empty.attributes = {{"app_domain", "DisCFS"}, {"HANDLE", "1"}};
      check(empty, phase + " no requester");
    };
    check_all("before removals");

    // Remove a random third; the index must drop exactly those postings.
    for (size_t i = ids.size(); i > 1; --i) {
      std::swap(ids[i - 1], ids[prng.NextBelow(i)]);
    }
    for (size_t i = 0; i < ids.size() / 3; ++i) {
      ASSERT_TRUE(session.RemoveCredential(ids[i]).ok());
    }
    check_all("after removals");
  }
  // The graphs must grant something, or agreement proves little.
  EXPECT_GT(granted, queries / 20);
}

// An unsigned assertion for driving DelegationIndex directly (it never
// checks signatures).
std::string Unsigned(const std::string& authorizer,
                     const std::string& licensee,
                     const std::string& conditions) {
  AssertionBuilder builder;
  builder.SetAuthorizer(authorizer);
  builder.SetLicensees("\"" + licensee + "\"");
  builder.SetConditions(conditions);
  return builder.BuildUnsigned();
}

// The search workload's shape: one owner holds a credential per file,
// each pinned to its own HANDLE. A cold check for one file must look at
// the searcher's grant, that file's credential and POLICY, not at the
// owner's other 999 credentials.
TEST(IndexedQueryTest, SliceHoldsOnlyTheQueriedHandlesCredential) {
  std::vector<std::unique_ptr<Assertion>> owned;
  DelegationIndex index;
  auto add = [&](const std::string& text) {
    auto parsed = Assertion::Parse(text);
    EXPECT_TRUE(parsed.ok()) << parsed.status();
    owned.push_back(std::make_unique<Assertion>(std::move(parsed).value()));
    index.Add(owned.back().get());
    return owned.back().get();
  };
  const std::string policy =
      "Authorizer: \"POLICY\"\n"
      "Licensees: \"server\"\n"
      "Conditions: app_domain == \"DisCFS\" -> \"RWX\";\n";
  add(policy);
  add(Unsigned("owner", "searcher", "app_domain == \"DisCFS\" -> \"R\";"));
  std::vector<const Assertion*> per_handle;
  for (int h = 1000; h < 2000; ++h) {
    std::string conditions = HandleConditions(std::to_string(h), "RWX");
    per_handle.push_back(add(Unsigned("server", "owner", conditions)));
  }
  auto slice_for = [&](const char* handle) {
    return index.RelevantSlice(AccessQuery("searcher", handle));
  };

  std::vector<const Assertion*> slice = slice_for("1500");
  EXPECT_LE(slice.size(), 3u);
  EXPECT_NE(std::find(slice.begin(), slice.end(), per_handle[500]),
            slice.end());
  EXPECT_EQ(CheckCompliance(slice, AccessQuery("searcher", "1500"),
                            PermissionLattice::Get()),
            PermissionLattice::Get().FromName("R").value());
  // Another spelling of the same number opens the same bucket.
  EXPECT_LE(slice_for("01500.0").size(), 3u);
  // A handle nobody pinned reaches only the unpinned postings.
  EXPECT_EQ(slice_for("7").size(), 1u);

  // Removal empties that handle's bucket and leaves the others alone.
  index.Remove(per_handle[500]);
  EXPECT_EQ(slice_for("1500").size(), 1u);
  EXPECT_EQ(slice_for("1501").size(), 3u);
  for (const auto& assertion : owned) {
    if (assertion.get() != per_handle[500]) {
      index.Remove(assertion.get());
    }
  }
  EXPECT_EQ(index.assertion_count(), 0u);
  EXPECT_TRUE(slice_for("1500").empty());
}

TEST(IndexedQueryTest, CredentialIdsByAuthorizerServedFromIndex) {
  auto issuer_a = DsaPrivateKey::Generate(Dsa512(), TestRand(11));
  auto issuer_b = DsaPrivateKey::Generate(Dsa512(), TestRand(12));
  KeyNoteSession session(PermissionLattice::Get());
  std::set<std::string> expected_a;
  for (int i = 0; i < 3; ++i) {
    auto id = session.AddCredential(
        Grant(issuer_a, "\"u" + std::to_string(i) + "\"", "1", "RWX"));
    ASSERT_TRUE(id.ok());
    expected_a.insert(*id);
  }
  ASSERT_TRUE(session.AddCredential(Grant(issuer_b, "\"u9\"", "1", "R")).ok());

  auto ids = session.CredentialIdsByAuthorizer(Key(issuer_a));
  EXPECT_EQ(std::set<std::string>(ids.begin(), ids.end()), expected_a);
  EXPECT_EQ(session.CredentialIdsByAuthorizer(Key(issuer_b)).size(), 1u);
  EXPECT_TRUE(session.CredentialIdsByAuthorizer("nobody").empty());

  // Removal drops the posting.
  ASSERT_TRUE(session.RemoveCredential(*expected_a.begin()).ok());
  EXPECT_EQ(session.CredentialIdsByAuthorizer(Key(issuer_a)).size(), 2u);
}

// ----- server-level scoped invalidation -----

class ScopedInvalidationTest : public ::testing::Test {
 protected:
  ScopedInvalidationTest()
      : clock_(1'000'000),
        server_key_(DsaPrivateKey::Generate(Dsa512(), TestRand(1))) {
    auto dev = std::make_shared<MemBlockDevice>(4096, 4096);
    auto fs = Ffs::Format(dev, FfsFormatOptions{256});
    EXPECT_TRUE(fs.ok());
    auto vfs = std::make_shared<FfsVfs>(std::move(fs).value());
    DiscfsServerConfig config;
    config.server_key = server_key_;
    config.clock = &clock_;
    config.rand_bytes = TestRand(99);
    auto server = DiscfsServer::Create(vfs, std::move(config));
    EXPECT_TRUE(server.ok()) << server.status();
    server_ = std::move(server).value();
  }

  const DsaPrivateKey& ServerKey() const { return server_key_; }

  uint64_t KeynoteQueries() {
    return server_->counters().keynote_queries.load();
  }

  FakeClock clock_;
  DsaPrivateKey server_key_;
  std::unique_ptr<DiscfsServer> server_;
};

TEST_F(ScopedInvalidationTest, UnrelatedGrantsStayWarmAcrossSubmit) {
  ASSERT_TRUE(server_
                  ->SubmitCredential(Grant(ServerKey(), "\"alice\"", "10",
                                           "RWX", "alice10"))
                  .ok());
  ASSERT_TRUE(
      server_->SubmitCredential(Grant(ServerKey(), "\"bob\"", "20", "RWX",
                                      "bob20"))
          .ok());

  EXPECT_EQ(server_->EffectiveMask("alice", 10), 7u);  // miss → query
  EXPECT_EQ(server_->EffectiveMask("bob", 20), 7u);    // miss → query
  uint64_t queries_after_warmup = KeynoteQueries();

  // New, unrelated principal arrives: alice and bob must stay cached.
  ASSERT_TRUE(server_
                  ->SubmitCredential(Grant(ServerKey(), "\"carol\"", "30",
                                           "RWX", "carol30"))
                  .ok());
  EXPECT_EQ(server_->EffectiveMask("alice", 10), 7u);
  EXPECT_EQ(server_->EffectiveMask("bob", 20), 7u);
  EXPECT_EQ(KeynoteQueries(), queries_after_warmup)
      << "submit of an unrelated credential re-ran the compliance checker";

  // Carol herself was (conservatively) invalidated and recomputes.
  EXPECT_EQ(server_->EffectiveMask("carol", 30), 7u);
  EXPECT_GT(KeynoteQueries(), queries_after_warmup);
}

TEST_F(ScopedInvalidationTest, RemovalInvalidatesTheDelegationChain) {
  auto alice = DsaPrivateKey::Generate(Dsa512(), TestRand(7));
  // server → alice (real key), alice → dave (synthetic requester).
  auto link = server_->SubmitCredential(
      Grant(ServerKey(), "\"" + Key(alice) + "\"", "10", "RWX", "link"));
  ASSERT_TRUE(link.ok());
  ASSERT_TRUE(
      server_->SubmitCredential(Grant(alice, "\"dave\"", "10", "RWX",
                                      "dave10"))
          .ok());
  ASSERT_TRUE(server_
                  ->SubmitCredential(Grant(ServerKey(), "\"bob\"", "20",
                                           "RWX", "bob20"))
                  .ok());

  EXPECT_EQ(server_->EffectiveMask("dave", 10), 7u);
  EXPECT_EQ(server_->EffectiveMask("bob", 20), 7u);
  uint64_t warm = KeynoteQueries();

  // Cutting the server→alice link must invalidate dave (his chain passes
  // through alice) but leave bob warm.
  ASSERT_TRUE(server_->RemoveCredential(*link).ok());
  EXPECT_EQ(server_->EffectiveMask("dave", 10), 0u);
  EXPECT_GT(KeynoteQueries(), warm);
  uint64_t after_dave = KeynoteQueries();
  EXPECT_EQ(server_->EffectiveMask("bob", 20), 7u);
  EXPECT_EQ(KeynoteQueries(), after_dave) << "bob was needlessly flushed";
}

TEST_F(ScopedInvalidationTest, ConcurrentMasksDuringChurnAreConsistent) {
  ASSERT_TRUE(server_
                  ->SubmitCredential(Grant(ServerKey(), "\"alice\"", "10",
                                           "RWX", "alice10"))
                  .ok());

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&]() {
      while (!stop.load()) {
        // Alice's grant is never churned: always RWX.
        if (server_->EffectiveMask("alice", 10) != 7u) {
          failed.store(true);
        }
        // Bob's grant toggles: the mask must be pre- (0) or post- (7)
        // churn, never anything else.
        uint32_t bob = server_->EffectiveMask("bob", 20);
        if (bob != 0u && bob != 7u) {
          failed.store(true);
        }
      }
    });
  }
  auto churn_start = std::chrono::steady_clock::now();
  for (int round = 0; round < 8; ++round) {
    auto id = server_->SubmitCredential(
        Grant(ServerKey(), "\"bob\"", "20", "RWX",
              "round" + std::to_string(round)));
    EXPECT_TRUE(id.ok()) << id.status();
    if (!id.ok()) {
      break;
    }
    std::this_thread::yield();
    EXPECT_TRUE(server_->RemoveCredential(*id).ok());
  }
  auto churn_time = std::chrono::steady_clock::now() - churn_start;
  stop.store(true);
  for (auto& t : readers) {
    t.join();
  }
  EXPECT_FALSE(failed.load());
  // Each submit and remove waits for mu_ exclusive behind four threads
  // that never stop taking it shared; a writer-preferring lock lets it in
  // at once, a reader-preferring one can keep it out for seconds.
  EXPECT_LT(churn_time, std::chrono::seconds(2))
      << std::chrono::duration<double>(churn_time).count() << " s";
}

}  // namespace
}  // namespace discfs
