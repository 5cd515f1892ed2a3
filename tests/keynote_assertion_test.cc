#include "src/keynote/assertion.h"

#include <gtest/gtest.h>

#include "src/crypto/groups.h"
#include "src/util/prng.h"

namespace discfs::keynote {
namespace {

std::function<Bytes(size_t)> TestRand(uint64_t seed) {
  auto prng = std::make_shared<Prng>(seed);
  return [prng](size_t n) { return prng->NextBytes(n); };
}

class AssertionTest : public ::testing::Test {
 protected:
  AssertionTest()
      : admin_(DsaPrivateKey::Generate(Dsa512(), TestRand(1))),
        bob_(DsaPrivateKey::Generate(Dsa512(), TestRand(2))) {}

  std::string AdminKey() const { return admin_.public_key().ToKeyNoteString(); }
  std::string BobKey() const { return bob_.public_key().ToKeyNoteString(); }

  DsaPrivateKey admin_;
  DsaPrivateKey bob_;
};

TEST_F(AssertionTest, ParsePolicyAssertion) {
  std::string text =
      "KeyNote-Version: 2\n"
      "Authorizer: \"POLICY\"\n"
      "Licensees: \"" + AdminKey() + "\"\n"
      "Conditions: app_domain == \"DisCFS\" -> \"RWX\";\n";
  auto a = Assertion::Parse(text);
  ASSERT_TRUE(a.ok()) << a.status();
  EXPECT_TRUE(a->is_policy());
  EXPECT_FALSE(a->has_signature());
  ASSERT_EQ(a->licensee_principals().size(), 1u);
  EXPECT_EQ(a->licensee_principals()[0], AdminKey());
}

TEST_F(AssertionTest, ParseWithLocalConstants) {
  std::string text =
      "Local-Constants: ADMIN = \"" + AdminKey() + "\"\n"
      "Authorizer: \"POLICY\"\n"
      "Licensees: ADMIN\n";
  auto a = Assertion::Parse(text);
  ASSERT_TRUE(a.ok()) << a.status();
  EXPECT_EQ(a->licensee_principals()[0], AdminKey());
}

TEST_F(AssertionTest, ContinuationLines) {
  std::string text =
      "Authorizer: \"POLICY\"\n"
      "Licensees:\n"
      "  \"" + AdminKey() + "\"\n"
      "Conditions: app_domain == \"DisCFS\"\n"
      "  -> \"RWX\";\n";
  auto a = Assertion::Parse(text);
  ASSERT_TRUE(a.ok()) << a.status();
  EXPECT_EQ(a->licensee_principals().size(), 1u);
}

TEST_F(AssertionTest, CommentPreserved) {
  std::string text =
      "Authorizer: \"POLICY\"\n"
      "Licensees: \"k\"\n"
      "Comment: testdir\n";
  auto a = Assertion::Parse(text);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->comment(), "testdir");
}

TEST_F(AssertionTest, FieldNamesCaseInsensitive) {
  std::string text =
      "AUTHORIZER: \"POLICY\"\n"
      "licensees: \"k\"\n";
  EXPECT_TRUE(Assertion::Parse(text).ok());
}

TEST_F(AssertionTest, RejectsUnknownField) {
  EXPECT_FALSE(Assertion::Parse("Authorizer: \"POLICY\"\nBogus: x\n").ok());
}

TEST_F(AssertionTest, RejectsMissingAuthorizer) {
  EXPECT_FALSE(Assertion::Parse("Licensees: \"k\"\n").ok());
}

TEST_F(AssertionTest, RejectsVersionNotFirst) {
  std::string text =
      "Authorizer: \"POLICY\"\n"
      "KeyNote-Version: 2\n";
  EXPECT_FALSE(Assertion::Parse(text).ok());
}

TEST_F(AssertionTest, RejectsUnsupportedVersion) {
  EXPECT_FALSE(
      Assertion::Parse("KeyNote-Version: 3\nAuthorizer: \"POLICY\"\n").ok());
}

TEST_F(AssertionTest, RejectsEmpty) {
  EXPECT_FALSE(Assertion::Parse("").ok());
  EXPECT_FALSE(Assertion::Parse("\n\n").ok());
}

TEST_F(AssertionTest, BuilderSignVerifyRoundTrip) {
  auto text = AssertionBuilder()
                  .SetAuthorizer(AdminKey())
                  .SetLicensees("\"" + BobKey() + "\"")
                  .SetConditions(
                      "(app_domain == \"DisCFS\") && (HANDLE == \"666240\") "
                      "-> \"RWX\";")
                  .SetComment("testdir")
                  .Sign(admin_, SignatureAlgorithm::kDsaSha1);
  ASSERT_TRUE(text.ok()) << text.status();

  auto a = Assertion::Parse(*text);
  ASSERT_TRUE(a.ok()) << a.status();
  EXPECT_TRUE(a->has_signature());
  EXPECT_FALSE(a->is_policy());
  EXPECT_EQ(a->authorizer(), AdminKey());
  EXPECT_EQ(a->comment(), "testdir");
  EXPECT_TRUE(a->VerifySignature().ok()) << a->VerifySignature();
}

TEST_F(AssertionTest, Sha256SignatureVariant) {
  auto text = AssertionBuilder()
                  .SetAuthorizer(AdminKey())
                  .SetLicensees("\"" + BobKey() + "\"")
                  .Sign(admin_, SignatureAlgorithm::kDsaSha256);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("sig-dsa-sha256-hex:"), std::string::npos);
  auto a = Assertion::Parse(*text);
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(a->VerifySignature().ok());
}

TEST_F(AssertionTest, SignRejectsMismatchedKey) {
  auto text = AssertionBuilder()
                  .SetAuthorizer(AdminKey())
                  .SetLicensees("\"" + BobKey() + "\"")
                  .Sign(bob_, SignatureAlgorithm::kDsaSha1);
  EXPECT_FALSE(text.ok());
}

TEST_F(AssertionTest, TamperedBodyFailsVerification) {
  auto text = AssertionBuilder()
                  .SetAuthorizer(AdminKey())
                  .SetLicensees("\"" + BobKey() + "\"")
                  .SetConditions("HANDLE == \"1\" -> \"R\";")
                  .Sign(admin_, SignatureAlgorithm::kDsaSha1);
  ASSERT_TRUE(text.ok());
  // Privilege escalation attempt: rewrite "R" to "RWX".
  std::string tampered = *text;
  size_t pos = tampered.find("\"R\"");
  ASSERT_NE(pos, std::string::npos);
  tampered.replace(pos, 3, "\"RWX\"");
  auto a = Assertion::Parse(tampered);
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(a->VerifySignature().ok());
}

TEST_F(AssertionTest, TamperedSignatureFailsVerification) {
  auto text = AssertionBuilder()
                  .SetAuthorizer(AdminKey())
                  .SetLicensees("\"" + BobKey() + "\"")
                  .Sign(admin_, SignatureAlgorithm::kDsaSha1);
  ASSERT_TRUE(text.ok());
  std::string tampered = *text;
  size_t pos = tampered.rfind("\"\n");
  ASSERT_NE(pos, std::string::npos);
  char& digit = tampered[pos - 1];
  digit = (digit == '0') ? '1' : '0';
  auto a = Assertion::Parse(tampered);
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(a->VerifySignature().ok());
}

TEST_F(AssertionTest, SignatureMustBeLastField) {
  auto text = AssertionBuilder()
                  .SetAuthorizer(AdminKey())
                  .SetLicensees("\"" + BobKey() + "\"")
                  .Sign(admin_, SignatureAlgorithm::kDsaSha1);
  ASSERT_TRUE(text.ok());
  std::string moved = *text + "Comment: trailing\n";
  EXPECT_FALSE(Assertion::Parse(moved).ok());
}

TEST_F(AssertionTest, PolicyAssertionVerifyFails) {
  auto a = Assertion::Parse("Authorizer: \"POLICY\"\nLicensees: \"k\"\n");
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(a->VerifySignature().ok());
}

TEST_F(AssertionTest, IdIsStableAndUnique) {
  auto t1 = AssertionBuilder()
                .SetAuthorizer(AdminKey())
                .SetLicensees("\"" + BobKey() + "\"")
                .SetComment("one")
                .Sign(admin_, SignatureAlgorithm::kDsaSha1);
  auto t2 = AssertionBuilder()
                .SetAuthorizer(AdminKey())
                .SetLicensees("\"" + BobKey() + "\"")
                .SetComment("two")
                .Sign(admin_, SignatureAlgorithm::kDsaSha1);
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  auto a1 = Assertion::Parse(*t1);
  auto a1b = Assertion::Parse(*t1);
  auto a2 = Assertion::Parse(*t2);
  ASSERT_TRUE(a1.ok());
  ASSERT_TRUE(a1b.ok());
  ASSERT_TRUE(a2.ok());
  EXPECT_EQ(a1->Id(), a1b->Id());
  EXPECT_NE(a1->Id(), a2->Id());
}

// A transport that re-wraps lines, changes field-name case, or reorders
// fields produces different bytes carrying identical semantics and the
// same signature. Canonicalization must make the two equivalent wherever
// identity matters: Id() (revocation would otherwise miss the variant)
// and the verified-signature cache (a resubmitted variant should not pay
// the DSA verify again).
TEST_F(AssertionTest, ReserializedCredentialSharesIdAndCacheKey) {
  auto text = AssertionBuilder()
                  .SetAuthorizer(AdminKey())
                  .SetLicensees("\"" + BobKey() + "\"")
                  .SetConditions("app_domain == \"DisCFS\" -> \"R\";")
                  .SetComment("equiv")
                  .Sign(admin_, SignatureAlgorithm::kDsaSha1);
  ASSERT_TRUE(text.ok()) << text.status();
  size_t sig_pos = text->rfind("Signature:");
  ASSERT_NE(sig_pos, std::string::npos);
  std::string sig_line = text->substr(sig_pos);
  // Same content, hostile serialization: shuffled field order, shouted
  // field names, re-wrapped continuation lines, extra whitespace.
  std::string variant =
      "keynote-version:   2\n"
      "AUTHORIZER: \"" + AdminKey() + "\"\n"
      "Comment: equiv\n"
      "Licensees:\n"
      "   \"" + BobKey() + "\"\n"
      "CONDITIONS: app_domain    == \"DisCFS\"\n"
      "    -> \"R\";\n" +
      sig_line;

  auto a = Assertion::Parse(*text);
  auto b = Assertion::Parse(variant);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  ASSERT_NE(a->text(), b->text());
  EXPECT_EQ(a->canonical_text(), b->canonical_text());
  EXPECT_EQ(a->Id(), b->Id());

  // Cold, the variant must FAIL: its raw bytes are not what was signed,
  // and only the cache (backed by a real verify of the original) may
  // vouch for the canonical equivalence.
  EXPECT_FALSE(b->VerifySignature().ok());
  VerifiedSignatureCache cache(64);
  EXPECT_FALSE(b->VerifySignature(&cache).ok());
  EXPECT_EQ(cache.stats().hits, 0u);

  // Warm the cache with the original; the variant now hits.
  ASSERT_TRUE(a->VerifySignature(&cache).ok());
  EXPECT_TRUE(b->VerifySignature(&cache).ok());
  EXPECT_EQ(cache.stats().hits, 1u);

  // Different semantics (comment changed) never share the canonical key.
  auto other = AssertionBuilder()
                   .SetAuthorizer(AdminKey())
                   .SetLicensees("\"" + BobKey() + "\"")
                   .SetConditions("app_domain == \"DisCFS\" -> \"R\";")
                   .SetComment("different")
                   .Sign(admin_, SignatureAlgorithm::kDsaSha1);
  ASSERT_TRUE(other.ok());
  auto c = Assertion::Parse(*other);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(c->Id(), a->Id());
  EXPECT_NE(c->canonical_text(), a->canonical_text());
}

// The cache key is the digest of the canonical text followed by the
// signature value, with no delimiter. A credential whose comment takes in
// the start of its own signature, so that those bytes come as close as
// they can to the genuine credential's, misses the cache and is rejected,
// whether or not its signature keeps the algorithm prefix.
TEST_F(AssertionTest, CommentAbsorbingItsSignatureMissesTheCache) {
  auto text = AssertionBuilder()
                  .SetAuthorizer(AdminKey())
                  .SetLicensees("\"" + BobKey() + "\"")
                  .SetConditions("app_domain == \"DisCFS\" -> \"R\";")
                  .SetComment("c")
                  .Sign(admin_, SignatureAlgorithm::kDsaSha1);
  ASSERT_TRUE(text.ok()) << text.status();
  const std::string prefix =
      SignatureAlgorithmPrefix(SignatureAlgorithm::kDsaSha1);
  const std::string sig_open = "Signature: \"" + prefix;
  const size_t sig_pos = text->rfind(sig_open);
  ASSERT_NE(sig_pos, std::string::npos);
  // The body ends "Comment: c\n"; the signature line is the rest.
  const std::string stem = text->substr(0, sig_pos - 1);
  const std::string hex = text->substr(
      sig_pos + sig_open.size(), text->size() - sig_pos - sig_open.size() - 2);
  ASSERT_EQ(*text, stem + "\n" + sig_open + hex + "\"\n");

  auto genuine = Assertion::Parse(*text);
  ASSERT_TRUE(genuine.ok()) << genuine.status();
  VerifiedSignatureCache cache(64);
  ASSERT_TRUE(genuine->VerifySignature(&cache).ok());

  for (size_t cut : {size_t{0}, size_t{1}, size_t{8}, hex.size() - 1}) {
    for (const std::string& kept : {prefix, std::string()}) {
      std::string forged = stem + " " + prefix + hex.substr(0, cut) +
                           "\nSignature: \"" + kept + hex.substr(cut) +
                           "\"\n";
      auto a = Assertion::Parse(forged);
      ASSERT_TRUE(a.ok()) << a.status();
      EXPECT_NE(a->digest(), genuine->digest()) << cut;
      EXPECT_FALSE(a->VerifySignature(&cache).ok()) << cut;
    }
  }
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_TRUE(genuine->VerifySignature(&cache).ok());
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST_F(AssertionTest, BuilderLocalConstantsResolve) {
  auto text = AssertionBuilder()
                  .AddLocalConstant("ME", AdminKey())
                  .AddLocalConstant("BOB", BobKey())
                  .SetAuthorizer("ME")
                  .SetLicensees("BOB")
                  .SetConditions("app_domain == \"DisCFS\" -> \"R\";")
                  .Sign(admin_, SignatureAlgorithm::kDsaSha1);
  ASSERT_TRUE(text.ok()) << text.status();
  auto a = Assertion::Parse(*text);
  ASSERT_TRUE(a.ok()) << a.status();
  EXPECT_EQ(a->authorizer(), AdminKey());
  EXPECT_EQ(a->licensee_principals()[0], BobKey());
  EXPECT_TRUE(a->VerifySignature().ok());
}

TEST_F(AssertionTest, ThresholdLicenseesParse) {
  std::string text =
      "Authorizer: \"POLICY\"\n"
      "Licensees: 2-of(\"k1\", \"k2\", \"k3\")\n";
  auto a = Assertion::Parse(text);
  ASSERT_TRUE(a.ok()) << a.status();
  EXPECT_EQ(a->licensee_principals().size(), 3u);
  EXPECT_EQ(a->licensees().kind, LicenseesNode::Kind::kThreshold);
  EXPECT_EQ(a->licensees().k, 2u);
}

TEST_F(AssertionTest, RejectsThresholdOutOfRange) {
  EXPECT_FALSE(Assertion::Parse("Authorizer: \"POLICY\"\n"
                                "Licensees: 4-of(\"a\",\"b\")\n")
                   .ok());
  EXPECT_FALSE(Assertion::Parse("Authorizer: \"POLICY\"\n"
                                "Licensees: 0-of(\"a\",\"b\")\n")
                   .ok());
}

}  // namespace
}  // namespace discfs::keynote
