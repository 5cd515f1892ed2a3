// KeyNote assertions (RFC 2704 §4): parsing the textual form, canonical
// signing bytes, signature creation and verification, and a builder used by
// DisCFS to mint credentials.
//
// Assertion text format:
//
//   KeyNote-Version: 2
//   Local-Constants: ADMIN = "dsa-hex:3081..."
//   Authorizer: ADMIN
//   Licensees: "dsa-hex:3081..."
//   Conditions: (app_domain == "DisCFS") && (HANDLE == "666240") -> "RWX";
//   Comment: testdir
//   Signature: "sig-dsa-sha1-hex:302e..."
//
// Fields start in column zero as "Name:"; continuation lines are indented.
// Field names are case-insensitive. The Signature field, when present, must
// come last; the signed bytes are the assertion text from the first byte up
// to the Signature field, plus the signature algorithm prefix (e.g.
// "sig-dsa-sha1-hex:"), following the RFC's convention that the algorithm
// name is covered by the signature.
#ifndef DISCFS_SRC_KEYNOTE_ASSERTION_H_
#define DISCFS_SRC_KEYNOTE_ASSERTION_H_

#include <memory>
#include <string>
#include <vector>

#include "src/crypto/dsa.h"
#include "src/keynote/expr.h"
#include "src/keynote/licensees.h"
#include "src/keynote/sigcache.h"
#include "src/util/status.h"

namespace discfs::keynote {

// The principal name reserved for local policy roots.
inline constexpr char kPolicyPrincipal[] = "POLICY";

enum class SignatureAlgorithm {
  kDsaSha1,    // "sig-dsa-sha1-hex:" — the paper's encoding
  kDsaSha256,  // "sig-dsa-sha256-hex:" — modern variant
};

const char* SignatureAlgorithmPrefix(SignatureAlgorithm algo);

class Assertion {
 public:
  // Parses the textual form. Signature (if present) is NOT verified here —
  // call VerifySignature(); sessions do this on admission.
  static Result<Assertion> Parse(std::string text);

  const std::string& text() const { return text_; }
  // Deterministic re-serialization of the assertion's *content* (fields in
  // fixed order, names lower-cased, whitespace collapsed outside quoted
  // strings, Authorizer resolved through Local-Constants, Signature
  // excluded). Two parses whose canonical texts match carry identical
  // semantics even if their raw bytes differ (re-wrapped lines, field
  // case, field order); keys Id() and the verified-signature cache.
  const std::string& canonical_text() const { return canonical_text_; }
  const std::string& authorizer() const { return authorizer_; }
  const LicenseesNode& licensees() const { return *licensees_; }
  const std::vector<std::string>& licensee_principals() const {
    return licensee_principals_;
  }
  const ConditionsProgram& conditions() const { return conditions_; }
  const std::string& comment() const { return comment_; }
  bool is_policy() const { return authorizer_ == kPolicyPrincipal; }
  bool has_signature() const { return !signature_value_.empty(); }

  // SHA-256 of the canonical text followed by the signature value,
  // computed once at parse. Keys the verified-signature cache.
  const Sha256Digest& digest() const { return digest_; }

  // Stable identifier: the first 16 hex digits of digest(). Used as the
  // revocation handle — canonical (rather than raw) bytes so a
  // re-serialized copy of a revoked credential maps to the same id and
  // cannot slip past the revocation list.
  std::string Id() const;

  // Checks that the Signature field verifies against the Authorizer key.
  // Fails for policy assertions (they are unsigned by definition) and for
  // authorizers that are not keys. With a cache, a previously verified
  // digest() short-circuits after the algorithm-prefix check and before
  // any hashing or bignum math — so a re-serialized copy of an admitted
  // credential hits even though its raw bytes differ — and a fresh
  // successful verify is recorded for next time. The DSA check itself
  // always runs over the exact signed bytes; only the cache key is
  // canonical.
  Status VerifySignature(VerifiedSignatureCache* cache = nullptr) const;

  Assertion(Assertion&&) = default;
  Assertion& operator=(Assertion&&) = default;

 private:
  Assertion() = default;

  std::string text_;
  std::string canonical_text_;
  std::string authorizer_;
  std::unique_ptr<LicenseesNode> licensees_;
  std::vector<std::string> licensee_principals_;
  ConditionsProgram conditions_;
  std::string comment_;
  ConstantMap local_constants_;
  size_t signature_field_offset_ = 0;  // offset of the Signature field line
  std::string signature_value_;        // e.g. "sig-dsa-sha1-hex:302e..."
  Sha256Digest digest_;
};

// Composes assertion text; Sign() produces a credential, BuildUnsigned() a
// policy assertion.
class AssertionBuilder {
 public:
  AssertionBuilder& SetAuthorizer(std::string principal);
  AssertionBuilder& SetLicensees(std::string expression);
  AssertionBuilder& SetConditions(std::string conditions);
  AssertionBuilder& SetComment(std::string comment);
  AssertionBuilder& AddLocalConstant(std::string name, std::string value);

  // Unsigned text (for POLICY assertions or for external signing).
  std::string BuildUnsigned() const;

  // Builds, signs with `key` (which must match the Authorizer), and returns
  // the complete credential text.
  Result<std::string> Sign(const DsaPrivateKey& key,
                           SignatureAlgorithm algo) const;

 private:
  std::string authorizer_;
  std::string licensees_;
  std::string conditions_;
  std::string comment_;
  std::vector<std::pair<std::string, std::string>> local_constants_;
};

}  // namespace discfs::keynote

#endif  // DISCFS_SRC_KEYNOTE_ASSERTION_H_
