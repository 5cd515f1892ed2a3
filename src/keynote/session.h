// KeyNoteSession: the long-lived container the DisCFS server keeps per
// store. Policies are installed by the local administrator (unsigned,
// Authorizer "POLICY"); credentials arrive over the network, must carry a
// valid signature, and can be removed again (revocation).
#ifndef DISCFS_SRC_KEYNOTE_SESSION_H_
#define DISCFS_SRC_KEYNOTE_SESSION_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/keynote/assertion.h"
#include "src/keynote/compliance.h"
#include "src/keynote/lattice.h"

namespace discfs::keynote {

class KeyNoteSession {
 public:
  explicit KeyNoteSession(const ComplianceLattice& lattice)
      : lattice_(lattice) {}

  // Installs a local policy assertion. Must have Authorizer "POLICY" and no
  // signature requirement.
  Status AddPolicyAssertion(std::string text);

  // Admits a credential: parses it, verifies its signature against its
  // Authorizer key, and stores it. Returns the credential id (also obtainable
  // as Assertion::Id()), which is the handle used for revocation. Admitting
  // the same credential twice is idempotent.
  Result<std::string> AddCredential(std::string text);

  // The two halves of AddCredential, split so a server can run the
  // expensive half (parse + DSA verify, optionally through a
  // verified-signature cache) with no lock held and only the install under
  // its exclusive credential lock.
  static Result<Assertion> ParseAndVerifyCredential(
      std::string text, VerifiedSignatureCache* cache = nullptr);
  // Installs an assertion whose signature ParseAndVerifyCredential already
  // checked. Idempotent like AddCredential.
  Result<std::string> AddVerifiedCredential(Assertion assertion);

  // Removes a credential by id. Returns NOT_FOUND if absent.
  Status RemoveCredential(const std::string& id);

  bool HasCredential(const std::string& id) const;
  size_t credential_count() const { return credentials_.size(); }

  // Ids of all credentials whose Authorizer is `principal` (used when a key
  // is revoked: its delegations must stop contributing). Served from the
  // by-authorizer posting list, not a scan.
  std::vector<std::string> CredentialIdsByAuthorizer(
      const std::string& principal) const;

  // Looks up a credential by id (nullptr if absent).
  const Assertion* FindCredential(const std::string& id) const;

  // Runs the compliance checker over the assertions backward-reachable from
  // the query's action authorizers and not pinned to another HANDLE (the
  // delegation-graph index slice); equals QueryFullScan on every input.
  ComplianceLattice::Value Query(const ComplianceQuery& query) const;

  // Reference implementation: the compliance checker over every installed
  // assertion. Kept for equivalence tests and benchmarks.
  ComplianceLattice::Value QueryFullScan(const ComplianceQuery& query) const;

  // Principals whose Query results may change when credential `id` is added
  // or removed (scoped cache invalidation). The credential must currently
  // be installed; returns an empty vector for unknown ids.
  std::vector<std::string> AffectedRequesters(const std::string& id) const;

  const ComplianceLattice& lattice() const { return lattice_; }

 private:
  const ComplianceLattice& lattice_;
  std::vector<std::unique_ptr<Assertion>> policies_;
  std::map<std::string, std::unique_ptr<Assertion>> credentials_;  // by id
  DelegationIndex index_;  // postings over policies_ + credentials_
};

}  // namespace discfs::keynote

#endif  // DISCFS_SRC_KEYNOTE_SESSION_H_
