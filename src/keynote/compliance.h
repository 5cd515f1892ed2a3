// The KeyNote compliance checker (RFC 2704 §5): given local policy
// assertions, a set of credentials, an action attribute set, and the
// principal(s) requesting the action, compute the compliance value.
//
// Semantics: a monotone fixpoint over the delegation graph. Requesting
// principals start at the lattice top; each assertion contributes
// meet(conditions-value, licensees-value) to its authorizer; an authorizer
// accumulates with join. The result is the value reached by "POLICY".
// Because delegation composes with meet, a chain can only *restrict* what
// the requester ends up with — the property DisCFS relies on.
#ifndef DISCFS_SRC_KEYNOTE_COMPLIANCE_H_
#define DISCFS_SRC_KEYNOTE_COMPLIANCE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "src/keynote/assertion.h"
#include "src/keynote/lattice.h"

namespace discfs::keynote {

// The action attribute naming the object a query is about (DisCFS: the
// file's inode number). DelegationIndex partitions credentials by it.
inline constexpr char kHandleAttribute[] = "HANDLE";

struct ComplianceQuery {
  // The action attribute set (app_domain, HANDLE, operation, ...).
  AttributeMap attributes;
  // Principals that directly requested the action (signers of the request).
  std::vector<std::string> action_authorizers;
};

// Computes the compliance value of `query` under `assertions` (policies and
// verified credentials together; the caller is responsible for signature
// checking — see KeyNoteSession). Implicit attributes _MIN_TRUST,
// _MAX_TRUST, _VALUES, and ACTION_AUTHORIZERS are provided automatically.
ComplianceLattice::Value CheckCompliance(
    const std::vector<const Assertion*>& assertions,
    const ComplianceQuery& query, const ComplianceLattice& lattice);

// Principal → assertion postings over the delegation graph. Value in the
// compliance fixpoint flows along the edge (licensee → authorizer): an
// assertion raises its authorizer based on its licensees' values, and a
// principal starts above bottom only if it is an action authorizer. The
// index therefore answers the two closures the hot path needs:
//
//  * RelevantSlice — the assertions backward-reachable from the requesting
//    principals toward POLICY, pinned to the query's HANDLE. An assertion
//    is pinned to value v when every clause of its Conditions has a
//    top-level `&&` conjunct HANDLE == "v" (either operand order); its
//    licensee postings then sit in a bucket keyed by EqualityKey(v), and a
//    query only opens the bucket for its own HANDLE. Every assertion left
//    out either evaluates its licensees to bottom in the full fixpoint or
//    has Conditions that are bottom for this query, so it contributes
//    nothing and CheckCompliance over the slice equals the full scan.
//    CheckCompliance still evaluates every assertion it is handed, so the
//    slice only needs to be a superset of the contributing assertions:
//    anything the pin test does not recognize (||, !=, ~=, $-indirection,
//    a Local-Constant named HANDLE, empty Conditions, clauses pinning
//    different values) stays unpinned and always in the slice.
//  * AffectedRequesters — when an assertion is added or removed, the
//    principals whose query results may change: everything that can reach
//    one of its licensee principals. Used for scoped cache invalidation.
class DelegationIndex {
 public:
  // `assertion` must outlive the index (the session owns both).
  void Add(const Assertion* assertion);
  void Remove(const Assertion* assertion);

  std::vector<const Assertion*> RelevantSlice(
      const ComplianceQuery& query) const;

  // Includes the assertion's licensee principals themselves (a requester is
  // trivially affected by a change to an assertion naming it directly).
  // Call while the assertion is still indexed.
  std::vector<std::string> AffectedRequesters(const Assertion& assertion) const;

  // Assertions whose Authorizer is `principal` (empty vector if none).
  const std::vector<const Assertion*>& AuthoredBy(
      const std::string& principal) const;

  size_t assertion_count() const { return assertion_count_; }

 private:
  using Postings =
      std::unordered_map<std::string, std::vector<const Assertion*>>;

  // One licensee principal's postings: unpinned assertions, and pinned
  // ones bucketed by the EqualityKey of the HANDLE value they pin.
  struct LicenseePostings {
    std::vector<const Assertion*> unpinned;
    Postings pinned;
  };

  static void EraseFrom(Postings& postings, const std::string& key,
                        const Assertion* assertion);

  Postings by_authorizer_;
  // One entry per distinct licensee principal.
  std::unordered_map<std::string, LicenseePostings> by_licensee_;
  size_t assertion_count_ = 0;
};

}  // namespace discfs::keynote

#endif  // DISCFS_SRC_KEYNOTE_COMPLIANCE_H_
