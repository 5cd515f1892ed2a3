#include "src/keynote/compliance.h"

#include <algorithm>
#include <map>
#include <optional>
#include <unordered_set>

namespace discfs::keynote {
namespace {

bool IsHandleAttr(const Expr& e) {
  return e.kind == Expr::Kind::kAttr && e.text == kHandleAttribute;
}

// The EqualityKey of the value a clause test pins HANDLE to: the first
// top-level `&&` conjunct of the form HANDLE == "v" or "v" == HANDLE. The
// test can only be true when that conjunct is.
std::optional<std::string> TestPin(const Expr& test) {
  if (test.kind == Expr::Kind::kAnd) {
    std::optional<std::string> pin = TestPin(*test.children[0]);
    return pin.has_value() ? pin : TestPin(*test.children[1]);
  }
  if (test.kind != Expr::Kind::kCompare || test.cmp_op != Expr::CmpOp::kEq) {
    return std::nullopt;
  }
  const Expr& lhs = *test.children[0];
  const Expr& rhs = *test.children[1];
  if (IsHandleAttr(lhs) && rhs.kind == Expr::Kind::kStringLit) {
    return EqualityKey(rhs.text);
  }
  if (IsHandleAttr(rhs) && lhs.kind == Expr::Kind::kStringLit) {
    return EqualityKey(lhs.text);
  }
  return std::nullopt;
}

// The key every clause of `conditions` pins HANDLE to, if they all pin the
// same one. Then the Conditions are bottom for any query whose HANDLE has
// another key. Empty Conditions (top for every query) pin nothing.
std::optional<std::string> ConditionsPin(const ConditionsProgram& conditions) {
  std::optional<std::string> pin;
  for (const ConditionsClause& clause : conditions.clauses) {
    std::optional<std::string> clause_pin = TestPin(*clause.test);
    if (!clause_pin.has_value() || (pin.has_value() && *pin != *clause_pin)) {
      return std::nullopt;
    }
    pin = std::move(clause_pin);
  }
  return pin;
}

void EraseOne(std::vector<const Assertion*>& list, const Assertion* assertion) {
  list.erase(std::remove(list.begin(), list.end(), assertion), list.end());
}

}  // namespace

ComplianceLattice::Value CheckCompliance(
    const std::vector<const Assertion*>& assertions,
    const ComplianceQuery& query, const ComplianceLattice& lattice) {
  // Implicit attributes visible to every Conditions program.
  AttributeMap env = query.attributes;
  std::vector<std::string> names = lattice.ValueNames();
  env["_MIN_TRUST"] = names.front();
  env["_MAX_TRUST"] = names.back();
  std::string values_joined;
  for (const std::string& n : names) {
    if (!values_joined.empty()) {
      values_joined += ",";
    }
    values_joined += n;
  }
  env["_VALUES"] = values_joined;
  std::string authorizers_joined;
  for (const std::string& a : query.action_authorizers) {
    if (!authorizers_joined.empty()) {
      authorizers_joined += ",";
    }
    authorizers_joined += a;
  }
  env["ACTION_AUTHORIZERS"] = authorizers_joined;

  // Conditions depend only on the action environment: evaluate once per
  // assertion.
  std::vector<ComplianceLattice::Value> cond_values;
  cond_values.reserve(assertions.size());
  for (const Assertion* a : assertions) {
    cond_values.push_back(EvalConditions(a->conditions(), env, lattice));
  }

  // Fixpoint iteration. Principal values only grow (join), and the lattice
  // is finite, so this terminates; the iteration bound is a safety rail.
  std::map<std::string, ComplianceLattice::Value> values;
  for (const std::string& requester : query.action_authorizers) {
    values[requester] = lattice.Top();
  }

  const size_t max_rounds = assertions.size() + 2;
  for (size_t round = 0; round < max_rounds; ++round) {
    bool changed = false;
    for (size_t i = 0; i < assertions.size(); ++i) {
      const Assertion* a = assertions[i];
      ComplianceLattice::Value contribution = lattice.Meet(
          cond_values[i], EvalLicensees(a->licensees(), values, lattice));
      auto [it, inserted] =
          values.emplace(a->authorizer(), lattice.Bottom());
      ComplianceLattice::Value next = lattice.Join(it->second, contribution);
      if (next != it->second) {
        it->second = next;
        changed = true;
      }
    }
    if (!changed) {
      break;
    }
  }

  auto it = values.find(kPolicyPrincipal);
  return it == values.end() ? lattice.Bottom() : it->second;
}

void DelegationIndex::Add(const Assertion* assertion) {
  by_authorizer_[assertion->authorizer()].push_back(assertion);
  std::optional<std::string> pin = ConditionsPin(assertion->conditions());
  for (const std::string& principal : assertion->licensee_principals()) {
    LicenseePostings& postings = by_licensee_[principal];
    if (pin.has_value()) {
      postings.pinned[*pin].push_back(assertion);
    } else {
      postings.unpinned.push_back(assertion);
    }
  }
  ++assertion_count_;
}

void DelegationIndex::EraseFrom(Postings& postings, const std::string& key,
                                const Assertion* assertion) {
  auto it = postings.find(key);
  if (it == postings.end()) {
    return;
  }
  EraseOne(it->second, assertion);
  if (it->second.empty()) {
    postings.erase(it);
  }
}

void DelegationIndex::Remove(const Assertion* assertion) {
  EraseFrom(by_authorizer_, assertion->authorizer(), assertion);
  // Recomputed from the immutable Conditions, so it names the bucket Add
  // filed the assertion under.
  std::optional<std::string> pin = ConditionsPin(assertion->conditions());
  for (const std::string& principal : assertion->licensee_principals()) {
    auto it = by_licensee_.find(principal);
    if (it == by_licensee_.end()) {
      continue;
    }
    LicenseePostings& postings = it->second;
    if (pin.has_value()) {
      EraseFrom(postings.pinned, *pin, assertion);
    } else {
      EraseOne(postings.unpinned, assertion);
    }
    if (postings.unpinned.empty() && postings.pinned.empty()) {
      by_licensee_.erase(it);
    }
  }
  --assertion_count_;
}

std::vector<const Assertion*> DelegationIndex::RelevantSlice(
    const ComplianceQuery& query) const {
  // An absent HANDLE evaluates to "" in Conditions, so it keys like "".
  auto handle = query.attributes.find(kHandleAttribute);
  const std::string handle_key = EqualityKey(
      handle == query.attributes.end() ? std::string() : handle->second);

  // Forward closure from the requesters along (licensee → authorizer):
  // visiting a principal pulls in the assertions that name it as a
  // licensee and are unpinned or pinned to this HANDLE, and each such
  // assertion's authorizer joins the frontier.
  std::unordered_set<std::string> visited(query.action_authorizers.begin(),
                                          query.action_authorizers.end());
  std::vector<std::string> frontier(visited.begin(), visited.end());
  std::unordered_set<const Assertion*> seen;
  std::vector<const Assertion*> slice;
  auto take = [&](const std::vector<const Assertion*>& postings) {
    for (const Assertion* a : postings) {
      if (!seen.insert(a).second) {
        continue;
      }
      slice.push_back(a);
      if (visited.insert(a->authorizer()).second) {
        frontier.push_back(a->authorizer());
      }
    }
  };
  while (!frontier.empty()) {
    std::string principal = std::move(frontier.back());
    frontier.pop_back();
    auto it = by_licensee_.find(principal);
    if (it == by_licensee_.end()) {
      continue;
    }
    take(it->second.unpinned);
    auto bucket = it->second.pinned.find(handle_key);
    if (bucket != it->second.pinned.end()) {
      take(bucket->second);
    }
  }
  return slice;
}

const std::vector<const Assertion*>& DelegationIndex::AuthoredBy(
    const std::string& principal) const {
  static const std::vector<const Assertion*> kEmpty;
  auto it = by_authorizer_.find(principal);
  return it == by_authorizer_.end() ? kEmpty : it->second;
}

std::vector<std::string> DelegationIndex::AffectedRequesters(
    const Assertion& assertion) const {
  // Backward closure from the assertion's licensees along the reverse edge
  // (authorizer → licensee): a principal P is affected iff a delegation
  // chain from P reaches one of these licensees, i.e. the licensee sits in
  // P's forward closure and the assertion in P's relevant slice.
  std::unordered_set<std::string> visited;
  std::vector<std::string> frontier;
  for (const std::string& principal : assertion.licensee_principals()) {
    if (visited.insert(principal).second) {
      frontier.push_back(principal);
    }
  }
  std::vector<std::string> affected(frontier);
  while (!frontier.empty()) {
    std::string principal = std::move(frontier.back());
    frontier.pop_back();
    auto it = by_authorizer_.find(principal);
    if (it == by_authorizer_.end()) {
      continue;
    }
    for (const Assertion* a : it->second) {
      for (const std::string& licensee : a->licensee_principals()) {
        if (visited.insert(licensee).second) {
          frontier.push_back(licensee);
          affected.push_back(licensee);
        }
      }
    }
  }
  return affected;
}

}  // namespace discfs::keynote
