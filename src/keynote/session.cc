#include "src/keynote/session.h"

namespace discfs::keynote {

Status KeyNoteSession::AddPolicyAssertion(std::string text) {
  ASSIGN_OR_RETURN(Assertion assertion, Assertion::Parse(std::move(text)));
  if (!assertion.is_policy()) {
    return InvalidArgumentError(
        "policy assertions must have Authorizer \"POLICY\"");
  }
  policies_.push_back(std::make_unique<Assertion>(std::move(assertion)));
  index_.Add(policies_.back().get());
  return OkStatus();
}

Result<std::string> KeyNoteSession::AddCredential(std::string text) {
  ASSIGN_OR_RETURN(Assertion assertion,
                   ParseAndVerifyCredential(std::move(text)));
  return AddVerifiedCredential(std::move(assertion));
}

Result<Assertion> KeyNoteSession::ParseAndVerifyCredential(
    std::string text, VerifiedSignatureCache* cache) {
  ASSIGN_OR_RETURN(Assertion assertion, Assertion::Parse(std::move(text)));
  if (assertion.is_policy()) {
    return InvalidArgumentError(
        "POLICY assertions cannot be admitted as credentials");
  }
  RETURN_IF_ERROR(assertion.VerifySignature(cache));
  return assertion;
}

Result<std::string> KeyNoteSession::AddVerifiedCredential(
    Assertion assertion) {
  std::string id = assertion.Id();
  auto [it, inserted] = credentials_.emplace(
      id, std::make_unique<Assertion>(std::move(assertion)));
  if (inserted) {
    index_.Add(it->second.get());
  }
  return id;
}

Status KeyNoteSession::RemoveCredential(const std::string& id) {
  auto it = credentials_.find(id);
  if (it == credentials_.end()) {
    return NotFoundError("no credential with id " + id);
  }
  index_.Remove(it->second.get());
  credentials_.erase(it);
  return OkStatus();
}

bool KeyNoteSession::HasCredential(const std::string& id) const {
  return credentials_.count(id) != 0;
}

std::vector<std::string> KeyNoteSession::CredentialIdsByAuthorizer(
    const std::string& principal) const {
  std::vector<std::string> ids;
  for (const Assertion* a : index_.AuthoredBy(principal)) {
    if (!a->is_policy()) {
      ids.push_back(a->Id());
    }
  }
  return ids;
}

const Assertion* KeyNoteSession::FindCredential(const std::string& id) const {
  auto it = credentials_.find(id);
  return it == credentials_.end() ? nullptr : it->second.get();
}

ComplianceLattice::Value KeyNoteSession::Query(
    const ComplianceQuery& query) const {
  return CheckCompliance(index_.RelevantSlice(query), query, lattice_);
}

ComplianceLattice::Value KeyNoteSession::QueryFullScan(
    const ComplianceQuery& query) const {
  std::vector<const Assertion*> all;
  all.reserve(policies_.size() + credentials_.size());
  for (const auto& p : policies_) {
    all.push_back(p.get());
  }
  for (const auto& [id, c] : credentials_) {
    all.push_back(c.get());
  }
  return CheckCompliance(all, query, lattice_);
}

std::vector<std::string> KeyNoteSession::AffectedRequesters(
    const std::string& id) const {
  const Assertion* credential = FindCredential(id);
  if (credential == nullptr) {
    return {};
  }
  return index_.AffectedRequesters(*credential);
}

}  // namespace discfs::keynote
