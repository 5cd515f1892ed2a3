#include "src/keynote/assertion.h"

#include <cctype>

#include "src/crypto/sha.h"
#include "src/util/hex.h"
#include "src/util/strings.h"

namespace discfs::keynote {
namespace {

struct RawField {
  std::string name;   // lower-cased
  std::string value;  // continuation lines joined with ' '
  size_t offset;      // byte offset of the field's first line
};

// Splits assertion text into fields. Continuation lines begin with
// whitespace; blank lines are ignored.
Result<std::vector<RawField>> SplitFields(const std::string& text) {
  std::vector<RawField> fields;
  size_t line_start = 0;
  while (line_start < text.size()) {
    size_t line_end = text.find('\n', line_start);
    if (line_end == std::string::npos) {
      line_end = text.size();
    }
    std::string_view line(text.data() + line_start, line_end - line_start);
    if (StripWhitespace(line).empty()) {
      line_start = line_end + 1;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(line[0]))) {
      if (fields.empty()) {
        return InvalidArgumentError("continuation line before any field");
      }
      fields.back().value += ' ';
      fields.back().value += std::string(StripWhitespace(line));
      line_start = line_end + 1;
      continue;
    }
    size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      return InvalidArgumentError(
          StrPrintf("malformed field line at offset %zu", line_start));
    }
    RawField f;
    f.name = ToLowerAscii(StripWhitespace(line.substr(0, colon)));
    f.value = std::string(StripWhitespace(line.substr(colon + 1)));
    f.offset = line_start;
    fields.push_back(std::move(f));
    line_start = line_end + 1;
  }
  return fields;
}

// Local-Constants value: NAME = "value" NAME2 = "value2" ...
Result<ConstantMap> ParseLocalConstants(const std::string& value) {
  ConstantMap constants;
  size_t i = 0;
  const size_t n = value.size();
  auto skip_ws = [&] {
    while (i < n && std::isspace(static_cast<unsigned char>(value[i]))) {
      ++i;
    }
  };
  while (true) {
    skip_ws();
    if (i >= n) {
      break;
    }
    size_t name_start = i;
    while (i < n && (std::isalnum(static_cast<unsigned char>(value[i])) ||
                     value[i] == '_')) {
      ++i;
    }
    if (i == name_start) {
      return InvalidArgumentError("expected constant name in Local-Constants");
    }
    std::string name = value.substr(name_start, i - name_start);
    skip_ws();
    if (i >= n || value[i] != '=') {
      return InvalidArgumentError("expected '=' in Local-Constants");
    }
    ++i;
    skip_ws();
    if (i >= n || value[i] != '"') {
      return InvalidArgumentError("expected quoted value in Local-Constants");
    }
    ++i;
    std::string val;
    bool closed = false;
    while (i < n) {
      char c = value[i];
      if (c == '\\' && i + 1 < n) {
        val.push_back(value[i + 1]);
        i += 2;
        continue;
      }
      if (c == '"') {
        ++i;
        closed = true;
        break;
      }
      val.push_back(c);
      ++i;
    }
    if (!closed) {
      return InvalidArgumentError("unterminated string in Local-Constants");
    }
    if (!constants.emplace(std::move(name), std::move(val)).second) {
      return InvalidArgumentError("duplicate Local-Constants name");
    }
  }
  return constants;
}

// Strips optional surrounding quotes from a Signature field value.
std::string StripQuotes(std::string_view s) {
  s = StripWhitespace(s);
  if (s.size() >= 2 && s.front() == '"' && s.back() == '"') {
    s = s.substr(1, s.size() - 2);
  }
  return std::string(s);
}

std::string QuoteString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

// Collapses runs of whitespace outside quoted strings to a single space
// and strips the ends. Quoted strings (with backslash escapes) pass
// through verbatim, so this never changes what the expression grammar
// sees — equal collapsed forms imply equal semantics.
std::string CollapseOutsideQuotes(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  bool in_quote = false;
  bool pending_space = false;
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (in_quote) {
      out.push_back(c);
      if (c == '\\' && i + 1 < s.size()) {
        out.push_back(s[++i]);
      } else if (c == '"') {
        in_quote = false;
      }
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      pending_space = !out.empty();
      continue;
    }
    if (pending_space) {
      out.push_back(' ');
      pending_space = false;
    }
    out.push_back(c);
    if (c == '"') {
      in_quote = true;
    }
  }
  return out;
}

}  // namespace

const char* SignatureAlgorithmPrefix(SignatureAlgorithm algo) {
  switch (algo) {
    case SignatureAlgorithm::kDsaSha1:
      return "sig-dsa-sha1-hex:";
    case SignatureAlgorithm::kDsaSha256:
      return "sig-dsa-sha256-hex:";
  }
  return "";
}

Result<Assertion> Assertion::Parse(std::string text) {
  Assertion assertion;
  assertion.text_ = std::move(text);
  ASSIGN_OR_RETURN(std::vector<RawField> fields,
                   SplitFields(assertion.text_));
  if (fields.empty()) {
    return InvalidArgumentError("empty assertion");
  }

  // Local-Constants must be interpreted before the principal/conditions
  // fields that reference them.
  const RawField* authorizer_field = nullptr;
  const RawField* licensees_field = nullptr;
  const RawField* conditions_field = nullptr;
  const RawField* signature_field = nullptr;
  for (size_t idx = 0; idx < fields.size(); ++idx) {
    const RawField& f = fields[idx];
    if (f.name == "keynote-version") {
      if (idx != 0) {
        return InvalidArgumentError("KeyNote-Version must be the first field");
      }
      if (StripQuotes(f.value) != "2") {
        return InvalidArgumentError("unsupported KeyNote-Version");
      }
    } else if (f.name == "local-constants") {
      ASSIGN_OR_RETURN(assertion.local_constants_,
                       ParseLocalConstants(f.value));
    } else if (f.name == "authorizer") {
      authorizer_field = &f;
    } else if (f.name == "licensees") {
      licensees_field = &f;
    } else if (f.name == "conditions") {
      conditions_field = &f;
    } else if (f.name == "comment") {
      assertion.comment_ = f.value;
    } else if (f.name == "signature") {
      if (idx != fields.size() - 1) {
        return InvalidArgumentError("Signature must be the last field");
      }
      signature_field = &f;
    } else {
      return InvalidArgumentError("unknown assertion field: " + f.name);
    }
  }

  if (authorizer_field == nullptr) {
    return InvalidArgumentError("missing Authorizer field");
  }
  ASSIGN_OR_RETURN(
      assertion.authorizer_,
      ParseAuthorizer(authorizer_field->value, assertion.local_constants_));

  if (licensees_field != nullptr) {
    ASSIGN_OR_RETURN(
        assertion.licensees_,
        ParseLicensees(licensees_field->value, assertion.local_constants_));
  } else {
    // An assertion without Licensees authorizes no one; represent it as a
    // principal node that can never be satisfied.
    auto node = std::make_unique<LicenseesNode>();
    node->kind = LicenseesNode::Kind::kPrincipal;
    node->principal = "";
    assertion.licensees_ = std::move(node);
  }
  assertion.licensee_principals_ = CollectPrincipals(*assertion.licensees_);

  if (conditions_field != nullptr) {
    ASSIGN_OR_RETURN(
        assertion.conditions_,
        ParseConditions(conditions_field->value, assertion.local_constants_));
  }

  if (signature_field != nullptr) {
    assertion.signature_field_offset_ = signature_field->offset;
    assertion.signature_value_ = StripQuotes(signature_field->value);
  }

  // Canonical form: fixed field order, lower-cased names, sorted
  // Local-Constants (ConstantMap is a std::map), resolved Authorizer,
  // collapsed whitespace, no Signature. Built from the parsed state, so
  // any two texts this parser reads identically canonicalize identically.
  std::string& canonical = assertion.canonical_text_;
  canonical = "keynote-version: 2\n";
  if (!assertion.local_constants_.empty()) {
    canonical += "local-constants:";
    for (const auto& [name, value] : assertion.local_constants_) {
      canonical += ' ' + name + '=' + QuoteString(value);
    }
    canonical += '\n';
  }
  canonical += "authorizer: " + QuoteString(assertion.authorizer_) + '\n';
  if (licensees_field != nullptr) {
    canonical +=
        "licensees: " + CollapseOutsideQuotes(licensees_field->value) + '\n';
  }
  if (conditions_field != nullptr) {
    canonical +=
        "conditions: " + CollapseOutsideQuotes(conditions_field->value) + '\n';
  }
  if (!assertion.comment_.empty()) {
    canonical += "comment: " + assertion.comment_ + '\n';
  }
  Sha256 h;
  h.Update(canonical);
  h.Update(assertion.signature_value_);
  assertion.digest_ = h.FinishDigest();
  return assertion;
}

std::string Assertion::Id() const {
  return HexEncode(digest_.bytes.data(), 8);
}

Status Assertion::VerifySignature(VerifiedSignatureCache* cache) const {
  if (is_policy()) {
    return FailedPreconditionError("policy assertions are not signed");
  }
  if (signature_value_.empty()) {
    return InvalidArgumentError("assertion has no signature");
  }
  size_t last_colon = signature_value_.rfind(':');
  if (last_colon == std::string::npos) {
    return InvalidArgumentError("malformed signature encoding");
  }
  std::string prefix = signature_value_.substr(0, last_colon + 1);
  std::string sig_hex = signature_value_.substr(last_colon + 1);

  bool sha1;
  if (prefix == SignatureAlgorithmPrefix(SignatureAlgorithm::kDsaSha1)) {
    sha1 = true;
  } else if (prefix ==
             SignatureAlgorithmPrefix(SignatureAlgorithm::kDsaSha256)) {
    sha1 = false;
  } else {
    return InvalidArgumentError("unsupported signature algorithm: " + prefix);
  }

  // The cache is keyed by the *canonical* content rather than the signed
  // bytes: a hit proves a credential with identical semantics and this
  // exact signature passed the full verify below, so admitting a
  // re-serialized copy grants exactly the rights the verified original
  // did (and Id() is canonical too, so revocation covers every
  // serialization). The DSA path below still checks the raw signed bytes.
  if (cache != nullptr && cache->Contains(digest_)) {
    return OkStatus();
  }

  std::string signed_text =
      text_.substr(0, signature_field_offset_) + prefix;
  Bytes digest =
      sha1 ? Sha1::Hash(signed_text) : Sha256::Hash(signed_text);

  ASSIGN_OR_RETURN(DsaPublicKey key,
                   DsaPublicKey::FromKeyNoteString(authorizer_));
  ASSIGN_OR_RETURN(Bytes sig_bytes, HexDecode(sig_hex));
  ASSIGN_OR_RETURN(DsaSignature sig,
                   DeserializeDsaSignature(sig_bytes, key.params()));

  if (!key.Verify(digest, sig)) {
    return UnauthenticatedError("credential signature verification failed");
  }
  if (cache != nullptr) {
    cache->Insert(digest_);
  }
  return OkStatus();
}

AssertionBuilder& AssertionBuilder::SetAuthorizer(std::string principal) {
  authorizer_ = std::move(principal);
  return *this;
}

AssertionBuilder& AssertionBuilder::SetLicensees(std::string expression) {
  licensees_ = std::move(expression);
  return *this;
}

AssertionBuilder& AssertionBuilder::SetConditions(std::string conditions) {
  conditions_ = std::move(conditions);
  return *this;
}

AssertionBuilder& AssertionBuilder::SetComment(std::string comment) {
  comment_ = std::move(comment);
  return *this;
}

AssertionBuilder& AssertionBuilder::AddLocalConstant(std::string name,
                                                     std::string value) {
  local_constants_.emplace_back(std::move(name), std::move(value));
  return *this;
}

std::string AssertionBuilder::BuildUnsigned() const {
  std::string out = "KeyNote-Version: 2\n";
  if (!local_constants_.empty()) {
    out += "Local-Constants:";
    for (const auto& [name, value] : local_constants_) {
      out += "\n  " + name + " = " + QuoteString(value);
    }
    out += "\n";
  }
  // A registered Local-Constants name is emitted bare so the parser resolves
  // it; anything else is a literal principal and gets quoted.
  bool is_constant_name = false;
  for (const auto& [name, value] : local_constants_) {
    if (name == authorizer_) {
      is_constant_name = true;
      break;
    }
  }
  out += "Authorizer: " +
         (is_constant_name ? authorizer_ : QuoteString(authorizer_)) + "\n";
  if (!licensees_.empty()) {
    out += "Licensees: " + licensees_ + "\n";
  }
  if (!conditions_.empty()) {
    out += "Conditions: " + conditions_ + "\n";
  }
  if (!comment_.empty()) {
    out += "Comment: " + comment_ + "\n";
  }
  return out;
}

Result<std::string> AssertionBuilder::Sign(const DsaPrivateKey& key,
                                           SignatureAlgorithm algo) const {
  // The Authorizer (after Local-Constants resolution) must be the signing
  // key, or the resulting credential could never verify.
  std::string resolved = authorizer_;
  for (const auto& [name, value] : local_constants_) {
    if (name == authorizer_) {
      resolved = value;
      break;
    }
  }
  if (resolved != key.public_key().ToKeyNoteString()) {
    return InvalidArgumentError(
        "signing key does not match the Authorizer principal");
  }

  std::string body = BuildUnsigned();
  const char* prefix = SignatureAlgorithmPrefix(algo);
  std::string signed_text = body + prefix;
  Bytes digest = (algo == SignatureAlgorithm::kDsaSha1)
                     ? Sha1::Hash(signed_text)
                     : Sha256::Hash(signed_text);
  DsaSignature sig = key.Sign(digest);
  Bytes sig_bytes = SerializeDsaSignature(sig, key.public_key().params());
  // The Signature line must begin exactly at `body.size()` so verification
  // reconstructs the same signed bytes.
  return body + "Signature: \"" + prefix + HexEncode(sig_bytes) + "\"\n";
}

}  // namespace discfs::keynote
