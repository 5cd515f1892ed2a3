#include "src/discfs/credentials.h"

#include "src/discfs/action_env.h"
#include "src/keynote/compliance.h"

namespace discfs {

std::string BuildConditions(const std::string& handle,
                            const CredentialOptions& options) {
  std::string cond = "(app_domain == \"" + std::string(kAppDomain) + "\")";
  if (!handle.empty()) {
    cond += " && (" + std::string(keynote::kHandleAttribute) + " == \"" +
            handle + "\")";
  }
  if (options.expires_at.has_value()) {
    cond += " && (timestamp < \"" + *options.expires_at + "\")";
  }
  if (options.outside_hours.has_value()) {
    const auto& [start, end] = *options.outside_hours;
    cond += " && (time_of_day < \"" + start + "\" || time_of_day >= \"" +
            end + "\")";
  }
  cond += " -> \"" + options.permissions + "\";";
  return cond;
}

Result<std::string> IssueCredential(const DsaPrivateKey& issuer,
                                    const DsaPublicKey& subject,
                                    const std::string& handle,
                                    const CredentialOptions& options) {
  keynote::AssertionBuilder builder;
  builder.SetAuthorizer(issuer.public_key().ToKeyNoteString())
      .SetLicensees("\"" + subject.ToKeyNoteString() + "\"")
      .SetConditions(BuildConditions(handle, options));
  if (!options.comment.empty()) {
    builder.SetComment(options.comment);
  }
  return builder.Sign(issuer, keynote::SignatureAlgorithm::kDsaSha1);
}

}  // namespace discfs
