#include "src/discfs/action_env.h"

#include "src/keynote/compliance.h"
#include "src/keynote/lattice.h"
#include "src/util/strings.h"

namespace discfs {

std::string HandleString(uint32_t inode) {
  return StrPrintf("%u", inode);
}

const char* NfsProcName(NfsProc proc) {
  switch (proc) {
    case NfsProc::kNull:
      return "null";
    case NfsProc::kGetAttr:
      return "getattr";
    case NfsProc::kSetAttr:
      return "setattr";
    case NfsProc::kLookup:
      return "lookup";
    case NfsProc::kReadLink:
      return "readlink";
    case NfsProc::kRead:
      return "read";
    case NfsProc::kWrite:
      return "write";
    case NfsProc::kCreate:
      return "create";
    case NfsProc::kRemove:
      return "remove";
    case NfsProc::kRename:
      return "rename";
    case NfsProc::kLink:
      return "link";
    case NfsProc::kSymlink:
      return "symlink";
    case NfsProc::kMkdir:
      return "mkdir";
    case NfsProc::kRmdir:
      return "rmdir";
    case NfsProc::kReadDir:
      return "readdir";
    case NfsProc::kStatFs:
      return "statfs";
    case NfsProc::kGetRoot:
      return "getroot";
  }
  return "unknown";
}

keynote::AttributeMap BuildActionEnv(NfsProc proc, uint32_t inode,
                                     uint32_t needed_mask,
                                     const Clock& clock) {
  keynote::AttributeMap env;
  env["app_domain"] = kAppDomain;
  env[keynote::kHandleAttribute] = HandleString(inode);
  env["operation"] = NfsProcName(proc);
  env["perm_needed"] = keynote::PermissionLattice::Get().Name(needed_mask);

  CivilTime t = CivilFromUnix(clock.NowUnix());
  env["time_of_day"] = StrPrintf("%02d%02d", t.hour, t.minute);
  env["date"] = StrPrintf("%04d%02d%02d", t.year, t.month, t.day);
  env["timestamp"] = KeyNoteTimestamp(t);
  env["weekday"] = StrPrintf("%d", t.weekday);
  return env;
}

}  // namespace discfs
