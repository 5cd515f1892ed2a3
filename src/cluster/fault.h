// Fault-injection seam for the coherence fabric (PR 6). A FaultSchedule
// is shared by every node of an in-process mesh (threaded through
// DiscfsHostOptions into each fabric); peer senders consult it on every
// turn of their loop, so the harness can blackhole links or partition the
// mesh without touching sockets. Links are keyed by unordered address
// pair — blocking (a, b) severs both directions, because each endpoint's
// sender checks the same rule.
//
// Kill/restart faults are not simulated here: the harness destroys and
// re-creates the DiscfsHost against its persistent storage directory,
// which exercises the real shutdown and recovery paths.
#ifndef DISCFS_SRC_CLUSTER_FAULT_H_
#define DISCFS_SRC_CLUSTER_FAULT_H_

#include <mutex>
#include <set>
#include <string>
#include <utility>

namespace discfs::cluster {

class FaultSchedule {
 public:
  // Severs the link between two advertised addresses (both directions):
  // established connections drop and reconnect attempts fail until
  // HealLink. Idempotent.
  void BlockLink(const std::string& a, const std::string& b);
  void HealLink(const std::string& a, const std::string& b);
  // Heals every blocked link.
  void HealAll();

  bool Blocked(const std::string& from, const std::string& to) const;

 private:
  static std::pair<std::string, std::string> Key(const std::string& a,
                                                 const std::string& b) {
    return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  }

  mutable std::mutex mu_;
  std::set<std::pair<std::string, std::string>> blocked_;
};

}  // namespace discfs::cluster

#endif  // DISCFS_SRC_CLUSTER_FAULT_H_
