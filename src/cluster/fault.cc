#include "src/cluster/fault.h"

namespace discfs::cluster {

void FaultSchedule::BlockLink(const std::string& a, const std::string& b) {
  std::lock_guard<std::mutex> lock(mu_);
  blocked_.insert(Key(a, b));
}

void FaultSchedule::HealLink(const std::string& a, const std::string& b) {
  std::lock_guard<std::mutex> lock(mu_);
  blocked_.erase(Key(a, b));
}

void FaultSchedule::HealAll() {
  std::lock_guard<std::mutex> lock(mu_);
  blocked_.clear();
}

bool FaultSchedule::Blocked(const std::string& from,
                            const std::string& to) const {
  std::lock_guard<std::mutex> lock(mu_);
  return blocked_.count(Key(from, to)) != 0;
}

}  // namespace discfs::cluster
