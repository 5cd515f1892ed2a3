#include "src/securechannel/replay_window.h"

namespace discfs {

bool ReplayWindow::CheckAndUpdate(uint64_t seq) {
  if (seq == 0) {
    return false;
  }
  if (seq > highest_) {
    uint64_t shift = seq - highest_;
    bitmap_ = (shift >= kSize) ? 0 : (bitmap_ << shift);
    bitmap_ |= 1;  // bit 0 = seq itself
    highest_ = seq;
    return true;
  }
  uint64_t offset = highest_ - seq;
  if (offset >= kSize) {
    return false;  // too old
  }
  uint64_t bit = 1ULL << offset;
  if (bitmap_ & bit) {
    return false;  // replay
  }
  bitmap_ |= bit;
  return true;
}

}  // namespace discfs
