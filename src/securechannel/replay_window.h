// Anti-replay sliding window, modeled on the IPsec ESP sequence-number
// window (RFC 2401 appendix / RFC 4303 §3.4.3). The transports in this
// repository are ordered and reliable, so in practice sequence numbers only
// ever advance — but the record layer keeps ESP semantics so the security
// argument matches the paper's IPsec substrate.
#ifndef DISCFS_SRC_SECURECHANNEL_REPLAY_WINDOW_H_
#define DISCFS_SRC_SECURECHANNEL_REPLAY_WINDOW_H_

#include <cstdint>

namespace discfs {

class ReplayWindow {
 public:
  // One bit per sequence number in a 64-bit bitmap.
  static constexpr uint64_t kSize = 64;

  // Returns true (and records the number) if `seq` is new; false if it is a
  // replay or too far in the past. Sequence numbers start at 1; 0 is never
  // valid.
  bool CheckAndUpdate(uint64_t seq);

 private:
  uint64_t highest_ = 0;
  uint64_t bitmap_ = 0;  // bit i = (highest_ - i) seen, i in [0, kSize)
};

}  // namespace discfs

#endif  // DISCFS_SRC_SECURECHANNEL_REPLAY_WINDOW_H_
