// Deterministic PRNG (xoshiro256**) for workload generation, property tests
// and simulation. NOT for key material — see src/crypto/sysrand.h for that.
#ifndef DISCFS_SRC_UTIL_PRNG_H_
#define DISCFS_SRC_UTIL_PRNG_H_

#include <cstdint>
#include <functional>

#include "src/util/bytes.h"

namespace discfs {

class Prng {
 public:
  explicit Prng(uint64_t seed);

  uint64_t Next();

  // Uniform in [0, bound); bound must be > 0.
  uint64_t NextBelow(uint64_t bound);

  // Uniform double in [0, 1).
  double NextDouble();

  bool NextBool(double p_true = 0.5);

  Bytes NextBytes(size_t n);

 private:
  uint64_t s_[4];
};

// A rand_bytes-style closure over a seeded Prng guarded by a mutex, for
// configs whose consumers call it from several threads — a host's server
// handshakes and its coherence peer links overlap on the pool. Tests and
// benches use this where determinism matters more than key quality.
std::function<Bytes(size_t)> LockedPrngBytes(uint64_t seed);

}  // namespace discfs

#endif  // DISCFS_SRC_UTIL_PRNG_H_
