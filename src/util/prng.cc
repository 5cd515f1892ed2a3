#include "src/util/prng.h"

#include <memory>
#include <mutex>

namespace discfs {
namespace {

inline uint64_t Rotl(uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

// splitmix64: expands a single seed into the xoshiro state.
uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Prng::Prng(uint64_t seed) {
  uint64_t x = seed;
  for (auto& s : s_) {
    s = SplitMix64(x);
  }
  // Avoid the all-zero state, which is a fixed point of xoshiro.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) {
    s_[0] = 1;
  }
}

uint64_t Prng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Prng::NextBelow(uint64_t bound) {
  // Rejection sampling to avoid modulo bias.
  uint64_t threshold = (0 - bound) % bound;
  while (true) {
    uint64_t r = Next();
    if (r >= threshold) {
      return r % bound;
    }
  }
}

double Prng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Prng::NextBool(double p_true) { return NextDouble() < p_true; }

Bytes Prng::NextBytes(size_t n) {
  Bytes out(n);
  size_t i = 0;
  while (i + 8 <= n) {
    uint64_t r = Next();
    for (int j = 0; j < 8; ++j) {
      out[i++] = static_cast<uint8_t>(r >> (8 * j));
    }
  }
  if (i < n) {
    uint64_t r = Next();
    while (i < n) {
      out[i++] = static_cast<uint8_t>(r);
      r >>= 8;
    }
  }
  return out;
}

std::function<Bytes(size_t)> LockedPrngBytes(uint64_t seed) {
  auto prng = std::make_shared<Prng>(seed);
  auto mu = std::make_shared<std::mutex>();
  return [prng, mu](size_t n) {
    std::lock_guard<std::mutex> lock(*mu);
    return prng->NextBytes(n);
  };
}

}  // namespace discfs
