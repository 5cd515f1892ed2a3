// Byte-buffer helpers shared by crypto, wire, and transport code.
#ifndef DISCFS_SRC_UTIL_BYTES_H_
#define DISCFS_SRC_UTIL_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace discfs {

using Bytes = std::vector<uint8_t>;

inline Bytes ToBytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

inline std::string ToString(const Bytes& b) {
  return std::string(b.begin(), b.end());
}

inline void Append(Bytes& out, const Bytes& in) {
  out.insert(out.end(), in.begin(), in.end());
}

inline void Append(Bytes& out, std::string_view in) {
  out.insert(out.end(), in.begin(), in.end());
}

inline void Append(Bytes& out, const uint8_t* data, size_t len) {
  out.insert(out.end(), data, data + len);
}

// Timing-independent equality; required when comparing MACs/signatures.
inline bool ConstantTimeEqual(const uint8_t* a, const uint8_t* b, size_t len) {
  uint8_t acc = 0;
  for (size_t i = 0; i < len; ++i) {
    acc |= static_cast<uint8_t>(a[i] ^ b[i]);
  }
  return acc == 0;
}

inline bool ConstantTimeEqual(const Bytes& a, const Bytes& b) {
  return a.size() == b.size() &&
         ConstantTimeEqual(a.data(), b.data(), a.size());
}

}  // namespace discfs

#endif  // DISCFS_SRC_UTIL_BYTES_H_
