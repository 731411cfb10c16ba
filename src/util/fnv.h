#ifndef MOVD_UTIL_FNV_H_
#define MOVD_UTIL_FNV_H_

#include <cstdint>
#include <string_view>

namespace movd {

/// 64-bit FNV-1a. Each step is a bijection of the hash state, so two byte
/// strings of one length that differ in a single byte hash differently.
inline constexpr uint64_t kFnv1aBasis = 1469598103934665603ull;

inline constexpr uint64_t Fnv1aStep(uint64_t h, uint8_t byte) {
  return (h ^ byte) * 1099511628211ull;
}

inline constexpr uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = kFnv1aBasis;
  for (const char c : bytes) h = Fnv1aStep(h, static_cast<uint8_t>(c));
  return h;
}

}  // namespace movd

#endif  // MOVD_UTIL_FNV_H_
