// Non-cryptographic hashing used by flow tables and lane dispatch.
// Deterministic across runs so trace experiments reproduce.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/bytes.hpp"

namespace sdt {

/// FNV-1a over a byte view, 64-bit.
inline std::uint64_t fnv1a64(ByteView data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// SplitMix64 finalizer: turns a structured integer (e.g. packed flow tuple)
/// into a well-mixed hash.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

inline std::uint64_t hash_combine(std::uint64_t seed, std::uint64_t v) {
  return mix64(seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2)));
}

}  // namespace sdt
