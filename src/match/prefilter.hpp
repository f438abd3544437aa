// Two-byte-prefix SIMD prefilter: the cheap over-approximate stage that
// gates the exact FlatDfa scan (the approximate-NFA staging argument —
// an over-approximation can only add work, never hide a detection).
//
// Compiled per pattern set: a byte position i is a *candidate* iff
// (data[i], data[i+1]) is the 2-byte prefix of some pattern, decided by an
// exact 65536-bit pair bitmap. SIMD kernels (AVX2/SSSE3 shufti on x86,
// NEON tbl on aarch64, scalar everywhere else) pre-screen 16–32 positions
// per iteration with nibble-table class tests before the pair-bitmap
// probe, so benign bytes cost a fraction of a DFA transition.
//
// Candidates are widened to [i, i + max_pattern_len) windows and merged;
// the caller runs the exact automaton only inside windows. Never-miss
// argument: every occurrence of a pattern (all patterns >= 2 bytes, else
// usable() is false and the caller scans everything) starts at a position
// whose first two bytes are that pattern's prefix — a candidate — and the
// window starting there covers the occurrence entirely. The candidate set
// is decided solely by the exact pair bitmap, so verdicts are identical
// across SIMD kernels.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/bytes.hpp"

namespace sdt::match {

/// Candidate byte range [begin, end) of a scanned buffer.
struct PrefilterWindow {
  std::uint32_t begin;
  std::uint32_t end;
};

class Prefilter {
 public:
  Prefilter() = default;

  /// Compile from the pattern list the exact automaton is built over.
  explicit Prefilter(std::span<const Bytes> patterns);

  /// False when the set cannot be prefiltered (no patterns, or a pattern
  /// shorter than 2 bytes): the caller must scan everything itself.
  bool usable() const { return usable_; }
  std::size_t max_pattern_len() const { return max_len_; }
  std::size_t memory_bytes() const;

  /// Which SIMD kernel the runtime dispatch selected ("avx2", "ssse3",
  /// "neon", or "scalar").
  const char* kernel_name() const;

  /// Append merged candidate windows for `data` (requires usable()).
  /// Guarantee: every pattern occurrence in `data` lies entirely inside
  /// one appended window. Returns the number of candidate positions.
  std::size_t windows(ByteView data, std::vector<PrefilterWindow>& out) const;

  /// Whole-buffer verdict without materializing windows: false means no
  /// pattern can occur (requires usable()). Scalar; for tests/benches.
  bool may_contain(ByteView data) const;

 private:
  enum class Kernel : std::uint8_t { scalar, ssse3, avx2, neon };

  bool first_bit(std::uint8_t b) const {
    return (first_[b >> 6] >> (b & 63)) & 1u;
  }
  bool second_bit(std::uint8_t b) const {
    return (second_[b >> 6] >> (b & 63)) & 1u;
  }
  bool pair_bit(std::uint8_t a, std::uint8_t b) const {
    const std::uint32_t p = (std::uint32_t{a} << 8) | b;
    return (pair_[p >> 6] >> (p & 63)) & 1u;
  }

  bool usable_ = false;
  std::size_t max_len_ = 0;
  Kernel kernel_ = Kernel::scalar;
  std::uint64_t first_[4] = {0, 0, 0, 0};   // exact first-byte membership
  std::uint64_t second_[4] = {0, 0, 0, 0};  // exact second-byte membership
  std::vector<std::uint64_t> pair_;         // exact 2-byte-prefix bitmap (8 KiB)
  // Shufti nibble tables for the SIMD pre-screen: lo_first[16], lo_second[16].
  std::uint8_t shufti_[32] = {};
};

}  // namespace sdt::match
