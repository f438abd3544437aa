#include "match/prefilter.hpp"

#include <algorithm>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define SDT_PREFILTER_X86 1
#elif defined(__aarch64__)
#include <arm_neon.h>
#define SDT_PREFILTER_NEON 1
#endif

namespace sdt::match {

namespace {

// Shufti class test: pass(b) = lo_tbl[b & 15] & (1 << ((b >> 4) & 7)).
// Over-approximates membership (a byte aliases its hi-nibble^8 twin); the
// exact pair bitmap removes the aliases before a position becomes a
// candidate, so the over-approximation only costs probes, never verdicts.

#if defined(SDT_PREFILTER_X86)

__attribute__((target("ssse3"))) std::uint32_t candidates16_ssse3(
    const std::uint8_t* p, const std::uint8_t* shufti) {
  const __m128i lo_first =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(shufti));
  const __m128i lo_second =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(shufti + 16));
  const __m128i bitsel = _mm_setr_epi8(1, 2, 4, 8, 16, 32, 64, -128, 1, 2, 4,
                                       8, 16, 32, 64, -128);
  const __m128i low4 = _mm_set1_epi8(0x0f);
  const __m128i v1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  const __m128i v2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 1));
  const __m128i c1 = _mm_and_si128(
      _mm_shuffle_epi8(lo_first, _mm_and_si128(v1, low4)),
      _mm_shuffle_epi8(bitsel,
                       _mm_and_si128(_mm_srli_epi16(v1, 4), low4)));
  const __m128i c2 = _mm_and_si128(
      _mm_shuffle_epi8(lo_second, _mm_and_si128(v2, low4)),
      _mm_shuffle_epi8(bitsel,
                       _mm_and_si128(_mm_srli_epi16(v2, 4), low4)));
  // A position passes when BOTH classes matched. The class masks carry
  // bucket bits that differ per byte, so compare each against zero first —
  // c1 & c2 would wrongly demand the same bucket bit.
  const __m128i zero = _mm_setzero_si128();
  const int zeros = _mm_movemask_epi8(
      _mm_or_si128(_mm_cmpeq_epi8(c1, zero), _mm_cmpeq_epi8(c2, zero)));
  return static_cast<std::uint32_t>(~zeros) & 0xffffu;
}

__attribute__((target("avx2"))) std::uint32_t candidates32_avx2(
    const std::uint8_t* p, const std::uint8_t* shufti) {
  const __m256i lo_first = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(shufti)));
  const __m256i lo_second = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(shufti + 16)));
  const __m256i bitsel = _mm256_broadcastsi128_si256(_mm_setr_epi8(
      1, 2, 4, 8, 16, 32, 64, -128, 1, 2, 4, 8, 16, 32, 64, -128));
  const __m256i low4 = _mm256_set1_epi8(0x0f);
  const __m256i v1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  const __m256i v2 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 1));
  const __m256i c1 = _mm256_and_si256(
      _mm256_shuffle_epi8(lo_first, _mm256_and_si256(v1, low4)),
      _mm256_shuffle_epi8(bitsel,
                          _mm256_and_si256(_mm256_srli_epi16(v1, 4), low4)));
  const __m256i c2 = _mm256_and_si256(
      _mm256_shuffle_epi8(lo_second, _mm256_and_si256(v2, low4)),
      _mm256_shuffle_epi8(bitsel,
                          _mm256_and_si256(_mm256_srli_epi16(v2, 4), low4)));
  // See the ssse3 kernel: compare each class mask against zero before
  // combining — their bucket bits need not coincide.
  const __m256i zero = _mm256_setzero_si256();
  const int zeros = _mm256_movemask_epi8(_mm256_or_si256(
      _mm256_cmpeq_epi8(c1, zero), _mm256_cmpeq_epi8(c2, zero)));
  return ~static_cast<std::uint32_t>(zeros);
}

#elif defined(SDT_PREFILTER_NEON)

// Returns a 64-bit mask with nibble t = 0xf iff position t is a candidate
// (the vshrn movemask idiom: 4 bits per byte lane).
std::uint64_t candidates16_neon(const std::uint8_t* p,
                                const std::uint8_t* shufti) {
  const uint8x16_t lo_first = vld1q_u8(shufti);
  const uint8x16_t lo_second = vld1q_u8(shufti + 16);
  const std::uint8_t bitsel_bytes[16] = {1, 2, 4, 8, 16, 32, 64, 128,
                                         1, 2, 4, 8, 16, 32, 64, 128};
  const uint8x16_t bitsel = vld1q_u8(bitsel_bytes);
  const uint8x16_t low4 = vdupq_n_u8(0x0f);
  const uint8x16_t v1 = vld1q_u8(p);
  const uint8x16_t v2 = vld1q_u8(p + 1);
  const uint8x16_t c1 =
      vandq_u8(vqtbl1q_u8(lo_first, vandq_u8(v1, low4)),
               vqtbl1q_u8(bitsel, vshrq_n_u8(v1, 4)));
  const uint8x16_t c2 =
      vandq_u8(vqtbl1q_u8(lo_second, vandq_u8(v2, low4)),
               vqtbl1q_u8(bitsel, vshrq_n_u8(v2, 4)));
  // vtst gives 0xff where the class mask is nonzero; AND of the two
  // full-byte masks is the "both classes matched" test (the raw class
  // masks must not be ANDed — their bucket bits need not coincide).
  const uint8x16_t nz = vandq_u8(vtstq_u8(c1, c1), vtstq_u8(c2, c2));
  const uint8x8_t narrowed = vshrn_n_u16(vreinterpretq_u16_u8(nz), 4);
  return vget_lane_u64(vreinterpret_u64_u8(narrowed), 0);
}

#endif

}  // namespace

Prefilter::Prefilter(std::span<const Bytes> patterns) {
  if (patterns.empty()) return;
  pair_.assign(1024, 0);
  bool all_long_enough = true;
  for (const ByteView p : patterns) {
    max_len_ = std::max(max_len_, p.size());
    if (p.size() < 2) {
      all_long_enough = false;
      continue;
    }
    const std::uint8_t a = p[0];
    const std::uint8_t b = p[1];
    first_[a >> 6] |= std::uint64_t{1} << (a & 63);
    second_[b >> 6] |= std::uint64_t{1} << (b & 63);
    const std::uint32_t pr = (std::uint32_t{a} << 8) | b;
    pair_[pr >> 6] |= std::uint64_t{1} << (pr & 63);
    shufti_[a & 15] |= static_cast<std::uint8_t>(1u << ((a >> 4) & 7));
    shufti_[16 + (b & 15)] |= static_cast<std::uint8_t>(1u << ((b >> 4) & 7));
  }
  usable_ = all_long_enough;
  if (!usable_) {
    pair_.clear();
    return;
  }
#if defined(SDT_PREFILTER_X86)
  if (__builtin_cpu_supports("avx2")) {
    kernel_ = Kernel::avx2;
  } else if (__builtin_cpu_supports("ssse3")) {
    kernel_ = Kernel::ssse3;
  }
#elif defined(SDT_PREFILTER_NEON)
  kernel_ = Kernel::neon;
#endif
}

const char* Prefilter::kernel_name() const {
  switch (kernel_) {
    case Kernel::avx2:
      return "avx2";
    case Kernel::ssse3:
      return "ssse3";
    case Kernel::neon:
      return "neon";
    case Kernel::scalar:
      break;
  }
  return "scalar";
}

std::size_t Prefilter::windows(ByteView data,
                               std::vector<PrefilterWindow>& out) const {
  const std::size_t n = data.size();
  if (n < 2) return 0;
  const std::uint8_t* d = data.data();
  std::size_t candidates = 0;
  const auto add = [&](std::size_t i) {
    if (!pair_bit(d[i], d[i + 1])) return;
    ++candidates;
    const auto b = static_cast<std::uint32_t>(i);
    const auto e = static_cast<std::uint32_t>(std::min(i + max_len_, n));
    if (!out.empty() && b <= out.back().end) {
      out.back().end = std::max(out.back().end, e);
    } else {
      out.push_back(PrefilterWindow{b, e});
    }
  };
  std::size_t i = 0;
#if defined(SDT_PREFILTER_X86)
  if (kernel_ == Kernel::avx2) {
    for (; i + 33 <= n; i += 32) {
      std::uint32_t m = candidates32_avx2(d + i, shufti_);
      while (m != 0) {
        const unsigned t = static_cast<unsigned>(__builtin_ctz(m));
        m &= m - 1;
        add(i + t);
      }
    }
  }
  if (kernel_ != Kernel::scalar) {  // ssse3 body; also drains the avx2 tail
    for (; i + 17 <= n; i += 16) {
      std::uint32_t m = candidates16_ssse3(d + i, shufti_);
      while (m != 0) {
        const unsigned t = static_cast<unsigned>(__builtin_ctz(m));
        m &= m - 1;
        add(i + t);
      }
    }
  }
#elif defined(SDT_PREFILTER_NEON)
  if (kernel_ == Kernel::neon) {
    for (; i + 17 <= n; i += 16) {
      std::uint64_t m = candidates16_neon(d + i, shufti_);
      while (m != 0) {
        const unsigned t =
            static_cast<unsigned>(__builtin_ctzll(m)) >> 2;
        m &= ~(std::uint64_t{0xf} << (t * 4));
        add(i + t);
      }
    }
  }
#endif
  for (; i + 1 < n; ++i) {
    if (first_bit(d[i]) && second_bit(d[i + 1])) add(i);
  }
  return candidates;
}

bool Prefilter::may_contain(ByteView data) const {
  const std::size_t n = data.size();
  if (n < 2) return false;
  const std::uint8_t* d = data.data();
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (first_bit(d[i]) && second_bit(d[i + 1]) && pair_bit(d[i], d[i + 1])) {
      return true;
    }
  }
  return false;
}

std::size_t Prefilter::memory_bytes() const {
  return sizeof(*this) + pair_.capacity() * sizeof(std::uint64_t);
}

}  // namespace sdt::match
