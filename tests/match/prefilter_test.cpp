// The prefilter's one obligation is NEVER-MISS: for any payload, every
// true pattern occurrence must start inside some emitted window, so a
// staged scan (prefilter windows → exact scan of each window) returns the
// same verdict as scanning everything. False positives are a cost, never
// a correctness issue — these tests assert the safety direction only,
// plus exactness of the candidate definition (the pair bitmap).
#include "match/prefilter.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "evasion/corpus.hpp"
#include "match/flat_dfa.hpp"
#include "util/rng.hpp"

namespace sdt::match {
namespace {

std::vector<Bytes> corpus_patterns() {
  std::vector<Bytes> patterns;
  for (const core::Signature& s : evasion::default_corpus()) {
    patterns.push_back(s.bytes);
  }
  return patterns;
}

/// Staged verdict: scan only the prefilter's windows with the exact
/// matcher. This is exactly what FastPath does when the prefilter is on.
bool staged_contains(const Prefilter& pre, const FlatDfa& f, ByteView data,
                     std::vector<PrefilterWindow>& wins) {
  wins.clear();
  pre.windows(data, wins);
  for (const PrefilterWindow& w : wins) {
    if (f.contains_any(data.subspan(w.begin, w.end - w.begin))) return true;
  }
  return false;
}

TEST(Prefilter, UnusableOnShortPatterns) {
  // A 1-byte pattern has no 2-byte prefix to key on.
  const std::vector<Bytes> patterns = {to_bytes("x"), to_bytes("longer")};
  const Prefilter pre(patterns);
  EXPECT_FALSE(pre.usable());
}

TEST(Prefilter, UnusableOnEmptyPatternList) {
  const Prefilter pre(std::vector<Bytes>{});
  EXPECT_FALSE(pre.usable());
  EXPECT_EQ(pre.max_pattern_len(), 0u);
}

TEST(Prefilter, UsableOnCorpusAndNamesAKernel) {
  const Prefilter pre(corpus_patterns());
  EXPECT_TRUE(pre.usable());
  EXPECT_NE(pre.kernel_name(), nullptr);
  EXPECT_GE(pre.max_pattern_len(), 2u);
}

TEST(Prefilter, WindowsCoverEveryTrueOccurrence) {
  const std::vector<Bytes> patterns = corpus_patterns();
  const FlatDfa f(patterns);
  const Prefilter pre(patterns);
  ASSERT_TRUE(pre.usable());
  const core::SignatureSet corpus = evasion::default_corpus();

  Rng rng(7);
  std::vector<PrefilterWindow> wins;
  for (int trial = 0; trial < 200; ++trial) {
    Bytes hay = rng.random_bytes(static_cast<std::size_t>(rng.below(500)));
    // Plant 0–3 full signatures at random spots (including offset 0 and
    // the very end, the SIMD block-boundary cases).
    const auto plants = static_cast<std::size_t>(rng.below(4));
    std::vector<std::size_t> starts;
    for (std::size_t p = 0; p < plants; ++p) {
      const core::Signature& sig =
          corpus[static_cast<std::uint32_t>(rng.below(corpus.size()))];
      const auto at = static_cast<std::size_t>(rng.below(hay.size() + 1));
      hay.insert(hay.begin() + static_cast<std::ptrdiff_t>(at),
                 sig.bytes.begin(), sig.bytes.end());
    }
    // Recompute true occurrences on the final buffer (planting shifts
    // earlier plants; scanning is the only reliable ground truth).
    std::vector<FlatDfa::Match> ms = f.find_all(hay);

    wins.clear();
    pre.windows(ByteView(hay), wins);
    for (const FlatDfa::Match& m : ms) {
      const std::size_t start = m.end_offset - patterns[m.pattern_id].size();
      const bool covered =
          std::any_of(wins.begin(), wins.end(), [&](const PrefilterWindow& w) {
            return w.begin <= start && start < w.end &&
                   m.end_offset <= w.end;
          });
      EXPECT_TRUE(covered) << "trial " << trial << " occurrence at " << start
                           << " len " << patterns[m.pattern_id].size();
    }
  }
}

TEST(Prefilter, StagedVerdictEqualsFullScan) {
  const std::vector<Bytes> patterns = corpus_patterns();
  const Prefilter pre(patterns);
  const FlatDfa f(patterns);
  ASSERT_TRUE(pre.usable());
  const core::SignatureSet corpus = evasion::default_corpus();

  Rng rng(13);
  std::vector<PrefilterWindow> wins;
  for (int trial = 0; trial < 300; ++trial) {
    Bytes hay = rng.random_bytes(static_cast<std::size_t>(rng.below(400)));
    if (rng.below(2) == 0 && !hay.empty()) {
      // Half the trials plant a signature prefix (possibly the whole
      // signature) so both verdicts occur frequently.
      const core::Signature& sig =
          corpus[static_cast<std::uint32_t>(rng.below(corpus.size()))];
      const auto cut =
          static_cast<std::size_t>(1 + rng.below(sig.bytes.size()));
      const auto at = static_cast<std::size_t>(rng.below(hay.size()));
      hay.insert(hay.begin() + static_cast<std::ptrdiff_t>(at),
                 sig.bytes.begin(),
                 sig.bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    }
    const bool full = f.contains_any(hay);
    const bool staged = staged_contains(pre, f, ByteView(hay), wins);
    EXPECT_EQ(staged, full) << "trial " << trial;
    // may_contain (the scalar whole-buffer variant) is also never-miss.
    if (full) {
      EXPECT_TRUE(pre.may_contain(hay));
    }
  }
}

TEST(Prefilter, CandidatesAreExactPairPrefixes) {
  // windows() returns the candidate count; every candidate corresponds to
  // a position whose 2-byte pair is a real pattern prefix — the SIMD
  // kernels may over-approximate classes but the pair bitmap is exact, so
  // the count must equal the brute-force count regardless of kernel.
  const std::vector<Bytes> patterns = {to_bytes("abXY"), from_hex("54cf1122"),
                                       to_bytes("zzz")};
  const Prefilter pre(patterns);
  ASSERT_TRUE(pre.usable());

  Rng rng(29);
  std::vector<PrefilterWindow> wins;
  std::vector<Bytes> prefixes = {to_bytes("ab"), from_hex("54cf"),
                                 to_bytes("zz")};
  for (int trial = 0; trial < 100; ++trial) {
    Bytes hay = rng.random_bytes(16 + static_cast<std::size_t>(rng.below(200)));
    for (int p = 0; p < 3; ++p) {
      const Bytes& pref = prefixes[static_cast<std::size_t>(rng.below(3))];
      const auto at = static_cast<std::size_t>(rng.below(hay.size() - 1));
      std::copy(pref.begin(), pref.end(),
                hay.begin() + static_cast<std::ptrdiff_t>(at));
    }
    std::size_t expected = 0;
    for (std::size_t i = 0; i + 1 < hay.size(); ++i) {
      for (const Bytes& pref : prefixes) {
        if (hay[i] == pref[0] && hay[i + 1] == pref[1]) {
          ++expected;
          break;
        }
      }
    }
    wins.clear();
    EXPECT_EQ(pre.windows(ByteView(hay), wins), expected) << "trial " << trial;
  }
}

TEST(Prefilter, WindowsAreMergedAndOrdered) {
  const std::vector<Bytes> patterns = {to_bytes("abcdef")};
  const Prefilter pre(patterns);
  const Bytes hay = to_bytes("ababab----------ab--");
  std::vector<PrefilterWindow> wins;
  pre.windows(ByteView(hay), wins);
  ASSERT_FALSE(wins.empty());
  for (std::size_t i = 0; i < wins.size(); ++i) {
    EXPECT_LT(wins[i].begin, wins[i].end);
    EXPECT_LE(wins[i].end, hay.size());
    if (i > 0) {
      EXPECT_GT(wins[i].begin, wins[i - 1].end);  // disjoint, sorted
    }
  }
  // Candidates at 0, 2 and 4 overlap (max_len 6) and must merge into one
  // window [0, 10); the lone candidate at 16 clamps to the buffer end.
  ASSERT_EQ(wins.size(), 2u);
  EXPECT_EQ(wins[0].begin, 0u);
  EXPECT_EQ(wins[0].end, 10u);
  EXPECT_EQ(wins[1].begin, 16u);
  EXPECT_EQ(wins[1].end, hay.size());
}

}  // namespace
}  // namespace sdt::match
