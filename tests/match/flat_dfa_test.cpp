// FlatDfa is the only automaton: every scan in the engine — per-packet
// pieces, the slow path's streamed full signatures, the batch walker —
// runs on it. The unit tests pin the Aho-Corasick semantics (overlaps,
// suffix outputs, duplicate ids, streaming cursor); the seeded property
// tests compare scan / streamed scan / contains_any / first_match /
// contains_any_batch against the naive O(n*m) oracle.
#include "match/flat_dfa.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "evasion/corpus.hpp"
#include "match/single_match.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace sdt::match {
namespace {

using Hits = std::vector<std::pair<std::uint32_t, std::size_t>>;

FlatDfa make(std::initializer_list<const char*> patterns) {
  std::vector<Bytes> ps;
  for (const char* p : patterns) ps.push_back(to_bytes(p));
  return FlatDfa(ps);
}

/// (pattern_id, end_offset) pairs, sorted, for easy comparison.
Hits hits(const FlatDfa& f, ByteView data) {
  Hits out;
  for (const auto& m : f.find_all(data)) out.emplace_back(m.pattern_id, m.end_offset);
  std::sort(out.begin(), out.end());
  return out;
}

/// Every occurrence of every pattern, by brute force.
Hits naive_hits(const std::vector<Bytes>& patterns, ByteView data) {
  Hits out;
  for (std::uint32_t id = 0; id < patterns.size(); ++id) {
    for (std::size_t pos : naive_find_all(data, patterns[id])) {
      out.emplace_back(id, pos + patterns[id].size());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// first_match's contract: the smallest id among the occurrences that end
/// earliest, or -1.
std::int64_t naive_first(const Hits& h) {
  if (h.empty()) return -1;
  const auto it = std::min_element(h.begin(), h.end(), [](auto a, auto b) {
    return std::tie(a.second, a.first) < std::tie(b.second, b.first);
  });
  return it->first;
}

TEST(FlatDfa, EmptyByDefault) {
  const FlatDfa f;
  EXPECT_TRUE(f.empty());
  EXPECT_FALSE(f.contains_any(to_bytes("anything")));
  EXPECT_EQ(f.first_match(to_bytes("anything")), -1);
}

TEST(FlatDfa, RejectsEmptyPattern) {
  const std::vector<Bytes> patterns = {to_bytes("ok"), Bytes{}};
  EXPECT_THROW(FlatDfa{patterns}, InvalidArgument);
}

TEST(FlatDfa, RejectsOversizedTrieBeforeBuilding) {
  // One pattern one byte past the packed-state cap: the size check runs on
  // the pattern list, before any table is allocated.
  const std::vector<Bytes> patterns = {Bytes(FlatDfa::kMaxStates, 0x41)};
  EXPECT_THROW(FlatDfa{patterns}, InvalidArgument);
}

TEST(FlatDfa, SinglePatternBasic) {
  const FlatDfa f = make({"abc"});
  const Hits expect{{0, 5}, {0, 9}};
  EXPECT_EQ(hits(f, to_bytes("xxabcxabc")), expect);
}

TEST(FlatDfa, ClassicMultiPattern) {
  // The canonical he/she/his/hers example: "she" and "he" end at 4,
  // "hers" ends at 6.
  const FlatDfa f = make({"he", "she", "his", "hers"});
  const Hits expect{{0, 4}, {1, 4}, {3, 6}};
  EXPECT_EQ(hits(f, to_bytes("ushers")), expect);
}

TEST(FlatDfa, PatternInsidePatternBothReported) {
  const FlatDfa f = make({"abcd", "bc"});
  const Hits expect{{0, 4}, {1, 3}};
  EXPECT_EQ(hits(f, to_bytes("abcd")), expect);
}

TEST(FlatDfa, DuplicatePatternsGetDistinctIds) {
  const FlatDfa f = make({"dup", "dup"});
  const Hits expect{{0, 4}, {1, 4}};
  EXPECT_EQ(hits(f, to_bytes("xdupx")), expect);
}

TEST(FlatDfa, OverlappingOccurrences) {
  EXPECT_EQ(hits(make({"aa"}), to_bytes("aaaa")).size(), 3u);
}

TEST(FlatDfa, BinaryPatterns) {
  const std::vector<Bytes> patterns = {from_hex("00ff00"), from_hex("909090")};
  const FlatDfa f(patterns);
  EXPECT_EQ(f.find_all(from_hex("aa00ff00bb909090")).size(), 2u);
}

TEST(FlatDfa, ContainsAnyEarlyExit) {
  const FlatDfa f = make({"needle"});
  EXPECT_TRUE(f.contains_any(to_bytes("hay needle hay")));
  EXPECT_FALSE(f.contains_any(to_bytes("hay hay hay")));
  EXPECT_FALSE(f.contains_any(ByteView{}));
}

TEST(FlatDfa, FirstMatchReturnsId) {
  const FlatDfa f = make({"bbb", "aa"});
  EXPECT_EQ(f.first_match(to_bytes("xxaaxbbb")), 1);
  EXPECT_EQ(f.first_match(to_bytes("zzz")), -1);
}

TEST(FlatDfa, StateAndPatternCounts) {
  const FlatDfa f = make({"ab", "abc"});
  EXPECT_EQ(f.pattern_count(), 2u);
  EXPECT_EQ(f.state_count(), 4u);  // root + a + ab + abc
}

TEST(FlatDfa, SharedPrefixesShareTrieStates) {
  // root + a + ab + abc + abcd + abce: "ab" is a trie node, not a new path.
  const FlatDfa f = make({"abcd", "abce", "ab"});
  EXPECT_EQ(f.pattern_count(), 3u);
  EXPECT_EQ(f.state_count(), 6u);
  const Hits expect{{0, 4}, {1, 8}, {2, 2}, {2, 6}};
  EXPECT_EQ(hits(f, to_bytes("abcdabce")), expect);
}

TEST(FlatDfa, ExtremeByteColumns) {
  // 0x00 and 0xff sit at the two ends of every 256-entry row.
  const std::vector<Bytes> patterns = {from_hex("ffff"), from_hex("00ff")};
  const FlatDfa f(patterns);
  const Hits expect{{0, 2}, {0, 3}, {1, 5}};
  EXPECT_EQ(hits(f, from_hex("ffffff00ff")), expect);
}

TEST(FlatDfa, FirstMatchPrefersEarliestEndThenSmallestId) {
  // Both end at 3: the smaller id wins whichever pattern it names.
  EXPECT_EQ(make({"abc", "bc"}).first_match(to_bytes("abc")), 0);
  EXPECT_EQ(make({"bc", "abc"}).first_match(to_bytes("abc")), 0);
  // "b" ends at 2, before "xbc" ends at 3.
  EXPECT_EQ(make({"xbc", "b"}).first_match(to_bytes("xbc")), 1);
}

TEST(FlatDfa, RootRestartMissesWhatACarriedCursorCatches) {
  // The per-packet fast path restarts at kRoot, so a signature split
  // across two packets is invisible to it; the stream cursor carries the
  // partial match across the boundary.
  const FlatDfa f = make({"MARKER"});
  const Bytes a = to_bytes("xxMAR");
  const Bytes b = to_bytes("KERxx");
  EXPECT_FALSE(f.contains_any(a));
  EXPECT_FALSE(f.contains_any(b));

  Hits carried;
  const FlatDfa::Entry e = f.scan(a, FlatDfa::kRoot, [&](FlatDfa::Match m) {
    carried.emplace_back(m.pattern_id, m.end_offset);
  });
  EXPECT_TRUE(carried.empty());
  EXPECT_NE(e, FlatDfa::kRoot);
  f.scan(b, e, [&](FlatDfa::Match m) {
    carried.emplace_back(m.pattern_id, m.end_offset);
  });
  EXPECT_EQ(carried, (Hits{{0, 3}}));
}

TEST(FlatDfa, AdvanceStepsExactlyLikeScan) {
  std::vector<Bytes> patterns;
  for (const core::Signature& s : evasion::default_corpus()) {
    patterns.push_back(s.bytes);
  }
  const FlatDfa f(patterns);
  Rng rng(5);
  Bytes hay = rng.random_bytes(200);
  hay.insert(hay.begin() + 80, patterns[0].begin(), patterns[0].end());

  // Byte-at-a-time advance() reaches the cursor scan() returns, and its
  // accept bits fire at exactly the offsets scan() reports.
  FlatDfa::Entry e = FlatDfa::kRoot;
  std::vector<std::size_t> accept_ends;
  for (std::size_t i = 0; i < hay.size(); ++i) {
    e = f.advance(e, hay[i]);
    if (FlatDfa::accepting(e)) accept_ends.push_back(i + 1);
  }
  std::vector<std::size_t> scan_ends;
  const FlatDfa::Entry end = f.scan(hay, FlatDfa::kRoot, [&](FlatDfa::Match m) {
    if (scan_ends.empty() || scan_ends.back() != m.end_offset) {
      scan_ends.push_back(m.end_offset);
    }
  });
  EXPECT_EQ(e, end);
  EXPECT_EQ(accept_ends, scan_ends);
  EXPECT_FALSE(accept_ends.empty());
}

TEST(FlatDfa, OutputsAreSuffixClosedAndMatchAcceptBits) {
  const FlatDfa f = make({"he", "she", "hers"});
  FlatDfa::Entry e = FlatDfa::kRoot;
  for (std::uint8_t b : to_bytes("she")) e = f.advance(e, b);
  const auto out = f.outputs(FlatDfa::state_of(e));
  EXPECT_EQ(std::vector<std::uint32_t>(out.begin(), out.end()),
            (std::vector<std::uint32_t>{0, 1}));  // "he" and "she", ascending
  // Every transition's accept bit agrees with its destination's outputs.
  for (std::uint32_t s = 0; s < f.state_count(); ++s) {
    for (int b = 0; b < 256; ++b) {
      const FlatDfa::Entry t =
          f.advance(FlatDfa::Entry{s} << 8, static_cast<std::uint8_t>(b));
      EXPECT_EQ(FlatDfa::accepting(t), !f.outputs(FlatDfa::state_of(t)).empty());
    }
  }
}

TEST(FlatDfa, StreamingCursorCrossesChunks) {
  const FlatDfa f = make({"hello", "world", "lowo"});
  const Bytes hay = to_bytes("say helloworld again helloworld");

  Hits streamed;
  FlatDfa::Entry e = FlatDfa::kRoot;
  std::size_t base = 0;
  for (std::size_t chunk = 1; base < hay.size();
       base += chunk, chunk = (chunk % 5) + 1) {
    const std::size_t n = std::min(chunk, hay.size() - base);
    e = f.scan(ByteView(hay).subspan(base, n), e, [&](FlatDfa::Match m) {
      streamed.emplace_back(m.pattern_id, base + m.end_offset);
    });
  }
  std::sort(streamed.begin(), streamed.end());
  EXPECT_EQ(streamed, hits(f, hay));
}

TEST(FlatDfa, AgreesWithNaiveOracleOnEvasionCorpus) {
  // Haystacks that embed real signatures (and fragments of them) in random
  // filler, so accepting states and failure links both fire.
  std::vector<Bytes> patterns;
  for (const core::Signature& s : evasion::default_corpus()) {
    patterns.push_back(s.bytes);
  }
  const FlatDfa f(patterns);
  Rng rng(41);
  for (int trial = 0; trial < 32; ++trial) {
    Bytes hay = rng.random_bytes(64 + static_cast<std::size_t>(rng.below(256)));
    const Bytes& sig = patterns[static_cast<std::size_t>(rng.below(patterns.size()))];
    const auto cut = static_cast<std::size_t>(1 + rng.below(sig.size()));
    const auto at = static_cast<std::size_t>(rng.below(hay.size()));
    hay.insert(hay.begin() + static_cast<std::ptrdiff_t>(at), sig.begin(),
               sig.begin() + static_cast<std::ptrdiff_t>(cut));
    const Hits want = naive_hits(patterns, hay);
    EXPECT_EQ(hits(f, hay), want) << "trial " << trial;
    EXPECT_EQ(f.contains_any(hay), !want.empty());
    EXPECT_EQ(f.first_match(hay), naive_first(want));
  }
}

TEST(FlatDfa, BatchMatchesSequentialOnRaggedInputs) {
  std::vector<Bytes> patterns;
  for (const core::Signature& s : evasion::default_corpus()) {
    patterns.push_back(s.bytes);
  }
  const FlatDfa f(patterns);

  Rng rng(97);
  for (int trial = 0; trial < 24; ++trial) {
    // Ragged batch: empty buffers, tiny buffers, long buffers, some with a
    // (possibly truncated) signature planted, batch sizes straddling the
    // lane width so refill + retire + compaction all run.
    const auto n = static_cast<std::size_t>(rng.below(2 * FlatDfa::kBatchWidth + 5));
    std::vector<Bytes> bufs(n);
    std::vector<ByteView> views(n);
    for (std::size_t i = 0; i < n; ++i) {
      bufs[i] = rng.random_bytes(static_cast<std::size_t>(rng.below(300)));
      if (!bufs[i].empty() && rng.below(2) == 0) {
        const Bytes& sig =
            patterns[static_cast<std::size_t>(rng.below(patterns.size()))];
        const auto cut = static_cast<std::size_t>(1 + rng.below(sig.size()));
        const auto at = static_cast<std::size_t>(rng.below(bufs[i].size()));
        bufs[i].insert(bufs[i].begin() + static_cast<std::ptrdiff_t>(at),
                       sig.begin(), sig.begin() + static_cast<std::ptrdiff_t>(cut));
      }
      views[i] = ByteView(bufs[i]);
    }
    std::vector<std::uint8_t> hit(n + 1, 0xee);
    f.contains_any_batch(views.data(), n, hit.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hit[i] != 0, f.contains_any(views[i]))
          << "trial " << trial << " lane " << i;
    }
    EXPECT_EQ(hit[n], 0xee);  // no write past n
  }
}

TEST(FlatDfa, BatchHandlesZeroAndOne) {
  const FlatDfa f = make({"zz"});
  f.contains_any_batch(nullptr, 0, nullptr);  // must not crash
  const Bytes one = to_bytes("azza");
  const ByteView v(one);
  std::uint8_t hit = 0;
  f.contains_any_batch(&v, 1, &hit);
  EXPECT_NE(hit, 0);
}

class FlatDfaFuzz : public ::testing::TestWithParam<std::uint64_t> {};

/// Every property against the naive oracle on one (patterns, haystack):
/// one-shot scan, contains_any, first_match, a cursor carried across a
/// split at every chunk boundary, and contains_any_batch over random-length
/// slices.
void expect_agrees_with_oracle(const std::vector<Bytes>& patterns,
                               const Bytes& hay, Rng& rng) {
  const FlatDfa f(patterns);

  // Ids are distinct even for duplicate byte strings, so the oracle does
  // not deduplicate either.
  const Hits want = naive_hits(patterns, hay);
  EXPECT_EQ(hits(f, hay), want);
  EXPECT_EQ(f.contains_any(hay), !want.empty());
  EXPECT_EQ(f.first_match(hay), naive_first(want));

  // Streaming: a cursor carried across a split at every chunk boundary
  // reports exactly the one-shot occurrences.
  for (std::size_t k = 0; k <= hay.size(); ++k) {
    Hits streamed;
    const auto collect = [&](std::size_t base) {
      return [&streamed, base](FlatDfa::Match m) {
        streamed.emplace_back(m.pattern_id, base + m.end_offset);
      };
    };
    const FlatDfa::Entry e =
        f.scan(ByteView(hay).subspan(0, k), FlatDfa::kRoot, collect(0));
    f.scan(ByteView(hay).subspan(k), e, collect(k));
    std::sort(streamed.begin(), streamed.end());
    ASSERT_EQ(streamed, want) << "split at " << k;
  }

  // Batch: random-length slices of the haystack, each judged on its own.
  std::vector<ByteView> slices;
  for (std::size_t off = 0; off < hay.size();) {
    const auto len = std::min(hay.size() - off,
                              static_cast<std::size_t>(rng.below(24)));
    slices.push_back(ByteView(hay).subspan(off, len));
    off += len;
  }
  std::vector<std::uint8_t> hit(slices.size(), 0xee);
  f.contains_any_batch(slices.data(), slices.size(), hit.data());
  for (std::size_t i = 0; i < slices.size(); ++i) {
    EXPECT_EQ(hit[i] != 0, !naive_hits(patterns, slices[i]).empty())
        << "slice " << i;
  }
}

TEST_P(FlatDfaFuzz, AgreesWithNaiveOracleOnRandomInput) {
  Rng rng(GetParam());

  // Small alphabet so patterns actually occur.
  auto rand_bytes = [&](std::size_t n) {
    Bytes b(n);
    for (auto& c : b) c = static_cast<std::uint8_t>('a' + rng.below(4));
    return b;
  };

  std::vector<Bytes> patterns;
  const std::size_t np = 1 + rng.below(8);
  for (std::size_t i = 0; i < np; ++i) patterns.push_back(rand_bytes(1 + rng.below(6)));
  const Bytes hay = rand_bytes(400);
  expect_agrees_with_oracle(patterns, hay, rng);
}

TEST_P(FlatDfaFuzz, AgreesWithNaiveOracleOnFullByteAlphabet) {
  Rng rng(GetParam());

  // Any byte value, so every column of a row is exercised. Random bytes
  // rarely contain a pattern by chance, so whole and truncated copies are
  // planted: the truncated ones leave the cursor deep in the trie where
  // failure links decide the next state.
  std::vector<Bytes> patterns;
  const std::size_t np = 1 + rng.below(8);
  for (std::size_t i = 0; i < np; ++i) {
    patterns.push_back(rng.random_bytes(1 + static_cast<std::size_t>(rng.below(6))));
  }
  Bytes hay = rng.random_bytes(300);
  for (int k = 0; k < 12; ++k) {
    const Bytes& p = patterns[static_cast<std::size_t>(rng.below(patterns.size()))];
    const auto cut = static_cast<std::size_t>(1 + rng.below(p.size()));
    const auto at = static_cast<std::size_t>(rng.below(hay.size()));
    hay.insert(hay.begin() + static_cast<std::ptrdiff_t>(at), p.begin(),
               p.begin() + static_cast<std::ptrdiff_t>(cut));
  }
  expect_agrees_with_oracle(patterns, hay, rng);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatDfaFuzz,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace sdt::match
