#include "core/splitter.hpp"

#include <gtest/gtest.h>

#include "evasion/corpus.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace sdt::core {
namespace {

TEST(PieceOffsets, ExactMultiple) {
  // L=16, p=4: tiles 0,4,8,12; end-anchored piece coincides with 12.
  EXPECT_EQ(piece_offsets(16, 4), (std::vector<std::uint32_t>{0, 4, 8, 12}));
}

TEST(PieceOffsets, NonMultipleAddsAnchoredTail) {
  // L=18, p=4: tiles 0,4,8,12 (16+4>18 stops at 12... tile 14? no: 0,4,8,12
  // and 14 anchored).
  EXPECT_EQ(piece_offsets(18, 4), (std::vector<std::uint32_t>{0, 4, 8, 12, 14}));
}

TEST(PieceOffsets, MinimumLengthExactlyTwoP) {
  EXPECT_EQ(piece_offsets(8, 4), (std::vector<std::uint32_t>{0, 4}));
  EXPECT_EQ(piece_offsets(9, 4), (std::vector<std::uint32_t>{0, 4, 5}));
}

TEST(PieceOffsets, RejectsTooShort) {
  EXPECT_THROW(piece_offsets(7, 4), InvalidArgument);
  EXPECT_THROW(piece_offsets(0, 4), InvalidArgument);
  EXPECT_THROW(piece_offsets(10, 0), InvalidArgument);
}

/// Property (W): every window of 2p-1 consecutive signature bytes contains
/// a whole piece, and every prefix/suffix of length >= p contains the
/// first/last piece. Verified exhaustively for all (L, p) with L <= 80.
class WindowProperty
    : public ::testing::TestWithParam<std::size_t /* piece len p */> {};

TEST_P(WindowProperty, EveryWindowContainsAPiece) {
  const std::size_t p = GetParam();
  for (std::size_t L = 2 * p; L <= 80; ++L) {
    const auto offs = piece_offsets(L, p);
    // Prefix / suffix coverage.
    EXPECT_EQ(offs.front(), 0u);
    EXPECT_EQ(offs.back(), L - p);
    // Window coverage.
    const std::size_t w = 2 * p - 1;
    for (std::size_t x = 0; x + w <= L; ++x) {
      bool covered = false;
      for (const std::uint32_t o : offs) {
        if (o >= x && o + p <= x + w) {
          covered = true;
          break;
        }
      }
      EXPECT_TRUE(covered) << "L=" << L << " p=" << p << " window at " << x;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PieceLens, WindowProperty,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8, 12, 16));

TEST(PieceSet, MapsMatcherIdsBackToSignatures) {
  SignatureSet sigs;
  sigs.add("a", std::string_view("ABCDEFGH"));         // L=8, p=4: offsets 0,4
  sigs.add("b", std::string_view("0123456789"));       // L=10: offsets 0,4,6
  const PieceSet ps(sigs, 4);
  EXPECT_EQ(ps.piece_len(), 4u);
  EXPECT_EQ(ps.piece_count(), 5u);
  EXPECT_EQ(ps.piece(0).signature_id, 0u);
  EXPECT_EQ(ps.piece(0).offset, 0u);
  EXPECT_EQ(ps.piece(1).offset, 4u);
  EXPECT_EQ(ps.piece(2).signature_id, 1u);
  EXPECT_EQ(ps.piece(4).offset, 6u);
  // The automaton's patterns are the piece bytes, in piece order.
  EXPECT_EQ(ps.pattern_count(), 5u);
  EXPECT_EQ(ps.flat().first_match(to_bytes("6789")), 4);
}

TEST(PieceSet, MatcherFindsEveryPieceInItsSignature) {
  SignatureSet sigs = evasion::default_corpus(/*min_len=*/16);
  const PieceSet ps(sigs, 8);
  for (const Signature& s : sigs) {
    // Every signature must trip the piece matcher when seen whole.
    EXPECT_TRUE(ps.flat().contains_any(s.bytes)) << s.name;
  }
}

TEST(PieceSet, ThrowsWhenAnySignatureTooShort) {
  SignatureSet sigs;
  sigs.add("short", std::string_view("1234567"));  // 7 < 2*4
  EXPECT_THROW(PieceSet(sigs, 4), InvalidArgument);
}

TEST(PieceSet, MemoryGrowsWithPatternCount) {
  SignatureSet one, distinct;
  one.add("x", std::string_view("ABCDEFGHIJKLMNOP"));
  Rng rng(3);
  for (int i = 0; i < 30; ++i) {
    distinct.add("d" + std::to_string(i), ByteView(rng.random_bytes(16)));
  }
  EXPECT_GT(PieceSet(distinct, 8).memory_bytes(),
            PieceSet(one, 8).memory_bytes());
}

TEST(PieceSet, FootprintIsOneAutomatonPlusMappings) {
  const SignatureSet sigs = evasion::default_corpus(/*min_len=*/16);
  const PieceSet ps(sigs, 8);
  // Automaton + prefilter + (signature, offset) mappings: no second copy
  // of the piece automaton hides in the footprint.
  const std::size_t mappings =
      ps.memory_bytes() - ps.flat().memory_bytes() - ps.prefilter().memory_bytes();
  EXPECT_LT(mappings, ps.flat().memory_bytes() / 4);
  EXPECT_GE(mappings, ps.piece_count() * sizeof(Piece));
}

TEST(PieceSet, PrefilterPassesEveryPiece) {
  const SignatureSet sigs = evasion::default_corpus(/*min_len=*/16);
  const PieceSet ps(sigs, 8);
  ASSERT_TRUE(ps.prefilter().usable());
  EXPECT_EQ(ps.prefilter().max_pattern_len(), 8u);
  for (std::uint32_t id = 0; id < ps.pattern_count(); ++id) {
    const Piece& p = ps.piece(id);
    const ByteView bytes =
        ByteView(sigs[p.signature_id].bytes).subspan(p.offset, ps.piece_len());
    EXPECT_TRUE(ps.prefilter().may_contain(bytes)) << "pattern " << id;
    EXPECT_TRUE(ps.flat().contains_any(bytes)) << "pattern " << id;
  }
}

}  // namespace
}  // namespace sdt::core
