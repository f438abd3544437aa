// Signature splitting — the first half of the paper's contribution.
//
// A signature of length L >= 2p is cut into pieces of length exactly p:
// tiled at offsets 0, p, 2p, ... (every tile that fits entirely) plus one
// piece anchored at the end, [L-p, L). Pieces may overlap when p does not
// divide L; the piece automaton absorbs the redundancy.
//
// This tiling yields the covering property the detection theorem rests on:
//
//   (W)  every window of 2p-1 consecutive signature bytes contains at
//        least one complete piece, and every prefix or suffix of length
//        >= p contains the first or last piece.
//
// Consequently an attacker who delivers the signature using only in-order
// TCP segments of payload >= 2p-1 must place some complete piece inside a
// single segment, where the stateless per-packet scanner sees it. The only
// alternatives — small segments, out-of-order or overlapping sequence
// numbers, IP fragments — are precisely the anomalies that divert the flow
// to the slow path. (Property-tested in tests/core/theorem_test.cpp.)
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/signature.hpp"
#include "match/flat_dfa.hpp"
#include "match/prefilter.hpp"

namespace sdt::core {

/// One piece of one signature.
struct Piece {
  std::uint32_t signature_id = 0;
  std::uint32_t offset = 0;  // byte offset of the piece within the signature
};

/// Piece offsets for a signature of length `len` with piece length `p`.
/// Requires len >= 2 * p (throws InvalidArgument otherwise): shorter
/// signatures cannot be safely split and must stay on the slow path
/// unsplit — SplitDetectConfig::piece_len must be chosen against the
/// rule base's minimum signature length.
std::vector<std::uint32_t> piece_offsets(std::size_t len, std::size_t p);

/// Phase-shifted tiling: pieces at offsets `phase, phase+p, phase+2p, …`
/// (every tile fully inside the signature) plus the first piece anchored
/// at 0 and the last anchored at len-p. For every phase in [0, p) this
/// preserves the covering property (W) — the tiling phase is a *free
/// parameter* of the split.
std::vector<std::uint32_t> piece_offsets_with_phase(std::size_t len,
                                                    std::size_t p,
                                                    std::size_t phase);

/// The paper's rare-piece refinement: chance occurrences of a piece in
/// benign payload cost a slow-path diversion each, and pieces that align
/// with common protocol substrings (" HTTP/1.", "GET /...") fire
/// constantly (bench E5). Since the phase is free, pick — per signature —
/// the phase whose pieces occur least often in a sample of representative
/// benign payload. Returns the chosen offsets.
std::vector<std::uint32_t> optimized_piece_offsets(ByteView sig, std::size_t p,
                                                   ByteView benign_sample);

/// The fast path's pattern database: every piece of every signature,
/// compiled into one FlatDfa plus its prefilter, with the reverse mapping
/// from automaton pattern id back to (signature, offset).
///
/// Identical piece byte-strings are deduplicated before the automaton
/// build: rule bases share protocol substrings heavily, so two rules whose
/// tilings produce the same p bytes share ONE automaton pattern, and the
/// reverse mapping is one-to-many (pieces_for). The automaton shrinks;
/// detection is unchanged because a hit on the shared pattern implicates
/// every (signature, offset) that produced it.
class PieceSet {
 public:
  PieceSet() = default;
  PieceSet(const SignatureSet& sigs, std::size_t piece_len);

  /// Phase-optimized construction: per-signature tiling phases chosen to
  /// minimize chance piece hits against `benign_sample` (see
  /// optimized_piece_offsets). Detection guarantees are identical.
  PieceSet(const SignatureSet& sigs, std::size_t piece_len,
           ByteView benign_sample);

  std::size_t piece_len() const { return piece_len_; }
  /// Total (signature, offset) mappings — every tiled piece, duplicates
  /// included.
  std::size_t piece_count() const { return pieces_.size(); }
  /// Unique automaton patterns (<= piece_count when rules share content).
  std::size_t pattern_count() const { return flat_.pattern_count(); }
  /// The piece automaton and the prefilter that gates it.
  const match::FlatDfa& flat() const { return flat_; }
  const match::Prefilter& prefilter() const { return pre_; }

  /// The first (signature, offset) behind an automaton pattern id — the
  /// piece that introduced the pattern, in signature order.
  const Piece& piece(std::uint32_t pattern_id) const {
    return pieces_[begin_[pattern_id]];
  }

  /// Every (signature, offset) mapped to an automaton pattern id.
  std::span<const Piece> pieces_for(std::uint32_t pattern_id) const {
    return std::span<const Piece>(pieces_)
        .subspan(begin_[pattern_id],
                 begin_[pattern_id + 1] - begin_[pattern_id]);
  }

  /// Fast-path memory cost (automaton + prefilter + mapping).
  std::size_t memory_bytes() const {
    return flat_.memory_bytes() + pre_.memory_bytes() +
           pieces_.capacity() * sizeof(Piece) +
           begin_.capacity() * sizeof(std::uint32_t);
  }

 private:
  void build(const std::vector<Bytes>& patterns);

  std::size_t piece_len_ = 0;
  match::FlatDfa flat_;
  match::Prefilter pre_;
  /// CSR mapping: pattern id -> pieces_[begin_[id], begin_[id+1]).
  std::vector<Piece> pieces_;
  std::vector<std::uint32_t> begin_;
};

}  // namespace sdt::core
