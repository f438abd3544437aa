// Multi-pattern exact string matching: the one automaton every scan runs on.
//
// An Aho-Corasick automaton closed into a dense DFA, built straight from
// the pattern trie and its failure links: one contiguous row of 256 packed
// entries per state, where every entry carries the *destination* row
// offset and the destination's accepting bit:
//
//   Entry = (state << 8) | flags        (bit 0 = accepting)
//
// Because the row stride is 256 and entries are 4 bytes, `state << 8` IS
// the element offset of the destination row — the hot loop is exactly one
// load and one bit test per byte, with no multiply and no second table
// probe for acceptance:
//
//   e = trans[(e & kRowMask) + b];   hit |= e & kAcceptBit;
//
// The matcher is streaming: scan() resumes from a caller-held Entry, so the
// conventional IPS matches across segment boundaries of a reassembled
// stream while the Split-Detect fast path deliberately restarts at kRoot
// for every packet (that is the point of the paper).
//
// contains_any_batch() walks up to kBatchWidth independent buffers in
// lockstep so the (usually cache-missing) row loads of different lanes
// overlap instead of serializing — the software analogue of the paper's
// "the automaton load is the bottleneck, so pipeline flows" argument.
//
// States are capped at 2^24 (flags get the low 8 bits); piece automata are
// tens of thousands of states, so the cap is generous. Per-state output
// lists live in a CSR array read only on the match-report path.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/bytes.hpp"

namespace sdt::match {

class FlatDfa {
 public:
  /// Packed cursor/transition: (state << 8) | flags.
  using Entry = std::uint32_t;
  static constexpr Entry kAcceptBit = 1u;
  static constexpr Entry kRowMask = ~Entry{0xffu};
  /// Cursor of the root state. The root never accepts (empty patterns are
  /// rejected), so its entry is all zeros.
  static constexpr Entry kRoot = 0;
  static constexpr std::size_t kMaxStates = std::size_t{1} << 24;
  /// Lanes walked per loop iteration by contains_any_batch.
  static constexpr std::size_t kBatchWidth = 8;

  /// A pattern occurrence: pattern(id) ends at data[end_offset - 1].
  struct Match {
    std::uint32_t pattern_id;
    std::size_t end_offset;
  };

  FlatDfa() = default;

  /// Build over `patterns`; pattern i is reported as id i. Duplicate byte
  /// strings get distinct ids and are all reported. Throws InvalidArgument
  /// on an empty pattern or when the trie exceeds kMaxStates.
  explicit FlatDfa(std::span<const Bytes> patterns);

  bool empty() const { return states_ == 0; }
  std::size_t state_count() const { return states_; }
  std::size_t pattern_count() const { return patterns_; }
  std::size_t memory_bytes() const;

  Entry advance(Entry e, std::uint8_t b) const {
    return trans_[(e & kRowMask) + b];
  }
  static bool accepting(Entry e) { return (e & kAcceptBit) != 0; }
  static std::uint32_t state_of(Entry e) { return e >> 8; }

  /// Pattern ids ending at state s (suffix outputs merged, ascending).
  std::span<const std::uint32_t> outputs(std::uint32_t s) const {
    return {out_ids_.data() + out_begin_[s],
            out_ids_.data() + out_begin_[s + 1]};
  }

  /// Streaming scan from cursor `e`; on_match(Match) per occurrence;
  /// returns the cursor after the last byte (feed it back in to continue
  /// the stream).
  template <typename Fn>
  Entry scan(ByteView data, Entry e, Fn&& on_match) const {
    if (states_ == 0) return e;  // default-constructed: matches nothing
    const Entry* table = trans_.data();
    for (std::size_t i = 0; i < data.size(); ++i) {
      e = table[(e & kRowMask) + data[i]];
      if (e & kAcceptBit) {
        for (std::uint32_t id : outputs(state_of(e))) {
          on_match(Match{id, i + 1});
        }
      }
    }
    return e;
  }

  std::vector<Match> find_all(ByteView data) const {
    std::vector<Match> ms;
    scan(data, kRoot, [&](Match m) { ms.push_back(m); });
    return ms;
  }

  /// Per-packet verdict from the root; early-exits on the first hit.
  bool contains_any(ByteView data) const {
    if (states_ == 0) return false;
    const Entry* table = trans_.data();
    Entry e = kRoot;
    for (std::uint8_t b : data) {
      e = table[(e & kRowMask) + b];
      if (e & kAcceptBit) return true;
    }
    return false;
  }

  /// First matching pattern id from the root, or -1.
  std::int64_t first_match(ByteView data) const;

  /// Batched per-packet verdicts: hit[i] = contains_any(data[i]). Keeps up
  /// to kBatchWidth lanes in flight, refilling finished lanes from the
  /// remaining inputs; lanes advance branchlessly (a hit lane accumulates
  /// its verdict and is retired at the next chunk boundary).
  void contains_any_batch(const ByteView* data, std::size_t n,
                          std::uint8_t* hit) const;

 private:
  std::size_t states_ = 0;
  std::size_t patterns_ = 0;
  std::vector<Entry> trans_;            // states_ * 256 packed entries
  std::vector<std::uint32_t> out_ids_;  // CSR outputs (report path only)
  std::vector<std::uint32_t> out_begin_;
};

}  // namespace sdt::match
