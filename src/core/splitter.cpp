#include "core/splitter.hpp"

#include <algorithm>
#include <map>

#include "match/single_match.hpp"
#include "util/error.hpp"

namespace sdt::core {

std::vector<std::uint32_t> piece_offsets(std::size_t len, std::size_t p) {
  if (p == 0) throw InvalidArgument("piece_offsets: piece length 0");
  if (len < 2 * p) {
    throw InvalidArgument(
        "piece_offsets: signature of length " + std::to_string(len) +
        " too short to split at piece length " + std::to_string(p) +
        " (need >= 2x)");
  }
  std::vector<std::uint32_t> offs;
  offs.reserve(len / p + 1);
  for (std::size_t o = 0; o + p <= len; o += p) {
    offs.push_back(static_cast<std::uint32_t>(o));
  }
  const auto last = static_cast<std::uint32_t>(len - p);
  if (offs.back() != last) offs.push_back(last);
  return offs;
}

std::vector<std::uint32_t> piece_offsets_with_phase(std::size_t len,
                                                    std::size_t p,
                                                    std::size_t phase) {
  if (p == 0) throw InvalidArgument("piece_offsets_with_phase: piece length 0");
  if (phase >= p) throw InvalidArgument("piece_offsets_with_phase: phase >= p");
  if (len < 2 * p) {
    throw InvalidArgument(
        "piece_offsets_with_phase: signature too short to split");
  }
  std::vector<std::uint32_t> offs;
  offs.push_back(0);  // anchored first piece
  for (std::size_t o = phase; o + p <= len; o += p) {
    offs.push_back(static_cast<std::uint32_t>(o));
  }
  offs.push_back(static_cast<std::uint32_t>(len - p));  // anchored last piece
  std::sort(offs.begin(), offs.end());
  offs.erase(std::unique(offs.begin(), offs.end()), offs.end());
  return offs;
}

std::vector<std::uint32_t> optimized_piece_offsets(ByteView sig, std::size_t p,
                                                   ByteView benign_sample) {
  std::size_t best_phase = 0;
  std::size_t best_score = SIZE_MAX;
  for (std::size_t phase = 0; phase < p; ++phase) {
    const auto offs = piece_offsets_with_phase(sig.size(), p, phase);
    std::size_t score = 0;
    for (const std::uint32_t o : offs) {
      const match::Bmh m(sig.subspan(o, p));
      score += m.find_all(benign_sample).size();
      if (score >= best_score) break;  // cannot win
    }
    if (score < best_score) {
      best_score = score;
      best_phase = phase;
      if (score == 0) break;  // cannot do better
    }
  }
  return piece_offsets_with_phase(sig.size(), p, best_phase);
}

namespace {

/// Common construction: collects the automaton's pattern list over the
/// per-signature offset lists produced by `offsets_of`, deduplicating
/// identical piece bytes so the automaton holds each distinct p-byte
/// string once. Pattern ids are dense and sequential, so the per-pattern
/// piece groups assemble in id order and flatten into a CSR mapping.
template <typename OffsetsFn>
std::vector<Bytes> collect_pieces(const SignatureSet& sigs,
                                  std::size_t piece_len, OffsetsFn&& offsets_of,
                                  std::vector<Piece>& pieces,
                                  std::vector<std::uint32_t>& begin) {
  std::vector<Bytes> patterns;
  std::map<Bytes, std::uint32_t> seen;  // piece bytes -> pattern id
  std::vector<std::vector<Piece>> groups;
  for (const Signature& s : sigs) {
    for (std::uint32_t off : offsets_of(s)) {
      const ByteView bytes = ByteView(s.bytes).subspan(off, piece_len);
      Bytes key(bytes.begin(), bytes.end());
      const auto [it, fresh] =
          seen.emplace(std::move(key), static_cast<std::uint32_t>(groups.size()));
      if (fresh) {
        patterns.emplace_back(bytes.begin(), bytes.end());
        groups.emplace_back();
      }
      groups[it->second].push_back(Piece{s.id, off});
    }
  }
  begin.clear();
  begin.reserve(groups.size() + 1);
  begin.push_back(0);
  pieces.clear();
  for (const auto& g : groups) {
    pieces.insert(pieces.end(), g.begin(), g.end());
    begin.push_back(static_cast<std::uint32_t>(pieces.size()));
  }
  return patterns;
}

}  // namespace

PieceSet::PieceSet(const SignatureSet& sigs, std::size_t piece_len)
    : piece_len_(piece_len) {
  build(collect_pieces(
      sigs, piece_len,
      [&](const Signature& s) { return piece_offsets(s.bytes.size(), piece_len); },
      pieces_, begin_));
}

PieceSet::PieceSet(const SignatureSet& sigs, std::size_t piece_len,
                   ByteView benign_sample)
    : piece_len_(piece_len) {
  build(collect_pieces(
      sigs, piece_len,
      [&](const Signature& s) {
        return optimized_piece_offsets(s.bytes, piece_len, benign_sample);
      },
      pieces_, begin_));
}

void PieceSet::build(const std::vector<Bytes>& patterns) {
  flat_ = match::FlatDfa(patterns);
  pre_ = match::Prefilter(patterns);
}

}  // namespace sdt::core
