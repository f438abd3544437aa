#include "match/flat_dfa.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace sdt::match {

FlatDfa::FlatDfa(std::span<const Bytes> patterns)
    : patterns_(patterns.size()) {
  // States are numbered breadth-first as the trie is created: depth first,
  // then byte order. In sorted order each pattern adds one state per byte
  // past its common prefix with its predecessor, and the depth-d prefixes
  // appear in byte order, so a new depth-d state takes the next id after
  // the shallower states and the depth-d states seen so far.
  struct Keyed {
    ByteView bytes;
    std::uint32_t id;
  };
  std::vector<Keyed> sorted;
  sorted.reserve(patterns.size());
  std::size_t max_len = 0;
  for (std::uint32_t id = 0; id < patterns.size(); ++id) {
    if (patterns[id].empty()) throw InvalidArgument("FlatDfa: empty pattern");
    sorted.push_back({patterns[id], id});
    max_len = std::max(max_len, patterns[id].size());
  }
  // Stable, so duplicates keep ascending ids.
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Keyed& a, const Keyed& b) {
                     return std::ranges::lexicographical_compare(a.bytes,
                                                                 b.bytes);
                   });
  // lcp[k]: common prefix of sorted[k] with sorted[k - 1]. The exact
  // state count is checked before anything is sized by pattern length.
  std::vector<std::size_t> lcp(sorted.size(), 0);
  std::size_t n = 1;
  for (std::size_t k = 0; k < sorted.size(); ++k) {
    const ByteView p = sorted[k].bytes;
    const ByteView q = k > 0 ? sorted[k - 1].bytes : ByteView{};
    lcp[k] = static_cast<std::size_t>(std::ranges::mismatch(p, q).in1 -
                                      p.begin());
    n += p.size() - lcp[k];
  }
  if (n > kMaxStates) {
    throw InvalidArgument("FlatDfa: too many states for packed encoding");
  }
  // next[d]: the depth-d state count, then the next free depth-d id.
  std::vector<std::size_t> next(max_len + 1, 0);
  for (std::size_t k = 0; k < sorted.size(); ++k) {
    for (std::size_t d = lcp[k] + 1; d <= sorted[k].bytes.size(); ++d) {
      ++next[d];
    }
  }
  for (std::size_t d = 1, base = 1; d <= max_len; ++d) {
    base += std::exchange(next[d], base);
  }
  states_ = n;

  // Trie: trans_ starts as the goto function, (child << 8) per edge and 0
  // for none (the root is nobody's child). path[d] is the current
  // pattern's depth-d state; the first lcp of them are its predecessor's.
  trans_.assign(n * 256, kRoot);
  std::vector<std::vector<std::uint32_t>> out(n);
  std::vector<std::uint32_t> path(max_len + 1, 0);
  for (std::size_t k = 0; k < sorted.size(); ++k) {
    const ByteView p = sorted[k].bytes;
    for (std::size_t d = lcp[k] + 1; d <= p.size(); ++d) {
      path[d] = static_cast<std::uint32_t>(next[d]++);
      trans_[std::size_t{path[d - 1]} * 256 + p[d - 1]] = Entry{path[d]} << 8;
    }
    out[path[p.size()]].push_back(sorted[k].id);
  }

  // Closing the goto function into the DFA in id order is the BFS order.
  // A child's failure state is where its parent's failure state goes on
  // the same byte, and the child inherits that state's outputs; a missing
  // edge copies the failure state's row entry. Both read only shallower
  // states, whose ids are smaller, so their rows and outputs are final.
  std::vector<std::uint32_t> fail(n, 0);
  for (std::size_t s = 0; s < n; ++s) {
    Entry* row = trans_.data() + s * 256;
    const Entry* fail_row = trans_.data() + std::size_t{fail[s]} * 256;
    for (std::size_t b = 0; b < 256; ++b) {
      if (row[b] == 0) {
        if (s != 0) row[b] = fail_row[b];
        continue;
      }
      const std::uint32_t c = state_of(row[b]);
      if (s != 0) {
        fail[c] = state_of(fail_row[b]);
        const std::vector<std::uint32_t>& inherited = out[fail[c]];
        out[c].insert(out[c].end(), inherited.begin(), inherited.end());
        std::sort(out[c].begin(), out[c].end());
      }
      if (!out[c].empty()) row[b] |= kAcceptBit;
    }
  }

  out_begin_.resize(n + 1, 0);
  for (std::size_t s = 0; s < n; ++s) {
    out_begin_[s + 1] =
        out_begin_[s] + static_cast<std::uint32_t>(out[s].size());
  }
  out_ids_.reserve(out_begin_[n]);
  for (const std::vector<std::uint32_t>& o : out) {
    out_ids_.insert(out_ids_.end(), o.begin(), o.end());
  }
}

std::int64_t FlatDfa::first_match(ByteView data) const {
  if (states_ == 0) return -1;
  const Entry* table = trans_.data();
  Entry e = kRoot;
  for (std::uint8_t b : data) {
    e = table[(e & kRowMask) + b];
    if (e & kAcceptBit) return out_ids_[out_begin_[state_of(e)]];
  }
  return -1;
}

void FlatDfa::contains_any_batch(const ByteView* data, std::size_t n,
                                 std::uint8_t* hit) const {
  if (n == 0) return;
  if (states_ == 0) {
    std::fill(hit, hit + n, std::uint8_t{0});
    return;
  }
  // Lanes are retired (hit recorded) when exhausted or once their verdict
  // is known at a chunk boundary; kChunkCap bounds the wasted lockstep
  // bytes a hit lane can burn before retirement.
  constexpr std::size_t kChunkCap = 256;
  const Entry* table = trans_.data();
  const std::uint8_t* ptr[kBatchWidth];
  const std::uint8_t* end[kBatchWidth];
  Entry cur[kBatchWidth];
  Entry acc[kBatchWidth];
  std::size_t slot[kBatchWidth];  // output index owned by this lane
  std::size_t active = 0;
  std::size_t next = 0;

  const auto refill = [&](std::size_t w) -> bool {
    while (next < n) {
      const std::size_t i = next++;
      if (data[i].empty()) {
        hit[i] = 0;
        continue;
      }
      ptr[w] = data[i].data();
      end[w] = ptr[w] + data[i].size();
      cur[w] = kRoot;
      acc[w] = 0;
      slot[w] = i;
      return true;
    }
    return false;
  };

  while (active < kBatchWidth && refill(active)) ++active;

  while (active > 0) {
    std::size_t m = kChunkCap;
    for (std::size_t w = 0; w < active; ++w) {
      m = std::min(m, static_cast<std::size_t>(end[w] - ptr[w]));
    }
    // The chunk walks local copies of the lanes. Called with the constant
    // kBatchWidth, the lane loop unrolls and the copies live in registers
    // instead of round-tripping through the arrays on every lane-byte.
    const auto walk = [&](std::size_t width) {
      const std::uint8_t* p[kBatchWidth] = {};
      Entry c[kBatchWidth] = {};
      Entry a[kBatchWidth] = {};
#pragma GCC unroll 8
      for (std::size_t w = 0; w < width; ++w) {
        p[w] = ptr[w];
        c[w] = cur[w];
        a[w] = acc[w];
      }
      for (std::size_t j = 0; j < m; ++j) {
#pragma GCC unroll 8
        for (std::size_t w = 0; w < width; ++w) {
          c[w] = table[(c[w] & kRowMask) + p[w][j]];
          a[w] |= c[w] & kAcceptBit;
        }
      }
#pragma GCC unroll 8
      for (std::size_t w = 0; w < width; ++w) {
        ptr[w] = p[w] + m;
        cur[w] = c[w];
        acc[w] = a[w];
      }
    };
    active == kBatchWidth ? walk(kBatchWidth) : walk(active);
    for (std::size_t w = 0; w < active;) {
      if (acc[w] != 0 || ptr[w] == end[w]) {
        hit[slot[w]] = acc[w] != 0 ? 1 : 0;
        if (!refill(w)) {
          --active;
          ptr[w] = ptr[active];
          end[w] = end[active];
          cur[w] = cur[active];
          acc[w] = acc[active];
          slot[w] = slot[active];
          continue;  // re-examine the lane just moved into w
        }
      }
      ++w;
    }
  }
}

std::size_t FlatDfa::memory_bytes() const {
  return sizeof(*this) + trans_.capacity() * sizeof(Entry) +
         out_ids_.capacity() * sizeof(std::uint32_t) +
         out_begin_.capacity() * sizeof(std::uint32_t);
}

}  // namespace sdt::match
