#include "match/flat_dfa.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace sdt::match {

FlatDfa::FlatDfa(std::span<const Bytes> patterns)
    : patterns_(patterns.size()) {
  // Exact trie size up front: in sorted order each pattern adds one state
  // per byte past its common prefix with its predecessor.
  std::vector<ByteView> sorted(patterns.begin(), patterns.end());
  std::sort(sorted.begin(), sorted.end(), [](ByteView a, ByteView b) {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  });
  std::size_t n = 1;
  ByteView prev;
  for (const ByteView p : sorted) {
    if (p.empty()) throw InvalidArgument("FlatDfa: empty pattern");
    const auto lcp = std::mismatch(p.begin(), p.end(), prev.begin(),
                                   prev.end()).first - p.begin();
    n += p.size() - static_cast<std::size_t>(lcp);
    prev = p;
  }
  if (n > kMaxStates) {
    throw InvalidArgument("FlatDfa: too many states for packed encoding");
  }
  states_ = n;

  // Trie: trans_ starts as the goto function, (child << 8) per edge and 0
  // for none (the root is nobody's child).
  trans_.assign(n * 256, kRoot);
  std::vector<std::vector<std::uint32_t>> out(n);
  std::uint32_t fresh = 1;
  for (std::uint32_t id = 0; id < patterns.size(); ++id) {
    std::uint32_t s = 0;
    for (const std::uint8_t b : patterns[id]) {
      Entry& t = trans_[std::size_t{s} * 256 + b];
      if (t == 0) t = Entry{fresh++} << 8;
      s = state_of(t);
    }
    out[s].push_back(id);
  }

  // BFS closes the goto function into the DFA. A child's failure state is
  // where its parent's failure state goes on the same byte, and the child
  // inherits that state's outputs; a missing edge copies the failure
  // state's row entry. Both read only shallower states, whose rows and
  // output lists are already final.
  std::vector<std::uint32_t> fail(n, 0);
  std::vector<std::uint32_t> queue;
  queue.reserve(n);
  queue.push_back(0);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::uint32_t s = queue[head];
    Entry* row = trans_.data() + std::size_t{s} * 256;
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
      queue.push_back(c);
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
    for (std::size_t j = 0; j < m; ++j) {
      for (std::size_t w = 0; w < active; ++w) {
        cur[w] = table[(cur[w] & kRowMask) + *ptr[w]];
        ++ptr[w];
        acc[w] |= cur[w] & kAcceptBit;
      }
    }
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
