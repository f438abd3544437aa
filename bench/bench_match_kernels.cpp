// A1 — Match-kernel ablation: the per-byte scan costs underlying E3/E6.
//
// Sweeps every kernel that can clear a payload on the fast path, over the
// same 1460-byte-segment workload the packet path sees:
//
//   flat_dfa              packed-entry flat DFA, sequential per segment
//   flat_batch            contains_any_batch, 8 segments in lockstep
//   prefilter             SIMD candidate windows only (no exact scan)
//   staged                prefilter windows -> flat DFA over the windows
//                         (what FastPath actually runs per payload)
//
// Two workloads: clean (signature-free — the common case the prefilter is
// built to make cheap) and dirty (signature pieces planted — the staged
// path must fall back to real scanning). All kernels return identical
// verdicts; only cost may differ. That identity is enforced by
// tests/match/* (ctest -L match); this bench only times it.
#include <chrono>

#include "bench_util.hpp"
#include "core/splitter.hpp"
#include "match/flat_dfa.hpp"
#include "match/prefilter.hpp"
#include "util/rng.hpp"

using namespace sdt;

namespace {

/// Optimizer escape hatch: every kernel's verdict lands here, so the scan
/// cannot be dead-code-eliminated.
volatile std::uint64_t g_sink = 0;

void keep(std::uint64_t v) { g_sink = g_sink + v; }

/// Payload cut into the 1460-byte segments a full MTU stream delivers.
std::vector<ByteView> segments(const Bytes& data) {
  constexpr std::size_t kSeg = 1460;
  std::vector<ByteView> out;
  for (std::size_t off = 0; off < data.size(); off += kSeg) {
    out.push_back(ByteView(data).subspan(off, std::min(kSeg, data.size() - off)));
  }
  return out;
}

/// ns/byte for `fn` (which must consume every segment once per call).
template <typename F>
double ns_per_byte(const Bytes& data, F&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
  return static_cast<double>(ns) / static_cast<double>(data.size());
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opt = bench::Options::parse(argc, argv);
  bench::JsonReport rep("A1_match_kernels",
                        "per-byte scan cost by match kernel", opt);
  bench::banner("A1: match-kernel ablation",
                "the fast path's per-byte budget: flat DFA + batch + SIMD "
                "prefilter, kernel by kernel (feeds E3/E6)");

  const core::SignatureSet sigs = evasion::default_corpus(16);
  const std::size_t piece_len = 8;
  const core::PieceSet pieces(sigs, piece_len);
  const match::FlatDfa& flat = pieces.flat();
  const match::Prefilter& pre = pieces.prefilter();

  // Clean: random bytes (binary, worst case for byte-class prefilters).
  // Dirty: the same payload with a signature piece planted every ~4 KiB,
  // so candidate windows and real DFA work dominate.
  Rng rng(31);
  const std::size_t mb = opt.sized(1 << 20, 1 << 18);
  const Bytes clean = evasion::generate_payload(rng, mb, 0.0);
  Bytes dirty = clean;
  for (std::size_t off = 2048; off + piece_len < dirty.size(); off += 4096) {
    const core::Signature& s =
        sigs[static_cast<std::uint32_t>(rng.below(sigs.size()))];
    std::copy(s.bytes.begin(),
              s.bytes.begin() + static_cast<std::ptrdiff_t>(piece_len),
              dirty.begin() + static_cast<std::ptrdiff_t>(off));
  }

  const std::size_t runs = opt.runs(9, 3);
  std::printf("prefilter kernel: %s   segments: 1460 B   payload: %s\n\n",
              pre.kernel_name(),
              human_bytes(static_cast<double>(mb)).c_str());
  std::printf("%-12s | %18s | %18s\n", "kernel", "clean ns/B", "dirty ns/B");
  std::printf("-------------+--------------------+-------------------\n");

  std::vector<match::PrefilterWindow> wins;
  std::vector<std::uint8_t> hits;
  const auto bench_one = [&](const char* name, auto&& scan_all) {
    const auto time = [&](const Bytes& data) {
      const std::vector<ByteView> segs = segments(data);
      hits.assign(segs.size(), 0);
      return bench::repeat(runs, [&] {
        return ns_per_byte(data, [&] { scan_all(segs); });
      });
    };
    const bench::Repeated c = time(clean);
    const bench::Repeated d = time(dirty);
    std::printf("%-12s | %18s | %18s\n", name, bench::pm(c, "%.3f").c_str(),
                bench::pm(d, "%.3f").c_str());
    rep.metric(std::string(name) + ".clean_ns_per_byte", c, "ns/byte");
    rep.metric(std::string(name) + ".dirty_ns_per_byte", d, "ns/byte");
  };

  bench_one("flat_dfa", [&](const std::vector<ByteView>& segs) {
    bool any = false;
    for (const ByteView s : segs) any |= flat.contains_any(s);
    keep(any ? 1 : 0);
  });
  bench_one("flat_batch", [&](const std::vector<ByteView>& segs) {
    flat.contains_any_batch(segs.data(), segs.size(), hits.data());
    keep(hits.empty() ? 0u : hits[0]);
  });
  bench_one("prefilter", [&](const std::vector<ByteView>& segs) {
    std::size_t cands = 0;
    for (const ByteView s : segs) {
      wins.clear();
      cands += pre.windows(s, wins);
    }
    keep(cands);
  });
  bench_one("staged", [&](const std::vector<ByteView>& segs) {
    bool any = false;
    for (const ByteView s : segs) {
      wins.clear();
      pre.windows(s, wins);
      for (const match::PrefilterWindow& w : wins) {
        if (flat.contains_any(s.subspan(w.begin, w.end - w.begin))) {
          any = true;
          break;
        }
      }
    }
    keep(any ? 1 : 0);
  });

  // Context the numbers need: how much of the payload the staged path
  // actually hands to the exact scanner.
  const auto exact_bytes = [&](const Bytes& data) {
    std::size_t total = 0;
    for (const ByteView s : segments(data)) {
      wins.clear();
      pre.windows(s, wins);
      for (const match::PrefilterWindow& w : wins) total += w.end - w.begin;
    }
    return total;
  };
  const std::size_t clean_exact = exact_bytes(clean);
  const std::size_t dirty_exact = exact_bytes(dirty);
  const double clean_frac =
      static_cast<double>(clean_exact) / static_cast<double>(mb);
  const double dirty_frac =
      static_cast<double>(dirty_exact) / static_cast<double>(mb);
  std::printf("\nexact-scan fraction after prefilter: clean %.4f, dirty %.4f\n",
              clean_frac, dirty_frac);
  rep.metric("prefilter.clean_exact_fraction", clean_frac, "fraction");
  rep.metric("prefilter.dirty_exact_fraction", dirty_frac, "fraction");

  std::printf(
      "\nexpected shape: flat_batch beats flat_dfa on many segments\n"
      "(overlapped row loads), and staged crushes both on clean traffic\n"
      "(the SIMD prefilter clears most bytes without touching the DFA);\n"
      "on dirty traffic staged degrades toward flat_dfa, never worse than\n"
      "prefilter + flat over the windows.\n");
  return rep.write() ? 0 : 1;
}
