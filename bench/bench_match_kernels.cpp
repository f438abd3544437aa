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
// Two rule bases: the default corpus at p = 8 (a cache-resident
// automaton) and a clean_bulk-shaped binary base at p = 16 (tens of MiB of
// rows, so cache and TLB misses set the cost). Two payloads each: clean
// (signature-free — the common case the prefilter is built to make cheap)
// and dirty (signature pieces planted — the staged path must fall back to
// real scanning). All kernels return identical
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

  // Two rule bases. `corpus` is the default corpus at p = 8: a few
  // thousand states, the automaton fits in L2. `bulk` is shaped like
  // inlinebench's clean_bulk: the corpus (>= 32 B) plus 500 random binary
  // signatures of 32-120 B at p = 16, tens of thousands of 1 KiB rows, so
  // the walk is bound by cache and TLB misses.
  const core::SignatureSet corpus = evasion::default_corpus(16);
  core::SignatureSet bulk = evasion::default_corpus(32);
  Rng rule_rng(16);
  for (int k = 0; k < 500; ++k) {
    const auto len = static_cast<std::size_t>(rule_rng.range(32, 120));
    bulk.add("bulk-random-" + std::to_string(k), rule_rng.random_bytes(len));
  }

  const std::size_t mb = opt.sized(1 << 20, 1 << 18);
  const std::size_t runs = opt.runs(9, 3);
  std::vector<match::PrefilterWindow> wins;
  std::vector<std::uint8_t> hits;

  // Metric names carry the rule base as a prefix, except for `corpus`,
  // whose names predate the second rule base.
  const auto sweep = [&](const char* label, const core::SignatureSet& sigs,
                         std::size_t piece_len, const std::string& prefix) {
    const core::PieceSet pieces(sigs, piece_len);
    const match::FlatDfa& flat = pieces.flat();
    const match::Prefilter& pre = pieces.prefilter();

    // Clean: random bytes (binary, worst case for byte-class prefilters).
    // Dirty: the same payload with a signature piece planted every ~4 KiB,
    // so candidate windows and real DFA work dominate.
    Rng rng(31);
    const Bytes clean = evasion::generate_payload(rng, mb, 0.0);
    Bytes dirty = clean;
    for (std::size_t off = 2048; off + piece_len < dirty.size(); off += 4096) {
      const core::Signature& s =
          sigs[static_cast<std::uint32_t>(rng.below(sigs.size()))];
      std::copy(s.bytes.begin(),
                s.bytes.begin() + static_cast<std::ptrdiff_t>(piece_len),
                dirty.begin() + static_cast<std::ptrdiff_t>(off));
    }

    std::printf("rule base %s: %zu signatures, p = %zu, %zu states, %s\n",
                label, sigs.size(), piece_len, flat.state_count(),
                human_bytes(static_cast<double>(flat.memory_bytes())).c_str());
    std::printf("prefilter kernel: %s   segments: 1460 B   payload: %s\n\n",
                pre.kernel_name(),
                human_bytes(static_cast<double>(mb)).c_str());
    std::printf("%-12s | %18s | %18s\n", "kernel", "clean ns/B", "dirty ns/B");
    std::printf("-------------+--------------------+-------------------\n");

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
      rep.metric(prefix + name + ".clean_ns_per_byte", c, "ns/byte");
      rep.metric(prefix + name + ".dirty_ns_per_byte", d, "ns/byte");
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
    const auto exact_fraction = [&](const Bytes& data) {
      std::size_t total = 0;
      for (const ByteView s : segments(data)) {
        wins.clear();
        pre.windows(s, wins);
        for (const match::PrefilterWindow& w : wins) total += w.end - w.begin;
      }
      return static_cast<double>(total) / static_cast<double>(data.size());
    };
    const double clean_frac = exact_fraction(clean);
    const double dirty_frac = exact_fraction(dirty);
    std::printf(
        "\nexact-scan fraction after prefilter: clean %.4f, dirty %.4f\n\n",
        clean_frac, dirty_frac);
    rep.metric(prefix + "prefilter.clean_exact_fraction", clean_frac,
               "fraction");
    rep.metric(prefix + "prefilter.dirty_exact_fraction", dirty_frac,
               "fraction");
  };
  sweep("corpus", corpus, 8, "");
  sweep("bulk", bulk, 16, "bulk.");

  std::printf(
      "expected shape: flat_batch beats flat_dfa on many segments\n"
      "(overlapped row loads). The prefilter clears most clean bytes\n"
      "for the corpus base but only about half for the bulk base, and\n"
      "staged pays off only where the prefilter pass costs less than\n"
      "the DFA walk it saves; on dirty traffic staged degrades toward\n"
      "flat_dfa. The bulk rule base costs more per byte in every DFA\n"
      "kernel: most of its rows do not fit in cache.\n");
  return rep.write() ? 0 : 1;
}
