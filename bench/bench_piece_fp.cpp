// E5 — Piece false-positive match rate in benign payload vs. piece length.
//
// Paper dependency: pieces must be long enough that benign bytes rarely
// contain one (each chance hit costs a slow-path diversion), yet short
// enough that signatures can be split at all (L >= 2p). This measures the
// raw per-byte piece hit rate on the two content classes the traffic
// generator produces. Hit counts are deterministic for the seeded
// payloads, so no repeat-timing applies here.
#include "bench_util.hpp"
#include "core/splitter.hpp"
#include "util/rng.hpp"

using namespace sdt;

namespace {

double hits_per_mb(const core::PieceSet& ps, ByteView payload) {
  std::size_t hits = 0;
  ps.flat().scan(payload, match::FlatDfa::kRoot,
                 [&](match::FlatDfa::Match) { ++hits; });
  return static_cast<double>(hits) * 1e6 / static_cast<double>(payload.size());
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opt = bench::Options::parse(argc, argv);
  bench::JsonReport rep("E5_piece_fp",
                        "piece false-positive rate vs piece length", opt);
  bench::banner("E5: piece false-positive rate vs piece length",
                "piece hits in benign traffic divert flows; the rate must "
                "fall fast with p for the scheme to be deployable");

  const std::size_t mb = opt.sized(4, 1);
  Rng rng(5);
  const Bytes binary = evasion::generate_payload(rng, mb << 20, 0.0);
  Bytes text;
  while (text.size() < (mb << 20)) {
    const Bytes chunk = evasion::generate_payload(rng, 64 << 10, 1.0);
    text.insert(text.end(), chunk.begin(), chunk.end());
  }

  std::printf("%4s %8s | %18s %18s\n", "p", "#pieces", "hits/MB (binary)",
              "hits/MB (text)");
  std::printf("--------------+---------------------------------------\n");

  for (const std::size_t p : {2u, 3u, 4u, 6u, 8u, 12u, 16u}) {
    const core::SignatureSet sigs = evasion::default_corpus(2 * p);
    const core::PieceSet ps(sigs, p);
    const double hb = hits_per_mb(ps, binary);
    const double ht = hits_per_mb(ps, text);
    std::printf("%4zu %8zu | %18.2f %18.2f\n", p, ps.piece_count(), hb, ht);
    char key[48];
    std::snprintf(key, sizeof key, "p%zu", p);
    rep.metric(std::string(key) + ".hits_per_mb_binary", hb, "hits/MB");
    rep.metric(std::string(key) + ".hits_per_mb_text", ht, "hits/MB");
  }

  std::printf(
      "\nexpected shape: binary hit rate collapses roughly 256x per extra\n"
      "byte of p; text payload keeps a residual rate where pieces contain\n"
      "common protocol substrings (e.g. ' HTTP/1.'), which is the paper's\n"
      "argument for choosing rare pieces when splitting.\n");
  return rep.write() ? 0 : 1;
}
