// E6 — Matcher automaton size: pieces vs whole signatures.
//
// Paper dependency: the fast path stores an automaton over signature
// *pieces*. A natural worry is that splitting (k patterns per rule instead
// of 1) inflates the automaton past what line-rate memory can hold. It
// does not: the pieces tile the signature, so total pattern bytes — and
// hence trie states — match the unsplit rule base. The sweep quantifies
// that in states and in the bytes of the FlatDfa both sides compile to
// (one 1 KiB row per state). Automaton sizes are deterministic for the
// seeded rule base, so no repeat-timing applies here.
#include "bench_util.hpp"
#include "core/splitter.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

using namespace sdt;

namespace {

match::FlatDfa whole_sig_matcher(const core::SignatureSet& sigs) {
  std::vector<Bytes> patterns;
  for (const core::Signature& s : sigs) patterns.push_back(s.bytes);
  return match::FlatDfa(patterns);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opt = bench::Options::parse(argc, argv);
  bench::JsonReport rep("E6_ac_memory",
                        "automaton memory, pieces vs whole signatures", opt);
  bench::banner("E6: automaton memory, pieces vs whole signatures",
                "fast-path matcher must fit in fast memory (SRAM in the "
                "paper's 20 Gbps argument); sweep rule-base size");

  Rng rng(6);
  const std::size_t p = 8;

  std::printf("%6s | %14s %14s | %14s %14s | %10s\n", "#sigs",
              "piece states", "whole states", "piece bytes", "whole bytes",
              "states p/w");
  std::printf("-------+-------------------------------+------------------------"
              "-------+-----------\n");

  const std::vector<std::size_t> sweep =
      opt.quick ? std::vector<std::size_t>{10, 100}
                : std::vector<std::size_t>{10, 50, 100, 250, 500};
  for (const std::size_t n : sweep) {
    // Realistic length spread: 16..120 bytes, random content.
    core::SignatureSet sigs;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t len = 16 + rng.below(105);
      sigs.add("s" + std::to_string(i), ByteView(rng.random_bytes(len)));
    }
    const core::PieceSet ps(sigs, p);
    const match::FlatDfa whole = whole_sig_matcher(sigs);
    const double states_ratio = static_cast<double>(ps.flat().state_count()) /
                                static_cast<double>(whole.state_count());

    std::printf("%6zu | %14zu %14zu | %14s %14s | %10.3f\n", n,
                ps.flat().state_count(), whole.state_count(),
                human_bytes(static_cast<double>(ps.memory_bytes())).c_str(),
                human_bytes(static_cast<double>(whole.memory_bytes())).c_str(),
                states_ratio);
    char key[32];
    std::snprintf(key, sizeof key, "sigs%zu", n);
    rep.metric(std::string(key) + ".pieces_bytes",
               static_cast<double>(ps.memory_bytes()), "bytes");
    rep.metric(std::string(key) + ".whole_bytes",
               static_cast<double>(whole.memory_bytes()), "bytes");
    rep.metric(std::string(key) + ".pieces_over_whole_states", states_ratio,
               "ratio");
  }

  std::printf(
      "\nexpected shape: piece and whole-signature automata are the same\n"
      "size class at every rule-base size (splitting is memory-neutral,\n"
      "because pieces tile the signatures); piece bytes also carry the\n"
      "8 KiB prefilter and the pattern -> (signature, offset) mapping.\n");
  return rep.write() ? 0 : 1;
}
