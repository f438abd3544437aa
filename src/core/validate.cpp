#include "core/validate.hpp"

#include <algorithm>

#include "core/fast_path.hpp"
#include "core/splitter.hpp"

namespace sdt::core {

const char* to_string(Severity s) {
  switch (s) {
    case Severity::error:
      return "ERROR";
    case Severity::warning:
      return "WARNING";
    case Severity::info:
      return "INFO";
  }
  return "?";
}

namespace {

void add(ConfigReport& r, Severity sev, std::string msg) {
  r.issues.push_back(ConfigIssue{sev, std::move(msg)});
}

}  // namespace

ConfigReport validate_config(const SignatureSet& sigs,
                             const SplitDetectConfig& cfg,
                             ByteView benign_sample) {
  ConfigReport r;
  const std::size_t p = cfg.fast.piece_len;
  r.piece_len = p;
  r.small_segment_threshold = cfg.fast.effective_min_payload();

  if (sigs.empty()) {
    add(r, Severity::error, "signature set is empty");
    return r;
  }
  if (p < 2) {
    add(r, Severity::error, "piece_len must be >= 2");
    return r;
  }
  r.min_signature_len = sigs.min_length();

  // --- hard conditions -----------------------------------------------------
  std::size_t too_short = 0;
  std::string example;
  for (const Signature& s : sigs) {
    if (s.bytes.size() < 2 * p) {
      ++too_short;
      if (example.empty()) example = s.name;
    }
  }
  if (too_short > 0) {
    add(r, Severity::error,
        std::to_string(too_short) + " signature(s) shorter than 2p=" +
            std::to_string(2 * p) + " cannot be split (e.g. '" + example +
            "'); lower piece_len or drop them explicitly");
    return r;  // engine construction would throw; later checks meaningless
  }

  // --- weakened-guarantee conditions ---------------------------------------
  if (cfg.fast.small_segment_limit > 1 || cfg.fast.ooo_limit > 1) {
    add(r, Severity::warning,
        "anomaly limits > 1 void the provable-detection configuration: an "
        "attacker gets " +
            std::to_string(std::max<int>(cfg.fast.small_segment_limit,
                                         cfg.fast.ooo_limit) -
                           1) +
            " free anomalies per flow before diversion");
  }
  if (!cfg.fast.verify_checksums) {
    add(r, Severity::warning,
        "checksum verification disabled: bad-checksum insertion decoys will "
        "desynchronize sequence tracking and blind first-arrival matching");
  }
  if (cfg.min_ttl == 0) {
    add(r, Severity::warning,
        "min_ttl unset: TTL-expiring decoys are only caught as "
        "normalizer-conflicts in already-diverted flows; configure the "
        "protected hosts' hop distance to drop them outright");
  }
  const std::size_t needed = 3 * p - 3 + 4;  // default min_suffix_len
  if (sigs.min_length() < needed) {
    add(r, Severity::warning,
        "shortest signature (" + std::to_string(sigs.min_length()) +
            " bytes) is below 3p-3+min_suffix=" + std::to_string(needed) +
            ": the anchored-suffix floor leaves a crafted-leak gap for it "
            "(DESIGN.md, precision refinements); use p <= " +
            std::to_string((sigs.min_length() - 4 + 3) / 3) + " to close it");
  }
  if (r.small_segment_threshold > 64) {
    add(r, Severity::warning,
        "small-segment threshold 2p-1=" +
            std::to_string(r.small_segment_threshold) +
            " reaches deep into benign packet sizes; expect elevated "
            "interactive-flow diversion (bench E4/E7)");
  }

  // --- sizing facts ---------------------------------------------------------
  const PieceSet pieces(sigs, p);
  r.piece_count = pieces.piece_count();
  r.matcher_bytes = pieces.memory_bytes();
  // The fast path's own table (16 B record + key, links and index) sized
  // for 1M flows, as E2 measures it.
  r.est_fast_state_bytes_1m = static_cast<double>(
      flow::FlowTable<FastFlowState>::footprint_bytes(
          {.max_flows = 1'000'000,
           .idle_timeout_usec = cfg.fast.flow_idle_timeout_usec,
           .linger_usec = cfg.fast.fin_linger_usec}));
  add(r, Severity::info,
      std::to_string(sigs.size()) + " signatures -> " +
          std::to_string(r.piece_count) + " pieces; fast-path matcher " +
          std::to_string(r.matcher_bytes / 1024) + " KiB");

  // --- sample-driven estimates ----------------------------------------------
  if (!benign_sample.empty()) {
    std::size_t hits = 0;
    pieces.flat().scan(benign_sample, match::FlatDfa::kRoot,
                       [&](match::FlatDfa::Match) { ++hits; });
    r.piece_hits_per_mb = static_cast<double>(hits) * 1e6 /
                          static_cast<double>(benign_sample.size());
    if (r.piece_hits_per_mb > 10.0) {
      // Would phase optimization help?
      const PieceSet opt(sigs, p, benign_sample);
      std::size_t opt_hits = 0;
      opt.flat().scan(benign_sample, match::FlatDfa::kRoot,
                      [&](match::FlatDfa::Match) { ++opt_hits; });
      if (opt_hits * 5 < hits * 4) {  // >20% improvement
        add(r, Severity::warning,
            "pieces hit benign sample " +
                std::to_string(static_cast<long long>(r.piece_hits_per_mb)) +
                " times/MB; phase-optimized splitting "
                "(fast.piece_phase_sample) would cut that to " +
                std::to_string(static_cast<long long>(
                    static_cast<double>(opt_hits) * 1e6 /
                    static_cast<double>(benign_sample.size()))) +
                "/MB");
      } else {
        add(r, Severity::warning,
            "pieces hit benign sample " +
                std::to_string(static_cast<long long>(r.piece_hits_per_mb)) +
                " times/MB and phase optimization cannot fix it (hot pieces "
                "are edge-anchored); consider a larger piece_len");
      }
    }
  }

  return r;
}

}  // namespace sdt::core
