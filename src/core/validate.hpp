// Configuration validation: the paper's assumptions, as code.
//
// Split-Detect's guarantees are conditional — on piece length vs signature
// lengths, on divert-at-first-anomaly limits, on checksum verification, on
// topology knowledge for TTL chaff. Deployments that silently violate a
// condition get silent detection gaps, so this module audits a
// (signature set, config) pair and reports every violated or weakened
// assumption with its consequence. `examples/config_doctor.cpp` wraps it
// as a CLI.
#pragma once

#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/signature.hpp"

namespace sdt::core {

enum class Severity : std::uint8_t {
  error,    // construction would throw or detection is broken
  warning,  // a stated guarantee is weakened; consequence in the message
  info,     // sizing facts worth knowing
};

const char* to_string(Severity s);

struct ConfigIssue {
  Severity severity = Severity::info;
  std::string message;
};

struct ConfigReport {
  std::vector<ConfigIssue> issues;

  // Derived facts.
  std::size_t piece_len = 0;
  std::size_t small_segment_threshold = 0;  // 2p-1
  std::size_t min_signature_len = 0;
  std::size_t piece_count = 0;
  std::size_t matcher_bytes = 0;           // fast-path automaton + prefilter
  double est_fast_state_bytes_1m = 0.0;    // provisioned for 1M flows
  double piece_hits_per_mb = -1.0;         // -1 when no sample was given

  bool ok() const {
    for (const auto& i : issues) {
      if (i.severity == Severity::error) return false;
    }
    return true;
  }
  std::size_t count(Severity s) const {
    std::size_t n = 0;
    for (const auto& i : issues) n += i.severity == s ? 1 : 0;
    return n;
  }
};

/// Audit `cfg` against `sigs`. `benign_sample`, when non-empty, enables the
/// chance-piece-hit estimate and the phase-optimization suggestion.
ConfigReport validate_config(const SignatureSet& sigs,
                             const SplitDetectConfig& cfg,
                             ByteView benign_sample = {});

}  // namespace sdt::core
