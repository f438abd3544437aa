// Workload generation for the inline-path benchmark.
//
// Every workload is built here, from the benchmark's own seed, before any
// timing: a packet trace serialized into an in-memory pcap image (what the
// box replays through wire::FileSource), plus the generator's metadata the
// oracle judges the box against — which flow each packet belongs to, which
// flows carry which signature, and where each attack completes. The box
// never sees the metadata; the oracle never reads the box's internal state.
//
// Each pass offers exactly `pass_packets` packets whatever the seed: flows
// are forged until the next one would overflow the pass, and the remainder
// is topped up with pure ACKs of one idle connection. So operations
// attempted (packets offered) and the named-fault failures are the same
// share of a run on every seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/signature.hpp"
#include "evasion/flow_forge.hpp"
#include "evasion/transforms.hpp"
#include "util/bytes.hpp"

namespace inlinebench {

using sdt::Bytes;
using sdt::ByteView;

enum class FlowRole : std::uint8_t {
  benign,
  attack,  ///< signature delivered through an evasion; must alert
  probe,   ///< "tiny segments, flood, tail" flow-table flush probe
  filler,  ///< idle connection carrying the top-up ACKs
};

struct FlowMeta {
  sdt::evasion::Endpoints ep;
  FlowRole role = FlowRole::benign;
  /// Signature the flow carries (attack/probe), else -1.
  std::int64_t sig_id = -1;
  sdt::evasion::EvasionKind kind = sdt::evasion::EvasionKind::none;
  /// Probe only: index (within the pass) of the packet that completes the
  /// signature in the delivered stream.
  std::uint32_t completing_packet = 0;
};

struct Workload {
  std::string name;
  sdt::core::SignatureSet sigs;
  std::size_t piece_len = 8;
  /// Deployment-wide fast-path flow budget (divided across lanes).
  std::size_t max_flows = 1 << 20;
  /// Fixed absolute open-loop offered rate, packets per second.
  double offered_pps = 0;
  std::size_t pass_packets = 0;

  Bytes pcap;                          ///< raw-IPv4 pcap image of one pass
  std::vector<std::uint32_t> flow_of;  ///< packet index → flow id
  std::vector<std::uint32_t> frame_len;  ///< packet index → frame bytes
  std::vector<FlowMeta> flows;
  std::uint64_t frame_bytes = 0;

  std::size_t count(FlowRole r) const;
};

/// Names in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// Build `name` from `seed`. Throws std::invalid_argument on an unknown
/// name. The rule base depends on the workload only, never on the seed.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// A reduced evasion_mix (same generator, `pass_packets` packets) for the
/// oracle self-test.
Workload make_small_evasion_mix(std::uint64_t seed, std::size_t pass_packets);

}  // namespace inlinebench
