// The benchmark's own oracle: judges what the box released against the
// generator's metadata, with its own pcap reader, IPv4 defragmenter and
// in-order TCP reassembler — no program code decides what is correct.
//
// Checks, each reported by name when it fails:
//   release_once     every offered packet released exactly once
//   flow_order       releases within a flow come in ticket (capture) order
//   ledger           the sink's count of each release kind equals the
//                    router's ledger (two independent totals); frame sizes
//                    match what was offered
//   conservation     captured == accepted + dropped + diverted + shed, and
//                    captured == packets offered
//   attack_alert     every attack flow alerts with its own signature id
//   signature_leak   the bytes of an attack flow the box forwarded, put
//                    back in order from stream offset 0, never contain the
//                    whole signature
//   benign_alert     a benign flow alerts only if its own payload contains
//                    the alerted signature
//   benign_drop      a benign packet is dropped only in such a flow
// Flush probes (flow_flood) are not checks: a probe whose completing packet
// is forwarded without an alert is one failed operation.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/verdict.hpp"
#include "net/packet.hpp"
#include "wire/egress.hpp"
#include "wire/verdict_router.hpp"
#include "workload.hpp"

namespace inlinebench {

std::uint64_t now_ns();

/// The benchmark-owned egress: stamps every release with its time and
/// records its verdict by ticket (tickets are pass-relative packet indices).
class StampSink : public sdt::wire::VerdictSink {
 public:
  static constexpr std::uint8_t kUnreleased = 0xff;

  explicit StampSink(const Workload& w) : w_(w) { reset(); }

  void reset();
  void emit(const sdt::net::Packet& pkt, sdt::wire::WireVerdict v) override;

  std::vector<std::uint8_t> verdict;     ///< by ticket; kUnreleased if none
  std::vector<std::uint64_t> release_ns;  ///< by ticket
  std::vector<std::uint32_t> order;      ///< tickets in release order
  std::uint64_t counts[5] = {};          ///< by WireVerdict
  std::uint64_t bad_frames = 0;  ///< unknown ticket or frame size mismatch

 private:
  const Workload& w_;
};

struct Judgement {
  std::vector<std::string> failures;  ///< "<check>: detail", one per check
  std::uint64_t probe_failures = 0;

  bool correct() const { return failures.empty(); }
  bool failed(const std::string& check) const;
};

/// Per-workload index over the generated pass: frames out of the pcap image
/// and each flow's packets, built once before timing.
class Oracle {
 public:
  explicit Oracle(const Workload& w);

  Judgement judge(const StampSink& sink, const sdt::wire::WireStats& ledger,
                  const std::vector<sdt::core::Alert>& alerts) const;

  /// Flow id of an alert's flow, or -1 when it names no generated flow.
  std::int64_t flow_of_alert(const sdt::core::Alert& a) const;

 private:
  /// Client→server (dir 0) or server→client (dir 1) bytes of `flow` from
  /// the given packets, placed by sequence number; returns the contiguous
  /// prefix from stream offset 0.
  Bytes in_order_stream(std::uint32_t flow, int dir,
                        const std::vector<std::uint32_t>& pkts) const;

  const Workload& w_;
  std::vector<ByteView> frames_;
  std::vector<std::vector<std::uint32_t>> pkts_of_flow_;
  std::unordered_map<std::uint64_t, std::uint32_t> flow_by_key_;
};

}  // namespace inlinebench
