// Trace replay harness: drives any detector over a packet sequence and
// measures processing cost, producing the raw numbers behind the paper's
// "10% of a conventional IPS / feasible at 20 Gbps" claims (E3).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "match/flat_dfa.hpp"
#include "net/packet.hpp"

namespace sdt::sim {

/// Uniform detector interface for replay and the E1 evasion matrix.
class Detector {
 public:
  virtual ~Detector() = default;
  virtual const char* name() const = 0;
  /// Process one packet; return the number of alerts raised by it.
  virtual std::size_t process(const net::PacketView& pv,
                              std::uint64_t now_usec) = 0;
  /// Process `n` packets in arrival order; return alerts raised. The
  /// default loops over process(); detectors with a real batch path
  /// (SplitDetectDetector) override it. Replay feeds batches of
  /// kReplayBatch so every detector pays the same call overhead.
  virtual std::size_t process_batch(const net::PacketView* pvs,
                                    const std::uint64_t* now_usec,
                                    std::size_t n) {
    std::size_t alerts = 0;
    for (std::size_t i = 0; i < n; ++i) alerts += process(pvs[i], now_usec[i]);
    return alerts;
  }
  virtual std::uint64_t total_alerts() const = 0;
  /// Ids of signatures alerted so far (unique).
  virtual std::vector<std::uint32_t> alerted_signatures() const = 0;
  virtual std::size_t flow_state_bytes() const = 0;
};

/// Split-Detect (fast path + slow path).
class SplitDetectDetector final : public Detector {
 public:
  SplitDetectDetector(const core::SignatureSet& sigs,
                      core::SplitDetectConfig cfg = {})
      : engine_(sigs, cfg) {}

  const char* name() const override { return "split-detect"; }
  std::size_t process(const net::PacketView& pv,
                      std::uint64_t now_usec) override {
    const std::size_t before = alerts_.size();
    engine_.process(pv, now_usec, alerts_);
    return alerts_.size() - before;
  }
  std::size_t process_batch(const net::PacketView* pvs,
                            const std::uint64_t* now_usec,
                            std::size_t n) override {
    const std::size_t before = alerts_.size();
    engine_.process_batch(pvs, now_usec, n, alerts_);
    return alerts_.size() - before;
  }
  std::uint64_t total_alerts() const override { return alerts_.size(); }
  std::vector<std::uint32_t> alerted_signatures() const override;
  std::size_t flow_state_bytes() const override {
    return engine_.flow_state_bytes();
  }
  core::SplitDetectEngine& engine() { return engine_; }
  const std::vector<core::Alert>& alerts() const { return alerts_; }

 private:
  core::SplitDetectEngine engine_;
  std::vector<core::Alert> alerts_;
};

/// The conventional reassembling IPS baseline.
class ConventionalDetector final : public Detector {
 public:
  ConventionalDetector(const core::SignatureSet& sigs,
                       core::ConventionalIpsConfig cfg = {})
      : ips_(sigs, cfg) {}

  const char* name() const override { return "conventional-ips"; }
  std::size_t process(const net::PacketView& pv,
                      std::uint64_t now_usec) override {
    return ips_.process(pv, now_usec, alerts_);
  }
  std::uint64_t total_alerts() const override { return alerts_.size(); }
  std::vector<std::uint32_t> alerted_signatures() const override;
  std::size_t flow_state_bytes() const override {
    return ips_.flow_state_bytes();
  }
  core::ConventionalIps& ips() { return ips_; }
  const std::vector<core::Alert>& alerts() const { return alerts_; }

 private:
  core::ConventionalIps ips_;
  std::vector<core::Alert> alerts_;
};

/// The strawman Ptacek-Newsham attacks defeat: whole-signature matching on
/// each packet payload independently, no flow state at all.
class NaivePerPacketDetector final : public Detector {
 public:
  explicit NaivePerPacketDetector(const core::SignatureSet& sigs);

  const char* name() const override { return "naive-per-packet"; }
  std::size_t process(const net::PacketView& pv,
                      std::uint64_t now_usec) override;
  std::uint64_t total_alerts() const override { return alerts_; }
  std::vector<std::uint32_t> alerted_signatures() const override;
  std::size_t flow_state_bytes() const override { return 0; }

 private:
  match::FlatDfa dfa_;
  std::uint64_t alerts_ = 0;
  std::vector<bool> seen_;
};

/// Replay measurement.
struct ReplayResult {
  std::string detector;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t alerts = 0;
  std::uint64_t wall_ns = 0;
  std::size_t flow_state_bytes = 0;

  double ns_per_packet() const {
    return packets ? static_cast<double>(wall_ns) / static_cast<double>(packets)
                   : 0.0;
  }
  double ns_per_byte() const {
    return bytes ? static_cast<double>(wall_ns) / static_cast<double>(bytes)
                 : 0.0;
  }
  /// Sustainable line rate for one core at the measured per-byte cost.
  double gbps_per_core() const {
    return wall_ns ? static_cast<double>(bytes) * 8.0 /
                         static_cast<double>(wall_ns)
                   : 0.0;
  }
};

/// Packets handed to Detector::process_batch per call — the batch a real
/// ingest path (NIC burst, ring drain) would deliver. 32 matches a typical
/// RX burst (DPDK/AF_XDP defaults) and keeps the fast path's 8-lane DFA
/// batch fed even when only a fraction of packets carry scannable payload.
inline constexpr std::size_t kReplayBatch = 32;

/// Drive `det` over `pkts` (raw IPv4 datagrams) in kReplayBatch chunks and
/// time it.
ReplayResult replay(Detector& det, const std::vector<net::Packet>& pkts,
                    net::LinkType lt = net::LinkType::raw_ipv4);

}  // namespace sdt::sim
