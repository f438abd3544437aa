// The conventional reassembling-and-normalizing IPS.
//
// Plays two roles in the reproduction:
//   * the *baseline* the paper compares against (full per-flow reassembly +
//     streaming multi-pattern match over normalized streams, state for up
//     to 1M connections), and
//   * Split-Detect's *slow path*, adopting flows the fast path diverts.
//
// Mid-stream takeover rule: when a flow is adopted after diversion, a short
// signature prefix may already have slipped past the fast path inside
// packets it forwarded: at most p-1 bytes via a clean packet overhanging
// the signature start (any longer in-packet prefix contains the first
// piece), plus at most 2p-2 bytes via one small segment held pending under
// the FIN exemption — 3p-3 bytes in total. The slow path therefore also
// checks whether the adopted stream *begins with* a suffix of any signature
// missing at most `takeover_slack` leading bytes. The check is anchored at
// the takeover point, so it adds no false-positive surface downstream.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/compiled_ruleset.hpp"
#include "core/signature.hpp"
#include "core/verdict.hpp"
#include "flow/flow_table.hpp"
#include "match/flat_dfa.hpp"
#include "net/packet.hpp"
#include "reassembly/connection.hpp"
#include "reassembly/ip_defrag.hpp"

namespace sdt::core {

struct ConventionalIpsConfig {
  reassembly::TcpReassemblerConfig reasm;
  reassembly::IpDefragConfig defrag;
  std::size_t max_flows = 1 << 20;
  std::uint64_t flow_idle_timeout_usec = 60ull * 1000 * 1000;
  /// Maximum missing signature prefix tolerated at takeover (Split-Detect
  /// sets this to 3p-3; 0 disables the anchored suffix check). Adoption
  /// can tighten it per flow direction via the fast path's measured leak
  /// bound (see FastDecision::Takeover::prefix_leak).
  std::size_t takeover_slack = 0;
  /// Floor on the anchored-suffix length: candidate suffixes shorter than
  /// this are not reported (a 1-byte "suffix match" is noise, not
  /// detection). Soundness caveat, documented in DESIGN.md: an attacker
  /// exploiting the floor must fit all but (min_suffix_len-1) bytes of a
  /// signature into the leak window, which is only possible when
  /// signatures are shorter than 3p-3 + min_suffix_len — choose p
  /// accordingly (p <= (Lmin - min_suffix_len + 3) / 3 closes it).
  std::size_t min_suffix_len = 4;
  /// Normalizer mode: raise an alert when a flow retransmits a byte range
  /// with *different* content. Two interpretations of one stream is the
  /// root Ptacek-Newsham ambiguity; a consistent normalizer refuses to
  /// let it pass silently. Enabled by Split-Detect for its slow path.
  bool alert_on_conflicting_overlap = false;
  /// Ignore segments whose TCP/UDP checksum fails: the receiver drops
  /// them, so they are insertion-attack chaff (Ptacek-Newsham).
  bool verify_checksums = true;
  /// When non-zero, ignore segments whose TTL is below the protected
  /// hosts' hop distance (TTL insertion attack). 0 disables.
  std::uint8_t min_ttl = 0;
  /// Alert on urgent-mode data segments: whether the urgent byte reaches
  /// the application in-band is stack-dependent, so a normalizer flags it.
  bool alert_on_urgent_data = false;
};

/// Sentinel signature id used for normalizer alerts that are not tied to a
/// rule (e.g. conflicting retransmission).
inline constexpr std::uint32_t kConflictAlertId = 0xffffffffu;
/// Sentinel signature id for urgent-mode ambiguity alerts.
inline constexpr std::uint32_t kUrgentAlertId = 0xfffffffeu;

struct ConventionalIpsStats {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t tcp_segments = 0;
  std::uint64_t udp_datagrams = 0;
  std::uint64_t bad_packets = 0;
  std::uint64_t reassembled_bytes = 0;
  std::uint64_t bytes_scanned = 0;
  std::uint64_t alerts = 0;
  std::uint64_t out_of_order_segments = 0;
  std::uint64_t overlapping_segments = 0;
  std::uint64_t conflicting_overlaps = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t flows_seen = 0;
  std::uint64_t bad_checksum_ignored = 0;
  std::uint64_t low_ttl_ignored = 0;
  std::uint64_t urgent_segments = 0;
};

/// Full reassembling IPS over one interface.
class ConventionalIps {
 public:
  /// Compile-on-construct convenience: copies `sigs` into a private
  /// version-0 artifact (no pieces — this engine never needs them).
  ConventionalIps(const SignatureSet& sigs, ConventionalIpsConfig cfg = {});
  /// Share an already-compiled artifact (the hot-reload shape). Throws
  /// InvalidArgument on a null handle.
  explicit ConventionalIps(RuleSetHandle rules, ConventionalIpsConfig cfg = {});

  /// Adopt a new rule-set version. Existing flows keep matching under the
  /// version they started with (their streaming automaton state indexes
  /// into THAT automaton — mixing versions mid-stream would be memory-
  /// unsafe, not just unsound); new flows and stateless (UDP) scans use
  /// the new version immediately. Single-threaded with process(); the
  /// cross-thread handoff lives in control::RuleSetRegistry.
  void swap_ruleset(RuleSetHandle rules);
  std::uint64_t ruleset_version() const { return rules_->version(); }
  const RuleSetHandle& ruleset() const { return rules_; }

  /// Process one parsed packet (fragments are defragmented internally).
  /// Appends any alerts raised. Returns alert count for this packet.
  std::size_t process(const net::PacketView& pv, std::uint64_t now_usec,
                      std::vector<Alert>& alerts);

  /// Establish per-flow state for a diverted flow before its first diverted
  /// packet arrives. `base_seq[d]`, when set, is the fast path's expected
  /// next sequence number for direction d — stream offset 0 of the adopted
  /// reassembly. `prefix_leak[d]` bounds how many signature-prefix bytes
  /// may have passed the fast path in that direction (tightens the
  /// anchored suffix check); pass {0,0} to fall back to takeover_slack.
  void adopt_flow(const flow::FlowKey& key,
                  const std::optional<std::uint32_t> (&base_seq)[2],
                  std::uint64_t now_usec,
                  const std::uint16_t (&prefix_leak)[2] = kNoLeakBound);

  static constexpr std::uint16_t kNoLeakBound[2] = {0, 0};

  /// Time-based housekeeping (timing-wheel flow expiry + defrag timeout).
  void expire(std::uint64_t now_usec);

  /// Budget hook for the slow-path admission controller: drop one flow's
  /// reassembly state outright (a shed flow must stop holding buffers the
  /// moment the admission verdict lands, not at its idle timeout). Returns
  /// true when state existed.
  bool erase_flow(const flow::FlowKey& key);

  const ConventionalIpsStats& stats() const { return stats_; }
  std::size_t flows() const { return table_.size(); }

  /// Total engine memory: flow table + all per-flow reassembly buffers +
  /// defrag contexts + the signature automaton.
  std::size_t memory_bytes() const;
  /// Memory excluding the (shared, per-box) automaton: the per-flow state
  /// the E2 experiment measures.
  std::size_t flow_state_bytes() const;

 private:
  struct ConnState {
    reassembly::TcpConnection conn;
    match::FlatDfa::Entry cursor[2] = {match::FlatDfa::kRoot,
                                       match::FlatDfa::kRoot};
    std::uint64_t stream_pos[2] = {0, 0};
    bool adopted = false;
    bool suffix_done[2] = {false, false};
    std::uint16_t suffix_slack[2] = {0, 0};  // per-direction leak bound
    Bytes head[2];  // adopted flows: first bytes for the anchored check
    std::vector<std::uint32_t> alerted;  // signature ids already raised
    /// The rule-set version this flow is pinned to. cursor[] are state
    /// entries of THIS artifact's automaton — the pin is what keeps them
    /// valid across swap_ruleset, and the shared_ptr is what keeps the old
    /// automaton alive until the last pinned flow expires.
    RuleSetHandle rules;

    explicit ConnState(const reassembly::TcpReassemblerConfig& cfg)
        : conn(cfg) {}
    ConnState() = default;
  };

  void process_tcp(const net::PacketView& pv, std::uint64_t now_usec,
                   std::vector<Alert>& alerts);
  void process_udp(const net::PacketView& pv, std::uint64_t now_usec,
                   std::vector<Alert>& alerts);
  void scan_stream(const flow::FlowKey& key, ConnState& cs,
                   flow::Direction dir, ByteView chunk, std::uint64_t now_usec,
                   std::vector<Alert>& alerts);
  void anchored_suffix_check(const flow::FlowKey& key, ConnState& cs,
                             flow::Direction dir, std::uint64_t now_usec,
                             std::vector<Alert>& alerts);
  bool already_alerted(ConnState& cs, std::uint32_t sig_id);
  /// get_or_create + version pin for new flows.
  ConnState& flow_state(const flow::FlowKey& key, std::uint64_t now_usec);

  ConventionalIpsConfig cfg_;
  ConventionalIpsStats stats_;
  /// The version new flows pin and stateless scans use (never null).
  RuleSetHandle rules_;
  reassembly::IpDefragmenter defrag_;
  flow::FlowTable<ConnState> table_;
};

}  // namespace sdt::core
