// The Split-Detect fast path — the second half of the paper's contribution.
//
// Per packet it does only three cheap things:
//   1. one flow-table lookup into a *16-byte* per-flow record,
//   2. a stateless Aho-Corasick scan of the packet payload for signature
//      pieces (the automaton restarts at the root every packet — no
//      cross-packet matcher state, hence no reassembly),
//   3. constant-time anomaly checks (segment size, expected sequence
//      number, fragment bit).
// Any piece hit or anomaly diverts the flow to the slow path.
//
// The FIN exemption: the final data segment of a direction is legitimately
// small, so a small segment is held as *pending* and only becomes an
// anomaly if more data follows it (a bare FIN absolves it). The detection
// theorem survives this: if the pending small segment completed a signature
// delivery, some earlier or current packet must already have contained a
// whole piece (see the case analysis in tests/core/theorem_test.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/compiled_ruleset.hpp"
#include "core/splitter.hpp"
#include "core/verdict.hpp"
#include "flow/flow_table.hpp"
#include "net/packet.hpp"

namespace sdt::core {

struct FastPathConfig {
  /// Piece length p. Signatures must all be >= 2p bytes.
  std::size_t piece_len = 8;
  /// Segments with 0 < payload < min_payload are small-segment anomalies.
  /// 0 means "derive 2p-1 from piece_len" (the theorem's threshold).
  std::size_t min_payload = 0;
  /// Number of small-segment anomalies tolerated before diversion. The
  /// provable-detection configuration is 1.
  std::uint8_t small_segment_limit = 1;
  /// Number of sequence anomalies tolerated before diversion. Provable
  /// configuration is 1.
  std::uint8_t ooo_limit = 1;
  /// Forgive a small data segment immediately followed by that direction's
  /// FIN (the common benign end-of-stream shape). Safe per the theorem.
  bool fin_exempts_last_small = true;
  /// Verify TCP/UDP checksums and ignore failures entirely: a segment the
  /// receiver will drop must not influence IPS state (the classic
  /// bad-checksum insertion attack). Costs one pass over the payload.
  bool verify_checksums = true;
  /// When non-zero, ignore segments whose TTL cannot reach the protected
  /// hosts (the TTL insertion attack). Requires knowing the topology —
  /// 0 disables, leaving those decoys to the conflict alert instead.
  std::uint8_t min_ttl = 0;
  std::size_t max_flows = 1 << 20;
  std::uint64_t flow_idle_timeout_usec = 60ull * 1000 * 1000;
  /// Once both directions' FINs (or a sequence-valid RST) are seen, the
  /// 16-byte record lingers only this long instead of the idle timeout —
  /// the conntrack-style teardown that makes 1M-flow churn a steady state.
  /// Diverted flows are exempt: their record keeps routing packets to the
  /// slow path for the full idle timeout.
  std::uint64_t fin_linger_usec = 5ull * 1000 * 1000;
  /// Gate the exact piece scan behind the SIMD 2-byte-prefix prefilter.
  /// Verdict-identical either way — the fuzzer crosschecks it — this is
  /// purely a speed knob.
  bool use_prefilter = true;
  /// Let the prefilter disable itself when observed traffic defeats it.
  /// Textual payloads against textual piece prefixes put candidate windows
  /// on most payloads, and then staging costs more than handing whole
  /// payloads to the batched DFA. The governor meters the fraction of
  /// scanned bytes the prefilter fails to clear over a short epoch and,
  /// when it exceeds 1/8, routes the next stretch of payloads straight to
  /// the DFA before probing again. Verdicts are identical in every mode;
  /// only prefilter_* stats depend on the traffic. Ignored unless
  /// use_prefilter is set.
  bool prefilter_adaptive = true;
  /// TEST-ONLY: disable the small-segment anomaly check entirely, breaking
  /// the detection theorem on purpose. Exists so the differential fuzzer
  /// (tools/sdt_fuzz --inject-bug) can prove its oracle and shrinker catch
  /// a real engine defect; never set this in a deployment.
  bool testonly_break_small_segment_check = false;
  /// Optional sample of representative benign payload. When non-empty, the
  /// splitter picks, per signature, the tiling phase whose pieces occur
  /// least often in this sample — cutting chance-piece-hit diversions (the
  /// paper's rare-piece refinement; see optimized_piece_offsets).
  Bytes piece_phase_sample;

  std::size_t effective_min_payload() const {
    return min_payload != 0 ? min_payload : 2 * piece_len - 1;
  }
};

/// The entire per-flow fast-path state. The paper's storage claim rests on
/// this being an order of magnitude smaller than reassembly state.
struct FastFlowState {
  std::uint32_t next_seq[2] = {0, 0};  // expected next seq per direction
  std::uint8_t have_seq = 0;           // bit d: next_seq[d] valid
  std::uint8_t pending_small = 0;      // bit d: unforgiven small segment
  std::uint8_t small_count[2] = {0, 0};
  std::uint8_t ooo_count[2] = {0, 0};
  std::uint8_t diverted = 0;
  std::uint8_t fin_seen = 0;  // bit d: FIN observed in direction d
};
static_assert(sizeof(FastFlowState) == 16,
              "fast-path flow record must stay 16 bytes");

struct FastPathStats {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t bytes_scanned = 0;
  std::uint64_t tcp_segments = 0;
  std::uint64_t udp_datagrams = 0;
  std::uint64_t flows_seen = 0;
  std::uint64_t flows_diverted = 0;
  std::uint64_t piece_hits = 0;
  std::uint64_t small_segment_anomalies = 0;
  std::uint64_t ooo_anomalies = 0;
  std::uint64_t fragment_diverts = 0;
  std::uint64_t bad_packets = 0;
  std::uint64_t bad_checksum_ignored = 0;
  std::uint64_t low_ttl_ignored = 0;
  std::uint64_t urgent_diverts = 0;
  std::uint64_t diverted_packets = 0;  // packets of already-diverted flows
  /// Prefilter staging: payloads cleared without touching the automaton,
  /// payloads with >= 1 candidate window, and the bytes the exact DFA was
  /// actually handed (sum of candidate-window sizes).
  std::uint64_t prefilter_pass = 0;
  std::uint64_t prefilter_hit = 0;
  std::uint64_t prefilter_exact_bytes = 0;
  /// Payloads the adaptive governor routed straight to the DFA because the
  /// prefilter was not clearing enough bytes on recent traffic.
  std::uint64_t prefilter_bypassed = 0;
  std::uint64_t batch_packets = 0;  // packets entering via process_batch
};

/// The fast path's decision for one packet.
struct FastDecision {
  Action action = Action::forward;
  DivertReason reason = DivertReason::none;
  /// Set when this packet newly diverts a TCP flow: what the slow path
  /// needs to adopt it (flow key, per-direction expected sequence bases,
  /// and how many signature-prefix bytes may have leaked past the fast
  /// path in each direction — p-1 via a clean edge packet, plus 2p-2 more
  /// only if a small segment was forwarded under the FIN exemption).
  struct Takeover {
    flow::FlowKey key;
    std::optional<std::uint32_t> base_seq[2];
    std::uint16_t prefix_leak[2] = {0, 0};
  };
  std::optional<Takeover> takeover;
};

class FastPath {
 public:
  /// Compile-on-construct convenience: copies `sigs` into a private
  /// version-0 artifact shaped by the config's piece parameters.
  FastPath(const SignatureSet& sigs, FastPathConfig cfg = {});
  /// Share an already-compiled artifact (the hot-reload shape). The handle
  /// must carry a piece database whose piece length matches
  /// cfg.piece_len — the config's anomaly thresholds (2p-1) and the
  /// artifact's tiling must agree or the detection theorem breaks. Throws
  /// InvalidArgument otherwise.
  explicit FastPath(RuleSetHandle rules, FastPathConfig cfg = {});

  /// Adopt a new rule-set version. Safe at any packet boundary: the
  /// fast-path scan is stateless per packet (the point of the paper), and
  /// FastFlowState holds no automaton state, so no flow pinning is needed
  /// here. Same piece-length validation as the constructor.
  void swap_ruleset(RuleSetHandle rules);
  std::uint64_t ruleset_version() const { return rules_->version(); }
  const RuleSetHandle& ruleset() const { return rules_; }

  /// Classify one packet. Never alerts by itself (TCP alerts come from the
  /// slow path after diversion; UDP piece hits divert the datagram so the
  /// slow path can run the full-signature match).
  FastDecision process(const net::PacketView& pv, std::uint64_t now_usec);

  /// Batched classification: out[i] ends up exactly what
  /// process(pvs[i], now_usec[i]) would return, called in order — but
  /// flow-record prefetch, checksum verification and the piece scan are
  /// hoisted ahead of the per-packet state machine, and candidate windows
  /// from the whole batch walk the flat DFA in lockstep
  /// (FlatDfa::contains_any_batch). Speculative work for packets later
  /// found diverted is discarded, never counted. Stats parity with the
  /// sequential path is exact with prefilter_adaptive=false; with the
  /// adaptive governor the prefilter_* split (pass/hit/bypassed) may lag
  /// sequential by up to one chunk around a mode flip — pin the governor
  /// off when exact telemetry parity matters. Verdicts never differ.
  void process_batch(const net::PacketView* pvs, const std::uint64_t* now_usec,
                     std::size_t n, FastDecision* out);

  /// Pin a flow to the slow path from outside the per-packet loop (the
  /// engine calls this when IP defragmentation reveals which flow has been
  /// fragmenting). Returns the takeover info the slow path needs; the
  /// per-direction bases reflect what the fast path has forwarded so far.
  FastDecision::Takeover force_divert(const flow::FlowKey& key,
                                      std::uint64_t now_usec);

  /// Timing-wheel housekeeping: expires idle flows (idle timeout) and
  /// closed flows (FIN/RST linger). O(due flows), not O(table).
  void expire(std::uint64_t now_usec) { table_.expire_due(now_usec); }

  const FastPathStats& stats() const { return stats_; }
  const FastPathConfig& config() const { return cfg_; }
  const PieceSet& pieces() const { return rules_->pieces(); }
  std::size_t flows() const { return table_.size(); }

  /// Per-flow state footprint (table only — the automaton is shared).
  std::size_t flow_state_bytes() const { return table_.memory_bytes(); }
  std::size_t memory_bytes() const {
    return flow_state_bytes() + rules_->pieces().memory_bytes();
  }

 private:
  /// Work hoisted out of the per-packet state machine by process_batch.
  /// Fields start "unknown" (-1); process_one computes inline whatever was
  /// not precomputed, and stats are charged only where a value is consumed
  /// — which is what keeps batch and per-packet stats identical.
  struct Prescan {
    std::int8_t checksum = -1;   // -1 unknown, 0 bad, 1 ok
    std::int8_t hit = -1;        // -1 unknown, else piece-scan verdict
    std::uint8_t pre_pass = 0;   // prefilter cleared the payload
    std::uint8_t pre_used = 0;   // prefilter produced candidate windows
    std::uint8_t pre_bypass = 0; // governor sent the payload straight to DFA
    std::uint32_t exact_bytes = 0;
  };
  static constexpr std::size_t kBatchChunk = 32;
  /// Governor epoch: staged payloads sampled before each keep/bypass
  /// decision, and payloads scanned unstaged before the next probe.
  static constexpr std::uint32_t kGovProbe = 64;
  static constexpr std::uint32_t kGovBypass = 4096;

  FastDecision divert(FastFlowState& st, const flow::FlowRef& ref,
                      DivertReason reason);
  FastDecision process_one(const net::PacketView& pv, std::uint64_t now_usec,
                           const Prescan* pre);
  void process_chunk(const net::PacketView* pvs, const std::uint64_t* now_usec,
                     std::size_t n, FastDecision* out);
  /// Piece-scan one payload (prefilter staging when enabled), consuming a
  /// precomputed verdict when `pre` carries one. Charges scan stats.
  bool scan_payload(ByteView payload, const Prescan* pre);
  Prescan compute_scan(ByteView payload) const;

  /// Governor read side: should the next payload be staged through the
  /// prefilter? (Callers have already checked use_prefilter + kernels.)
  bool staged_wanted() const {
    return !cfg_.prefilter_adaptive || gov_bypass_left_ == 0;
  }
  /// Governor write side, fed at consumption time with each staged
  /// payload's size and how many of its bytes the prefilter failed to
  /// clear. Flips to bypass when an epoch leaves > 1/8 of bytes uncleared.
  void gov_note_staged(std::size_t payload_bytes, std::uint32_t exact_bytes) {
    if (!cfg_.prefilter_adaptive) return;
    gov_bytes_ += payload_bytes;
    gov_exact_ += exact_bytes;
    if (--gov_probe_left_ == 0) {
      if (gov_exact_ * 8 > gov_bytes_) gov_bypass_left_ = kGovBypass;
      gov_probe_left_ = kGovProbe;
      gov_bytes_ = 0;
      gov_exact_ = 0;
    }
  }

  FastPathConfig cfg_;
  FastPathStats stats_;
  // Prefilter governor (see FastPathConfig::prefilter_adaptive). Decisions
  // are read at staging time and fed at consumption time, so the batch
  // path may lag the sequential path by up to one chunk around a mode
  // flip; verdicts are unaffected.
  std::uint32_t gov_probe_left_ = kGovProbe;
  std::uint32_t gov_bypass_left_ = 0;
  std::uint64_t gov_bytes_ = 0;
  std::uint64_t gov_exact_ = 0;
  /// The piece database the per-packet scan runs against (never null,
  /// always has_pieces()). Swapped wholesale at packet boundaries.
  RuleSetHandle rules_;
  flow::FlowTable<FastFlowState> table_;
  // Scratch for prefilter windows and batch gather/scatter (single-threaded
  // per lane; reused to keep the hot path allocation-free).
  mutable std::vector<match::PrefilterWindow> windows_;
  std::vector<ByteView> batch_wins_;
  std::vector<std::uint32_t> batch_owner_;
  std::vector<std::uint8_t> batch_hit_;
};

}  // namespace sdt::core
