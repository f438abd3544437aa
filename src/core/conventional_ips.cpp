#include "core/conventional_ips.hpp"

#include <algorithm>
#include <cstring>

#include "net/checksum.hpp"
#include "util/error.hpp"

namespace sdt::core {

// Default options: piece_len 0, as this engine never touches the piece
// database.
ConventionalIps::ConventionalIps(const SignatureSet& sigs,
                                 ConventionalIpsConfig cfg)
    : ConventionalIps(compile_ruleset(sigs, CompileOptions{}), cfg) {}

ConventionalIps::ConventionalIps(RuleSetHandle rules, ConventionalIpsConfig cfg)
    : cfg_(cfg), rules_(std::move(rules)), defrag_(cfg.defrag),
      table_({.max_flows = cfg.max_flows,
              .idle_timeout_usec = cfg.flow_idle_timeout_usec}) {
  if (!rules_) throw InvalidArgument("ConventionalIps: null rule-set handle");
  const auto reasm_cfg = cfg_.reasm;
  table_.set_value_factory([reasm_cfg] { return ConnState(reasm_cfg); });
}

void ConventionalIps::swap_ruleset(RuleSetHandle rules) {
  if (!rules) throw InvalidArgument("ConventionalIps: null rule-set handle");
  rules_ = std::move(rules);
}

ConventionalIps::ConnState& ConventionalIps::flow_state(
    const flow::FlowKey& key, std::uint64_t now_usec) {
  bool created = false;
  ConnState& cs = table_.get_or_create(key, now_usec, &created);
  if (created) {
    ++stats_.flows_seen;
    cs.rules = rules_;  // pin: this flow matches under today's version
  }
  return cs;
}

std::size_t ConventionalIps::process(const net::PacketView& pv,
                                     std::uint64_t now_usec,
                                     std::vector<Alert>& alerts) {
  const std::size_t before = alerts.size();
  ++stats_.packets;
  stats_.bytes += pv.frame.size();

  if (pv.is_fragment()) {
    if (auto datagram = defrag_.add(pv, now_usec)) {
      const net::PacketView whole = net::PacketView::parse_l3(*datagram);
      // Reprocess the rebuilt datagram (it is no longer a fragment).
      // Bytes were already counted for the fragments themselves.
      --stats_.packets;
      stats_.bytes -= whole.frame.size();
      process(whole, now_usec, alerts);
    }
    return alerts.size() - before;
  }

  if (!pv.ok()) {
    ++stats_.bad_packets;
    return 0;
  }

  // Insertion-attack filters (mirrors the fast path; see fast_path.cpp).
  if (cfg_.min_ttl != 0 && pv.ip_ttl() < cfg_.min_ttl) {
    ++stats_.low_ttl_ignored;
    return 0;
  }
  if (cfg_.verify_checksums) {
    if (net::transport_checksum(pv) != 0) {
      ++stats_.bad_checksum_ignored;
      return 0;
    }
  }

  if (pv.has_tcp) {
    process_tcp(pv, now_usec, alerts);
  } else if (pv.has_udp) {
    process_udp(pv, now_usec, alerts);
  }
  return alerts.size() - before;
}

void ConventionalIps::process_tcp(const net::PacketView& pv,
                                  std::uint64_t now_usec,
                                  std::vector<Alert>& alerts) {
  ++stats_.tcp_segments;
  const flow::FlowRef ref = flow::make_flow_ref(pv);

  if (pv.tcp.urg() && pv.tcp.urgent_pointer() != 0 &&
      !pv.l4_payload.empty()) {
    ++stats_.urgent_segments;
    if (cfg_.alert_on_urgent_data) {
      ConnState& ucs = flow_state(ref.key, now_usec);
      if (!already_alerted(ucs, kUrgentAlertId)) {
        ++stats_.alerts;
        alerts.push_back(
            Alert{ref.key, kUrgentAlertId, now_usec, 0, "normalizer-urgent"});
      }
    }
    // Normalize: continue processing the segment with its data in-band
    // (the most common stack behaviour) after flagging the ambiguity.
  }

  // A bare ACK/RST for a flow we do not track (e.g. the final ACK of a
  // close we already reclaimed) carries no stream bytes: stay stateless.
  if (table_.find(ref.key) == nullptr && pv.l4_payload.empty() &&
      !pv.tcp.syn() && !pv.tcp.fin()) {
    return;
  }

  ConnState& cs = flow_state(ref.key, now_usec);

  const reassembly::SegmentEvent ev =
      cs.conn.deliver(ref.dir, pv.tcp, pv.l4_payload);
  if (ev.out_of_order) ++stats_.out_of_order_segments;
  if (ev.overlap) ++stats_.overlapping_segments;
  if (ev.conflicting_overlap) {
    ++stats_.conflicting_overlaps;
    if (cfg_.alert_on_conflicting_overlap &&
        !already_alerted(cs, kConflictAlertId)) {
      ++stats_.alerts;
      alerts.push_back(Alert{ref.key, kConflictAlertId, now_usec,
                             cs.stream_pos[static_cast<std::size_t>(ref.dir)],
                             "normalizer-conflict"});
    }
  }
  if (ev.retransmission) ++stats_.retransmissions;

  const Bytes chunk = cs.conn.side(ref.dir).read_available();
  if (!chunk.empty()) {
    stats_.reassembled_bytes += chunk.size();
    scan_stream(ref.key, cs, ref.dir, chunk, now_usec, alerts);
  }

  if (cs.conn.closed()) table_.erase(ref.key);
}

void ConventionalIps::process_udp(const net::PacketView& pv,
                                  std::uint64_t now_usec,
                                  std::vector<Alert>& alerts) {
  ++stats_.udp_datagrams;
  stats_.bytes_scanned += pv.l4_payload.size();
  const flow::FlowRef ref = flow::make_flow_ref(pv);
  // Stateless scan: no cross-packet automaton state, so the current
  // version applies (nothing pins a UDP "flow" to an older artifact).
  rules_->full_matcher().scan(
      pv.l4_payload, match::FlatDfa::kRoot, [&](match::FlatDfa::Match m) {
        for (const std::uint32_t sid : rules_->sids_for_pattern(m.pattern_id)) {
          ++stats_.alerts;
          alerts.push_back(Alert{ref.key, sid, now_usec, m.end_offset, "udp"});
        }
      });
}

void ConventionalIps::scan_stream(const flow::FlowKey& key, ConnState& cs,
                                  flow::Direction dir, ByteView chunk,
                                  std::uint64_t now_usec,
                                  std::vector<Alert>& alerts) {
  const auto d = static_cast<std::size_t>(dir);
  stats_.bytes_scanned += chunk.size();
  // Match under the flow's pinned version: cursor[d] indexes into that
  // artifact's automaton and stays valid across swap_ruleset.
  const CompiledRuleSet& rules = *cs.rules;
  cs.cursor[d] = rules.full_matcher().scan(
      chunk, cs.cursor[d], [&](match::FlatDfa::Match m) {
        for (const std::uint32_t sid : rules.sids_for_pattern(m.pattern_id)) {
          if (already_alerted(cs, sid)) continue;
          ++stats_.alerts;
          alerts.push_back(Alert{key, sid, now_usec,
                                 cs.stream_pos[d] + m.end_offset, "slow-path"});
        }
      });
  cs.stream_pos[d] += chunk.size();

  if (cs.adopted && !cs.suffix_done[d]) {
    Bytes& head = cs.head[d];
    head.insert(head.end(), chunk.begin(), chunk.end());
    anchored_suffix_check(key, cs, dir, now_usec, alerts);
    if (head.size() >= rules.signatures().max_length()) {
      cs.suffix_done[d] = true;
      head.clear();
      head.shrink_to_fit();
    }
  }
}

void ConventionalIps::anchored_suffix_check(const flow::FlowKey& key,
                                            ConnState& cs, flow::Direction dir,
                                            std::uint64_t now_usec,
                                            std::vector<Alert>& alerts) {
  const auto d = static_cast<std::size_t>(dir);
  const Bytes& head = cs.head[d];
  const std::size_t slack =
      cs.suffix_slack[d] != 0
          ? std::min<std::size_t>(cs.suffix_slack[d], cfg_.takeover_slack)
          : cfg_.takeover_slack;
  for (const Signature& s : cs.rules->signatures()) {
    const std::size_t L = s.bytes.size();
    if (L < cfg_.min_suffix_len) continue;
    const std::size_t max_missing =
        std::min(slack, L - cfg_.min_suffix_len);
    for (std::size_t j = 1; j <= max_missing; ++j) {
      const std::size_t suffix_len = L - j;
      if (head.size() < suffix_len) continue;
      if (std::memcmp(head.data(), s.bytes.data() + j, suffix_len) == 0) {
        if (!already_alerted(cs, s.id)) {
          ++stats_.alerts;
          alerts.push_back(
              Alert{key, s.id, now_usec, suffix_len, "takeover-suffix"});
        }
        break;
      }
    }
  }
}

bool ConventionalIps::already_alerted(ConnState& cs, std::uint32_t sig_id) {
  if (std::find(cs.alerted.begin(), cs.alerted.end(), sig_id) !=
      cs.alerted.end()) {
    return true;
  }
  cs.alerted.push_back(sig_id);
  return false;
}

void ConventionalIps::adopt_flow(
    const flow::FlowKey& key,
    const std::optional<std::uint32_t> (&base_seq)[2],
    std::uint64_t now_usec, const std::uint16_t (&prefix_leak)[2]) {
  ConnState& cs = flow_state(key, now_usec);
  cs.adopted = true;
  for (std::size_t d = 0; d < 2; ++d) {
    // First pin wins: re-adoption (e.g. a second fragment completing after
    // the flow was already taken over) must not move an established origin.
    auto& side = cs.conn.side(static_cast<flow::Direction>(d));
    if (base_seq[d] && !side.started()) side.set_base(*base_seq[d]);
    if (cs.suffix_slack[d] == 0) cs.suffix_slack[d] = prefix_leak[d];
  }
}

void ConventionalIps::expire(std::uint64_t now_usec) {
  table_.expire_due(now_usec);
  defrag_.expire(now_usec);
}

bool ConventionalIps::erase_flow(const flow::FlowKey& key) {
  return table_.erase(key);
}

std::size_t ConventionalIps::memory_bytes() const {
  return flow_state_bytes() + rules_->full_matcher().memory_bytes();
}

std::size_t ConventionalIps::flow_state_bytes() const {
  std::size_t n = table_.memory_bytes() + defrag_.memory_bytes();
  table_.for_each([&n](const flow::FlowKey&, const ConnState& cs) {
    n += cs.conn.memory_bytes() - sizeof(cs.conn);  // slab already counts sizeof
    n += cs.head[0].capacity() + cs.head[1].capacity();
    n += cs.alerted.capacity() * sizeof(std::uint32_t);
  });
  return n;
}

}  // namespace sdt::core
