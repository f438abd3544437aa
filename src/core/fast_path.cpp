#include "core/fast_path.hpp"

#include <algorithm>

#include "net/checksum.hpp"
#include "net/seq.hpp"
#include "util/error.hpp"

namespace sdt::core {

namespace {

void check_compatible(const RuleSetHandle& rules, const FastPathConfig& cfg) {
  if (!rules) throw InvalidArgument("FastPath: null rule-set handle");
  if (!rules->has_pieces()) {
    throw InvalidArgument(
        "FastPath: rule set compiled without a piece database "
        "(CompileOptions::piece_len was 0)");
  }
  if (rules->piece_len() != cfg.piece_len) {
    throw InvalidArgument(
        "FastPath: rule set compiled with piece_len " +
        std::to_string(rules->piece_len()) + " but config expects " +
        std::to_string(cfg.piece_len) +
        " (the 2p-1 anomaly threshold and the tiling must agree)");
  }
}

}  // namespace

FastPath::FastPath(const SignatureSet& sigs, FastPathConfig cfg)
    : FastPath(compile_ruleset(sigs, compile_options(cfg)), cfg) {}

FastPath::FastPath(RuleSetHandle rules, FastPathConfig cfg)
    : cfg_(std::move(cfg)), rules_(std::move(rules)),
      table_({.max_flows = cfg_.max_flows,
              .idle_timeout_usec = cfg_.flow_idle_timeout_usec,
              .linger_usec = cfg_.fin_linger_usec}) {
  check_compatible(rules_, cfg_);
}

void FastPath::swap_ruleset(RuleSetHandle rules) {
  check_compatible(rules, cfg_);
  rules_ = std::move(rules);
}

namespace {

/// Leaked-prefix bound per direction at takeover time. A clean packet
/// overhanging a signature's start can pass at most p-1 of its bytes
/// (more would contain the first piece); one small segment forwarded
/// under the FIN exemption can pass up to 2p-2 more. The direction's
/// small-segment history tells which bound applies.
std::uint16_t leak_bound(const FastFlowState& st, std::size_t d,
                         std::size_t p) {
  const auto dbit = static_cast<std::uint8_t>(1u << d);
  const bool small_leaked =
      (st.pending_small & dbit) != 0 || st.small_count[d] != 0;
  return static_cast<std::uint16_t>(small_leaked ? 3 * p - 3 : p - 1);
}

FastDecision::Takeover make_takeover(const flow::FlowKey& key,
                                     const FastFlowState& st, std::size_t p) {
  FastDecision::Takeover t;
  t.key = key;
  for (std::size_t i = 0; i < 2; ++i) {
    if (st.have_seq & (1u << i)) t.base_seq[i] = st.next_seq[i];
    t.prefix_leak[i] = leak_bound(st, i, p);
  }
  return t;
}

}  // namespace

FastDecision FastPath::divert(FastFlowState& st, const flow::FlowRef& ref,
                              DivertReason reason) {
  FastDecision d;
  d.action = Action::divert;
  d.reason = reason;
  if (st.diverted == 0) {
    st.diverted = 1;
    ++stats_.flows_diverted;
    d.takeover = make_takeover(ref.key, st, cfg_.piece_len);
  }
  return d;
}

FastDecision::Takeover FastPath::force_divert(const flow::FlowKey& key,
                                              std::uint64_t now_usec) {
  FastFlowState& st = table_.get_or_create(key, now_usec);
  const FastDecision::Takeover t = make_takeover(key, st, cfg_.piece_len);
  if (st.diverted == 0) {
    st.diverted = 1;
    ++stats_.flows_diverted;
  }
  return t;
}

FastPath::Prescan FastPath::compute_scan(ByteView payload) const {
  Prescan o;
  const PieceSet& ps = rules_->pieces();
  const bool can_stage = cfg_.use_prefilter && ps.prefilter().usable();
  if (can_stage && !staged_wanted()) {
    o.pre_bypass = 1;
    o.hit = ps.flat().contains_any(payload) ? 1 : 0;
    return o;
  }
  if (can_stage) {
    windows_.clear();
    ps.prefilter().windows(payload, windows_);
    if (windows_.empty()) {
      o.pre_pass = 1;
      o.hit = 0;
      return o;
    }
    o.pre_used = 1;
    o.hit = 0;
    for (const match::PrefilterWindow& w : windows_) {
      o.exact_bytes += w.end - w.begin;
    }
    for (const match::PrefilterWindow& w : windows_) {
      if (ps.flat().contains_any(payload.subspan(w.begin, w.end - w.begin))) {
        o.hit = 1;
        break;
      }
    }
    return o;
  }
  o.hit = ps.flat().contains_any(payload) ? 1 : 0;
  return o;
}

bool FastPath::scan_payload(ByteView payload, const Prescan* pre) {
  stats_.bytes_scanned += payload.size();
  Prescan local;
  if (pre == nullptr || pre->hit < 0) {
    local = compute_scan(payload);
    pre = &local;
  }
  if (pre->pre_pass != 0) {
    ++stats_.prefilter_pass;
    gov_note_staged(payload.size(), 0);
  }
  if (pre->pre_used != 0) {
    ++stats_.prefilter_hit;
    stats_.prefilter_exact_bytes += pre->exact_bytes;
    gov_note_staged(payload.size(), pre->exact_bytes);
  }
  if (pre->pre_bypass != 0) {
    ++stats_.prefilter_bypassed;
    if (gov_bypass_left_ > 0) --gov_bypass_left_;
  }
  return pre->hit == 1;
}

FastDecision FastPath::process(const net::PacketView& pv,
                               std::uint64_t now_usec) {
  return process_one(pv, now_usec, nullptr);
}

void FastPath::process_batch(const net::PacketView* pvs,
                             const std::uint64_t* now_usec, std::size_t n,
                             FastDecision* out) {
  for (std::size_t base = 0; base < n; base += kBatchChunk) {
    const std::size_t m = std::min(kBatchChunk, n - base);
    process_chunk(pvs + base, now_usec + base, m, out + base);
  }
}

void FastPath::process_chunk(const net::PacketView* pvs,
                             const std::uint64_t* now_usec, std::size_t n,
                             FastDecision* out) {
  Prescan pre[kBatchChunk];

  // Pass 1: pull the flow-table bucket lines for every TCP packet toward
  // the cache while the checksum/prefilter passes below give them time to
  // land.
  for (std::size_t i = 0; i < n; ++i) {
    const net::PacketView& pv = pvs[i];
    if (!pv.is_fragment() && pv.ok() && pv.has_tcp) {
      table_.prefetch(flow::make_flow_ref(pv).key);
    }
  }

  // Pass 2: hoist checksum verification and prefilter staging; gather the
  // candidate windows of every scannable payload into one batch. A packet
  // whose flow is already diverted is skipped (its scan would be
  // discarded unconsumed). Nothing here touches stats or flow state —
  // process_one charges everything at the point of consumption.
  batch_wins_.clear();
  batch_owner_.clear();
  const PieceSet& ps = rules_->pieces();
  const bool can_stage = cfg_.use_prefilter && ps.prefilter().usable();
  const bool staged = can_stage && staged_wanted();
  for (std::size_t i = 0; i < n; ++i) {
    const net::PacketView& pv = pvs[i];
    if (pv.is_fragment() || !pv.ok()) continue;
    if (cfg_.min_ttl != 0 && pv.ip_ttl() < cfg_.min_ttl) continue;
    if (cfg_.verify_checksums) {
      const bool ok = net::transport_checksum(pv) == 0;
      pre[i].checksum = ok ? 1 : 0;
      if (!ok) continue;
    }
    const ByteView payload = pv.l4_payload;
    if (pv.has_tcp) {
      const FastFlowState* st = table_.find(flow::make_flow_ref(pv).key);
      if (st != nullptr && st->diverted != 0) continue;
      if (payload.empty()) continue;
    } else if (!pv.has_udp) {
      continue;
    }
    if (staged) {
      windows_.clear();
      ps.prefilter().windows(payload, windows_);
      if (windows_.empty()) {
        pre[i].pre_pass = 1;
        pre[i].hit = 0;
        continue;
      }
      pre[i].pre_used = 1;
      pre[i].hit = 0;
      for (const match::PrefilterWindow& w : windows_) {
        pre[i].exact_bytes += w.end - w.begin;
        batch_wins_.push_back(payload.subspan(w.begin, w.end - w.begin));
        batch_owner_.push_back(static_cast<std::uint32_t>(i));
      }
    } else {
      pre[i].hit = 0;
      pre[i].pre_bypass = can_stage ? 1 : 0;
      batch_wins_.push_back(payload);
      batch_owner_.push_back(static_cast<std::uint32_t>(i));
    }
  }

  // Pass 3: one lockstep walk of the flat DFA over every candidate window
  // in the chunk.
  if (!batch_wins_.empty()) {
    batch_hit_.assign(batch_wins_.size(), 0);
    ps.flat().contains_any_batch(batch_wins_.data(), batch_wins_.size(),
                                 batch_hit_.data());
    for (std::size_t j = 0; j < batch_wins_.size(); ++j) {
      if (batch_hit_[j] != 0) pre[batch_owner_[j]].hit = 1;
    }
  }

  // Pass 4: the per-packet state machine, in arrival order, consuming the
  // hoisted results.
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = process_one(pvs[i], now_usec[i], &pre[i]);
    ++stats_.batch_packets;
  }
}

FastDecision FastPath::process_one(const net::PacketView& pv,
                                   std::uint64_t now_usec,
                                   const Prescan* pre) {
  ++stats_.packets;
  stats_.bytes += pv.frame.size();

  // Fragments bypass L4 parsing entirely: off to the slow path, which
  // defragments and (via the engine) pins the revealed flow to it.
  if (pv.is_fragment()) {
    ++stats_.fragment_diverts;
    return FastDecision{Action::divert, DivertReason::ip_fragment, {}};
  }
  if (!pv.ok()) {
    ++stats_.bad_packets;
    return FastDecision{Action::divert, DivertReason::bad_packet, {}};
  }

  // Insertion-attack filters: a packet the victim will never accept must
  // not touch IPS state. Forward it untouched (it is inert on the wire).
  if (cfg_.min_ttl != 0 && pv.ip_ttl() < cfg_.min_ttl) {
    ++stats_.low_ttl_ignored;
    return FastDecision{Action::forward, DivertReason::none, {}};
  }
  if (cfg_.verify_checksums) {
    bool checksum_ok;
    if (pre != nullptr && pre->checksum >= 0) {
      checksum_ok = pre->checksum == 1;
    } else {
      checksum_ok = net::transport_checksum(pv) == 0;
    }
    if (!checksum_ok) {
      ++stats_.bad_checksum_ignored;
      return FastDecision{Action::forward, DivertReason::none, {}};
    }
  }

  if (pv.has_udp) {
    ++stats_.udp_datagrams;
    if (scan_payload(pv.l4_payload, pre)) {
      ++stats_.piece_hits;
      // Datagram-level diversion: the slow path runs the full match.
      return FastDecision{Action::divert, DivertReason::piece_match, {}};
    }
    return FastDecision{Action::forward, DivertReason::none, {}};
  }
  if (!pv.has_tcp) {
    return FastDecision{Action::forward, DivertReason::none, {}};
  }

  ++stats_.tcp_segments;
  const flow::FlowRef ref = flow::make_flow_ref(pv);
  bool created = false;
  FastFlowState& st = table_.get_or_create(ref.key, now_usec, &created);
  if (created) ++stats_.flows_seen;

  if (st.diverted) {
    ++stats_.diverted_packets;
    return FastDecision{Action::divert, DivertReason::already_diverted, {}};
  }

  const auto d = static_cast<std::size_t>(ref.dir);
  const std::uint8_t dbit = static_cast<std::uint8_t>(1u << d);
  const ByteView payload = pv.l4_payload;
  const net::TcpView& tcp = pv.tcp;

  // (1) Stateless piece scan. A whole piece inside one packet is the
  // attacker's forced move when segments are large and in order.
  if (!payload.empty()) {
    if (scan_payload(payload, pre)) {
      ++stats_.piece_hits;
      return divert(st, ref, DivertReason::piece_match);
    }
  }

  // (2) Urgent-mode data: whether the receiving application sees the
  // urgent byte in-band is stack-dependent — an ambiguity an evader can
  // ride. Urgent segments are rare in benign traffic; divert.
  if (tcp.urg() && tcp.urgent_pointer() != 0 && !payload.empty()) {
    ++stats_.urgent_diverts;
    return divert(st, ref, DivertReason::urgent_data);
  }

  // (3) Payload after this direction's FIN is a protocol violation the
  // receiving stack would discard; an evader shipping bytes there is
  // hiding them from us, so divert. (A bare FIN retransmission is fine.)
  if ((st.fin_seen & dbit) && !payload.empty()) {
    ++stats_.ooo_anomalies;
    return divert(st, ref, DivertReason::out_of_order);
  }
  if (tcp.fin()) {
    st.fin_seen |= dbit;
    // Both directions closed: collapse this record's lifetime to the FIN
    // linger (conntrack teardown). The linger still covers the final ACK
    // and absorbs benign FIN retransmits; post-linger data starts a fresh
    // flow, exactly as the receiving stack would treat it.
    if (st.fin_seen == 0x3) table_.mark_closing(ref.key, now_usec);
  }

  // (4) A pending small segment is absolved by a bare *in-sequence* FIN
  // (it really was the stream's last data), confirmed as an anomaly by any
  // further data in that direction. A bare FIN declaring a later sequence
  // number must NOT absolve: data is still outstanding, so the 2p-2-byte
  // leak stays live and the takeover bound below must account for it (the
  // sequence check diverts such a FIN; found by sdt_fuzz, schedule
  // seed=1/i=16193).
  if ((st.pending_small & dbit) && !cfg_.testonly_break_small_segment_check) {
    if (tcp.fin() && payload.empty() &&
        ((st.have_seq & dbit) == 0 || tcp.seq() == st.next_seq[d])) {
      st.pending_small = static_cast<std::uint8_t>(st.pending_small & ~dbit);
    } else if (!payload.empty()) {
      st.pending_small = static_cast<std::uint8_t>(st.pending_small & ~dbit);
      ++stats_.small_segment_anomalies;
      if (++st.small_count[d] >= cfg_.small_segment_limit) {
        return divert(st, ref, DivertReason::small_segment);
      }
    }
  }

  // (5) Small-segment check (below the 2p-1 threshold). Must precede
  // sequence tracking so a diverting packet is not yet folded into
  // next_seq — the slow path has to accept this very packet.
  if (!payload.empty() && payload.size() < cfg_.effective_min_payload() &&
      !cfg_.testonly_break_small_segment_check) {
    if (tcp.fin() && cfg_.fin_exempts_last_small) {
      // Final data segment of this direction: legitimately small.
    } else if (cfg_.fin_exempts_last_small) {
      st.pending_small = static_cast<std::uint8_t>(st.pending_small | dbit);
    } else {
      ++stats_.small_segment_anomalies;
      if (++st.small_count[d] >= cfg_.small_segment_limit) {
        return divert(st, ref, DivertReason::small_segment);
      }
    }
  }

  // (6) Sequence tracking: one 32-bit expected-next per direction.
  const std::uint32_t seg_len =
      static_cast<std::uint32_t>(payload.size()) + (tcp.syn() ? 1u : 0u) +
      (tcp.fin() ? 1u : 0u);
  if ((st.have_seq & dbit) == 0) {
    if (seg_len != 0) {
      st.next_seq[d] = tcp.seq() + seg_len;
      st.have_seq |= dbit;
    }
  } else if (seg_len != 0 || !payload.empty()) {
    if (net::seq_cmp(tcp.seq(), st.next_seq[d]) != 0) {
      ++stats_.ooo_anomalies;
      // Divert *before* resyncing: the takeover base must be the first
      // byte the fast path has not forwarded, so the slow path accepts
      // both this packet and any later hole-filling segments.
      if (++st.ooo_count[d] >= cfg_.ooo_limit) {
        return divert(st, ref, DivertReason::out_of_order);
      }
      // Tolerated anomaly: resync so one reordering event costs one
      // anomaly, not a cascade. seq_cmp, not built-in >, so a resync
      // straddling the 2^32 wrap moves the expectation forward.
      if (net::seq_cmp(tcp.seq() + seg_len, st.next_seq[d]) > 0) {
        st.next_seq[d] = tcp.seq() + seg_len;
      }
    } else {
      st.next_seq[d] = tcp.seq() + seg_len;
    }
  }

  // (7) State reclamation on a *sequence-valid* RST only. An out-of-window
  // RST would be ignored by the receiver; erasing on it would let an
  // attacker reset our sequence baseline while the real connection lives.
  if (tcp.rst() && (st.have_seq & dbit) &&
      net::seq_cmp(tcp.seq(), st.next_seq[d]) == 0) {
    // Sequence-valid RST: collapse to the linger instead of erasing
    // outright, so straggler packets of the dead connection (the peer's
    // own RST, a crossed FIN) do not re-materialize a fresh record.
    table_.mark_closing(ref.key, now_usec);
  }

  return FastDecision{Action::forward, DivertReason::none, {}};
}

}  // namespace sdt::core
