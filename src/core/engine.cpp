#include "core/engine.hpp"

#include "pcap/pcapng.hpp"

namespace sdt::core {

ConventionalIpsConfig derive_slow_config(const SplitDetectConfig& cfg) {
  ConventionalIpsConfig c;
  c.reasm = cfg.slow_reasm;
  c.defrag = cfg.defrag;
  c.max_flows = cfg.slow_max_flows;
  // Clean packets can leak up to 3p-3 signature-prefix bytes past the fast
  // path before diversion (p-1 via edge packets, plus 2p-2 via one
  // FIN-pending small segment). The anchored takeover check covers them.
  c.takeover_slack = 3 * cfg.fast.piece_len - 3;
  // A diverted flow shipping two different versions of one byte range is
  // mounting a policy-ambiguity evasion; normalize-or-alert. Likewise for
  // urgent-mode data (the fast path diverts it here for exactly this).
  c.alert_on_conflicting_overlap = true;
  c.alert_on_urgent_data = true;
  c.verify_checksums = cfg.fast.verify_checksums;
  c.min_ttl = cfg.min_ttl;
  return c;
}

namespace {

FastPathConfig fast_config(const SplitDetectConfig& cfg) {
  FastPathConfig f = cfg.fast;
  if (cfg.min_ttl != 0) f.min_ttl = cfg.min_ttl;
  return f;
}

}  // namespace

SplitDetectEngine::SplitDetectEngine(const SignatureSet& sigs,
                                     SplitDetectConfig cfg)
    : SplitDetectEngine(compile_ruleset(sigs, compile_options(cfg.fast)), cfg) {}

SplitDetectEngine::SplitDetectEngine(RuleSetHandle rules, SplitDetectConfig cfg)
    : fast_(rules, fast_config(cfg)),
      slow_(std::move(rules), derive_slow_config(cfg)),
      defrag_(cfg.defrag) {}

void SplitDetectEngine::swap_ruleset(RuleSetHandle rules) {
  fast_.swap_ruleset(rules);       // validates pieces + piece_len first
  slow_.swap_ruleset(std::move(rules));
  ++reloads_;
}

Action SplitDetectEngine::process(const net::PacketView& pv,
                                  std::uint64_t now_usec,
                                  std::vector<Alert>& alerts) {
  ++packets_;
  FastDecision d = fast_.process(pv, now_usec);
  return finish(pv, std::move(d), now_usec, alerts);
}

std::size_t SplitDetectEngine::process_batch(const net::PacketView* pvs,
                                             const std::uint64_t* now_usec,
                                             std::size_t n,
                                             std::vector<Alert>& alerts,
                                             Action* actions) {
  batch_decisions_.resize(n);
  std::size_t not_forwarded = 0;
  // finish() of an ip_fragment packet force-diverts (pins) the revealed
  // flow the moment defragmentation completes its datagram — which changes
  // the fast-path verdict of any later packet of that flow. Computing all n
  // fast decisions up front would decide those packets *before* the pin and
  // forward them clean, opening exactly the slow-path stream hole the pin
  // exists to prevent. So fast decisions are only computed up to (and
  // including) the next fragment; the remainder waits until that
  // fragment's finish() has run. Fragment-free batches (the common case)
  // still take one process_batch call.
  std::size_t start = 0;
  while (start < n) {
    std::size_t stop = start;
    while (stop < n && !pvs[stop].is_fragment()) ++stop;
    if (stop < n) ++stop;  // include the run-terminating fragment
    fast_.process_batch(pvs + start, now_usec + start, stop - start,
                        batch_decisions_.data() + start);
    for (std::size_t i = start; i < stop; ++i) {
      ++packets_;
      const Action a =
          finish(pvs[i], std::move(batch_decisions_[i]), now_usec[i], alerts);
      if (actions != nullptr) actions[i] = a;
      if (a != Action::forward) ++not_forwarded;
    }
    start = stop;
  }
  return not_forwarded;
}

Action SplitDetectEngine::finish(const net::PacketView& pv, FastDecision d,
                                 std::uint64_t now_usec,
                                 std::vector<Alert>& alerts) {
  if (d.action == Action::forward) return Action::forward;

  ++diverted_packets_;

  // External slow path installed: the boundary is enqueue-or-shed, not a
  // synchronous reassembly call. Fragments are still defragmented here so
  // the sink only ever sees whole flow-keyed datagrams.
  if (sink_ != nullptr) return divert_to_sink(pv, d, now_usec, alerts);

  if (d.takeover) {
    slow_.adopt_flow(d.takeover->key, d.takeover->base_seq, now_usec,
                     d.takeover->prefix_leak);
  }

  std::size_t new_alerts = 0;
  if (d.reason == DivertReason::ip_fragment) {
    // Engine-level defragmentation: once the datagram is whole we both know
    // the flow (pin it to the slow path, with the fast path's sequence
    // bases, so no later clean packet can leave a hole in the slow-path
    // stream) and can hand it over for matching.
    if (auto datagram = defrag_.add(pv, now_usec)) {
      const net::PacketView whole = net::PacketView::parse_l3(*datagram);
      if (whole.ok()) {
        const flow::FlowRef ref = flow::make_flow_ref(whole);
        const FastDecision::Takeover t = fast_.force_divert(ref.key, now_usec);
        slow_.adopt_flow(t.key, t.base_seq, now_usec, t.prefix_leak);
      }
      new_alerts = slow_.process(whole, now_usec, alerts);
    }
  } else {
    new_alerts = slow_.process(pv, now_usec, alerts);
  }

  alerts_ += new_alerts;
  return new_alerts > 0 ? Action::alert : Action::divert;
}

Action SplitDetectEngine::divert_to_sink(const net::PacketView& pv,
                                         FastDecision d,
                                         std::uint64_t now_usec,
                                         std::vector<Alert>& alerts) {
  if (d.reason == DivertReason::ip_fragment) {
    auto datagram = defrag_.add(pv, now_usec);
    if (!datagram) return Action::divert;  // absorbed, awaiting siblings
    const net::PacketView whole = net::PacketView::parse_l3(*datagram);
    if (!whole.ok() || (!whole.has_tcp && !whole.has_udp)) {
      ++sink_unroutable_;
      return Action::divert;
    }
    const flow::FlowRef ref = flow::make_flow_ref(whole);
    DivertedPacket dp;
    dp.datagram = std::move(*datagram);
    dp.ts_usec = now_usec;
    dp.key = ref.key;
    dp.reason = DivertReason::ip_fragment;
    // Pin the revealed flow to the slow path exactly as the synchronous
    // engine does, and carry the takeover so the sink's IPS can adopt it.
    dp.takeover = fast_.force_divert(ref.key, now_usec);
    return ship_to_sink(std::move(dp), now_usec, alerts);
  }

  if (!pv.ok() || (!pv.has_tcp && !pv.has_udp)) {
    // No flow identity to route or admit on (hostile headers). Still not
    // forwarded clean — the caller sees divert — but nothing to enqueue.
    ++sink_unroutable_;
    return Action::divert;
  }

  const flow::FlowRef ref = flow::make_flow_ref(pv);
  DivertedPacket dp;
  dp.datagram.assign(pv.ip_datagram.begin(), pv.ip_datagram.end());
  dp.ts_usec = now_usec;
  dp.key = ref.key;
  dp.reason = d.reason;
  dp.takeover = std::move(d.takeover);
  return ship_to_sink(std::move(dp), now_usec, alerts);
}

Action SplitDetectEngine::ship_to_sink(DivertedPacket&& dp,
                                       std::uint64_t now_usec,
                                       std::vector<Alert>& alerts) {
  const flow::FlowKey key = dp.key;  // copy out before the move below
  switch (sink_->divert(std::move(dp))) {
    case DivertOutcome::admitted:
      ++sink_enqueued_;
      return Action::divert;
    case DivertOutcome::shed:
      // Shed-with-alert: the refusal is an explicit, attributable verdict.
      // One alert per flow (the sink reports repeats as shed_again).
      ++sink_shed_packets_;
      ++sink_shed_flows_;
      ++alerts_;
      alerts.push_back(
          Alert{key, kSlowPathShedAlertId, now_usec, 0, "slowpath-shed"});
      return Action::alert;
    case DivertOutcome::shed_again:
      ++sink_shed_packets_;
      return Action::divert;
  }
  return Action::divert;  // unreachable; keeps -Wreturn-type honest
}

Action SplitDetectEngine::process(const net::Packet& pkt, net::LinkType lt,
                                  std::vector<Alert>& alerts) {
  const net::PacketView pv = net::PacketView::parse(pkt.frame, lt);
  return process(pv, pkt.ts_usec, alerts);
}

void SplitDetectEngine::expire(std::uint64_t now_usec) {
  fast_.expire(now_usec);
  slow_.expire(now_usec);
  defrag_.expire(now_usec);
}

void SplitDetectEngine::register_metrics(telemetry::MetricsRegistry& reg,
                                         const std::string& prefix) const {
  using telemetry::MetricDesc;
  // The engine's tallies are thread-private plain integers — declared
  // non-live so a live poll skips them instead of racing the owner thread.
  const auto gauge = [&](const char* name, const char* unit,
                         std::function<std::uint64_t()> fn) {
    reg.add_gauge(MetricDesc{prefix + "." + name, unit, "engine", false},
                  std::move(fn));
  };
  gauge("packets", "packets", [this] { return packets_; });
  gauge("alerts", "alerts", [this] { return alerts_; });
  gauge("diverted_packets", "packets", [this] { return diverted_packets_; });
  gauge("sink_enqueued", "packets", [this] { return sink_enqueued_; });
  gauge("sink_shed_packets", "packets", [this] { return sink_shed_packets_; });
  gauge("sink_shed_flows", "flows", [this] { return sink_shed_flows_; });
  gauge("sink_unroutable", "packets", [this] { return sink_unroutable_; });
  gauge("reloads", "events", [this] { return reloads_; });
  gauge("ruleset_version", "version", [this] { return ruleset_version(); });
  gauge("fast.bytes_scanned", "bytes",
        [this] { return fast_.stats().bytes_scanned; });
  gauge("fast.flows_seen", "flows", [this] { return fast_.stats().flows_seen; });
  gauge("fast.flows_diverted", "flows",
        [this] { return fast_.stats().flows_diverted; });
  gauge("fast.piece_hits", "events", [this] { return fast_.stats().piece_hits; });
  gauge("fast.small_segment_anomalies", "events",
        [this] { return fast_.stats().small_segment_anomalies; });
  gauge("fast.ooo_anomalies", "events",
        [this] { return fast_.stats().ooo_anomalies; });
  gauge("fast.fragment_diverts", "events",
        [this] { return fast_.stats().fragment_diverts; });
  gauge("fast.batch_packets", "packets",
        [this] { return fast_.stats().batch_packets; });
  gauge("match.prefilter_pass", "payloads",
        [this] { return fast_.stats().prefilter_pass; });
  gauge("match.prefilter_hit", "payloads",
        [this] { return fast_.stats().prefilter_hit; });
  gauge("match.prefilter_exact_bytes", "bytes",
        [this] { return fast_.stats().prefilter_exact_bytes; });
  gauge("match.prefilter_bypassed", "payloads",
        [this] { return fast_.stats().prefilter_bypassed; });
  gauge("slow.bytes_scanned", "bytes",
        [this] { return slow_.stats().bytes_scanned; });
  gauge("slow.reassembled_bytes", "bytes",
        [this] { return slow_.stats().reassembled_bytes; });
  gauge("slow.flows_seen", "flows", [this] { return slow_.stats().flows_seen; });
  gauge("slow.conflicting_overlaps", "events",
        [this] { return slow_.stats().conflicting_overlaps; });
  gauge("flow_state_bytes", "bytes",
        [this] { return static_cast<std::uint64_t>(flow_state_bytes()); });
  gauge("memory_bytes", "bytes",
        [this] { return static_cast<std::uint64_t>(memory_bytes()); });
}

PcapRunResult run_pcap(SplitDetectEngine& engine, const std::string& path) {
  const auto reader = pcap::open_capture(path);  // classic pcap or pcapng
  PcapRunResult r;
  while (auto pkt = reader->next()) {
    ++r.packets;
    engine.process(*pkt, reader->link_type(), r.alerts);
  }
  return r;
}

}  // namespace sdt::core
