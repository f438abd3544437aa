#include "fuzz/differential.hpp"

#include <algorithm>
#include <array>

#include "core/compiled_ruleset.hpp"
#include "net/builder.hpp"
#include "runtime/runtime.hpp"
#include "slowpath/service.hpp"

namespace sdt::fuzz {

namespace {

/// Real signature ids only (normalizer sentinels are engine-policy events,
/// not detections), sorted and deduplicated.
std::vector<std::uint32_t> real_sigs(const std::vector<core::Alert>& alerts,
                                     std::size_t corpus_size) {
  std::vector<std::uint32_t> ids;
  for (const core::Alert& a : alerts) {
    if (a.signature_id < corpus_size) ids.push_back(a.signature_id);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

bool subset(const std::vector<std::uint32_t>& a,
            const std::vector<std::uint32_t>& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

}  // namespace

const char* to_string(ViolationKind v) {
  switch (v) {
    case ViolationKind::none:
      return "none";
    case ViolationKind::missed_detection:
      return "missed_detection";
    case ViolationKind::slow_path_miss:
      return "slow_path_miss";
  }
  return "unknown";
}

core::SplitDetectConfig HarnessConfig::engine_config() const {
  core::SplitDetectConfig cfg;
  cfg.fast.piece_len = piece_len;
  cfg.fast.max_flows = max_flows;
  cfg.fast.testonly_break_small_segment_check = inject_small_segment_bug;
  cfg.slow_max_flows = std::max<std::size_t>(max_flows / 4, 1024);
  return cfg;
}

core::ConventionalIpsConfig HarnessConfig::oracle_config() const {
  core::ConventionalIpsConfig cfg;
  cfg.max_flows = max_flows;
  // Pure detection ground truth: no takeover window (the oracle sees the
  // stream from byte 0), no normalizer alerts — signature hits only.
  cfg.takeover_slack = 0;
  cfg.alert_on_conflicting_overlap = false;
  cfg.alert_on_urgent_data = false;
  return cfg;
}

DifferentialHarness::DifferentialHarness(const core::SignatureSet& corpus,
                                         HarnessConfig cfg)
    : corpus_(corpus),
      cfg_(cfg),
      engine_(std::make_unique<core::SplitDetectEngine>(corpus,
                                                        cfg.engine_config())),
      oracle_(std::make_unique<core::ConventionalIps>(corpus,
                                                      cfg.oracle_config())) {}

namespace {

void classify(ScheduleOutcome& out, std::size_t corpus_size, bool strict,
              std::vector<core::Alert>&& oracle_alerts,
              std::vector<core::Alert>&& engine_alerts) {
  out.oracle_sigs = real_sigs(oracle_alerts, corpus_size);
  out.engine_sigs = real_sigs(engine_alerts, corpus_size);
  std::uint32_t extra = 0;
  for (const std::uint32_t id : out.engine_sigs) {
    if (!std::binary_search(out.oracle_sigs.begin(), out.oracle_sigs.end(),
                            id)) {
      ++extra;
    }
  }
  out.engine_only_alerts = extra;

  if (!out.oracle_sigs.empty()) {
    if (!out.flagged && out.engine_sigs.empty()) {
      out.violation = ViolationKind::missed_detection;
    } else if (strict && !subset(out.oracle_sigs, out.engine_sigs)) {
      out.violation = ViolationKind::slow_path_miss;
    }
  }
}

ScheduleOutcome replay(core::SplitDetectEngine& engine,
                       core::ConventionalIps& oracle, const Schedule& s,
                       std::size_t corpus_size, bool strict) {
  ScheduleOutcome out;
  std::vector<core::Alert> oracle_alerts;
  std::vector<core::Alert> engine_alerts;
  const net::LinkType lt = s.link_type();
  for (const net::Packet& p : s.forge()) {
    ++out.packets;
    out.bytes += p.frame.size();
    const net::PacketView pv = net::PacketView::parse(p.frame, lt);
    oracle.process(pv, p.ts_usec, oracle_alerts);
    if (engine.process(pv, p.ts_usec, engine_alerts) !=
        core::Action::forward) {
      out.flagged = true;
    }
  }
  classify(out, corpus_size, strict, std::move(oracle_alerts),
           std::move(engine_alerts));
  return out;
}

}  // namespace

ScheduleOutcome DifferentialHarness::check(const Schedule& s) {
  return replay(*engine_, *oracle_, s, corpus_.size(), cfg_.strict);
}

ScheduleOutcome DifferentialHarness::check_isolated(const Schedule& s) const {
  core::SplitDetectEngine engine(corpus_, cfg_.engine_config());
  core::ConventionalIps oracle(corpus_, cfg_.oracle_config());
  return replay(engine, oracle, s, corpus_.size(), cfg_.strict);
}

void DifferentialHarness::expire(std::uint64_t now_usec) {
  engine_->expire(now_usec);
  oracle_->expire(now_usec);
}

namespace {

/// Every schedule's packets interleaved by timestamp — one merged stream,
/// exactly like a tap would produce it — plus the one link type the whole
/// stream parses under.
struct MergedBatch {
  std::vector<net::Packet> packets;
  net::LinkType link = net::LinkType::raw_ipv4;
};

/// A tap carries ONE link type, but a mixed batch may hold both raw-IP and
/// Ethernet-framed (VLAN) schedules. Unify upward: if any schedule needs
/// Ethernet, wrap the raw-IP frames in a plain Ethernet header too — a
/// byte-preserving re-frame of the datagram the engines reason about.
MergedBatch merge_batch(const std::vector<Schedule>& batch) {
  MergedBatch out;
  bool any_ethernet = false;
  for (const Schedule& s : batch) {
    any_ethernet |= s.link_type() == net::LinkType::ethernet;
  }
  for (const Schedule& s : batch) {
    std::vector<net::Packet> pkts = s.forge();
    if (any_ethernet && s.link_type() == net::LinkType::raw_ipv4) {
      for (net::Packet& p : pkts) p.frame = net::wrap_ethernet(p.frame);
    }
    out.packets.insert(out.packets.end(),
                       std::make_move_iterator(pkts.begin()),
                       std::make_move_iterator(pkts.end()));
  }
  if (any_ethernet) out.link = net::LinkType::ethernet;
  std::stable_sort(out.packets.begin(), out.packets.end(),
                   [](const net::Packet& a, const net::Packet& b) {
                     return a.ts_usec < b.ts_usec;
                   });
  return out;
}

}  // namespace

RuntimeCrosscheck runtime_crosscheck(const core::SignatureSet& corpus,
                                     const HarnessConfig& cfg,
                                     const std::vector<Schedule>& batch,
                                     std::size_t lanes) {
  MergedBatch mb = merge_batch(batch);

  // Reference: one engine, full budgets, same merged order.
  std::vector<core::Alert> ref_alerts;
  {
    core::SplitDetectEngine ref(corpus, cfg.engine_config());
    for (const net::Packet& p : mb.packets) {
      ref.process(p, mb.link, ref_alerts);
    }
  }

  runtime::RuntimeConfig rcfg;
  rcfg.lanes = lanes;
  rcfg.link = mb.link;
  rcfg.engine = cfg.engine_config();
  runtime::Runtime rt(corpus, rcfg);
  rt.start();
  rt.feed(std::move(mb.packets));
  rt.stop();
  const std::vector<core::Alert> rt_alerts = rt.alerts();

  auto key = [](const core::Alert& a) {
    return std::tuple(a.flow.a_ip.hi(), a.flow.a_ip.lo(), a.flow.b_ip.hi(),
                      a.flow.b_ip.lo(), a.flow.a_port, a.flow.b_port,
                      a.flow.proto, a.signature_id);
  };
  using AlertKey = decltype(key(core::Alert{}));
  auto to_set = [&](const std::vector<core::Alert>& v) {
    std::vector<AlertKey> s;
    s.reserve(v.size());
    for (const core::Alert& a : v) s.push_back(key(a));
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
    return s;
  };

  RuntimeCrosscheck out;
  const auto rset = to_set(rt_alerts);
  const auto eset = to_set(ref_alerts);
  out.runtime_alerts = rset.size();
  out.engine_alerts = eset.size();
  out.equal = rset == eset;
  return out;
}

namespace {

/// FNV-1a over the sorted, deduplicated (flow, signature) alert keys —
/// byte-identical verdicts produce byte-identical digests.
std::uint64_t alert_digest(const std::vector<core::Alert>& alerts) {
  std::vector<std::array<std::uint64_t, 6>> keys;
  keys.reserve(alerts.size());
  for (const core::Alert& a : alerts) {
    keys.push_back({a.flow.a_ip.hi(), a.flow.a_ip.lo(), a.flow.b_ip.hi(),
                    a.flow.b_ip.lo(),
                    (std::uint64_t{a.flow.a_port} << 32) | a.flow.b_port,
                    (std::uint64_t{a.flow.proto} << 32) | a.signature_id});
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& k : keys) {
    for (const std::uint64_t v : k) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= 0x100000001b3ull;
      }
    }
  }
  return h;
}

}  // namespace

ReloadCrosscheck reload_crosscheck(const core::SignatureSet& corpus,
                                   const HarnessConfig& cfg,
                                   const std::vector<Schedule>& batch,
                                   std::uint64_t swaps) {
  const MergedBatch mb = merge_batch(batch);
  const std::vector<net::Packet>& merged = mb.packets;
  const core::CompileOptions opts =
      core::compile_options(cfg.engine_config().fast);

  // Baseline: one engine, one rule-set version, the whole stream.
  std::vector<core::Alert> base_alerts;
  {
    core::SplitDetectEngine base(corpus, cfg.engine_config());
    for (const net::Packet& p : merged) {
      base.process(p, mb.link, base_alerts);
    }
  }

  // Reloaded: same stream, but the rule set is republished mid-flight —
  // identical bytes, fresh artifact, bumped version — at evenly spaced
  // packet boundaries. Flows straddling a swap keep scanning on their
  // pinned version; new flows pick up the new one. Verdicts must match
  // the baseline exactly.
  ReloadCrosscheck out;
  std::vector<core::Alert> rel_alerts;
  {
    std::uint64_t version = 1;
    core::SplitDetectEngine rel(
        core::compile_ruleset(corpus, opts, version, "reload-crosscheck"),
        cfg.engine_config());
    const std::size_t stride =
        swaps == 0 ? merged.size() + 1
                   : std::max<std::size_t>(merged.size() / (swaps + 1), 1);
    std::size_t n = 0;
    for (const net::Packet& p : merged) {
      if (n != 0 && n % stride == 0 && out.swaps < swaps) {
        rel.swap_ruleset(core::compile_ruleset(corpus, opts, ++version,
                                               "reload-crosscheck"));
        ++out.swaps;
      }
      rel.process(p, mb.link, rel_alerts);
      ++n;
    }
  }

  out.baseline_digest = alert_digest(base_alerts);
  out.reloaded_digest = alert_digest(rel_alerts);
  out.baseline_alerts = base_alerts.size();
  out.reloaded_alerts = rel_alerts.size();
  out.equal = out.baseline_digest == out.reloaded_digest;
  return out;
}

namespace {

slowpath::SlowPathConfig flood_slowpath_config(const HarnessConfig& cfg,
                                               bool starved) {
  slowpath::SlowPathConfig sp;
  sp.workers = 2;
  sp.ips = core::derive_slow_config(cfg.engine_config());
  if (starved) {
    // Budgets always active and never refilled: a flow gets one tiny
    // quantum and is deterministically shed once its bytes exceed it —
    // shedding driven by policy, not by wall-clock queue races.
    sp.admission.quantum_bytes = 512;
    sp.admission.max_deficit_bytes = 1024;
    sp.admission.refill_interval_usec = 1ull << 40;
    sp.admission.pressure_threshold = 0.0;
  } else {
    // Generous: admission can never bite (occupancy is <= 1.0) and the
    // queues are far larger than any crosscheck batch, so the baseline
    // run sheds nothing and is fully deterministic.
    sp.admission.pressure_threshold = 2.0;
    sp.queue.max_packets = 1 << 20;
    sp.queue.max_bytes = 1ull << 30;
  }
  return sp;
}

/// Replay `merged` through an engine whose diversions feed a slow-path
/// service; returns engine alerts (incl. slowpath_shed) + worker alerts.
std::vector<core::Alert> flood_replay(const core::SignatureSet& corpus,
                                      const HarnessConfig& cfg,
                                      const std::vector<net::Packet>& merged,
                                      net::LinkType link, bool starved) {
  std::vector<core::Alert> alerts;
  const core::RuleSetHandle rules = core::compile_ruleset(
      corpus, core::compile_options(cfg.engine_config().fast), 1,
      "flood-crosscheck");
  core::SplitDetectEngine engine(rules, cfg.engine_config());
  slowpath::SlowPathService svc(rules, flood_slowpath_config(cfg, starved));
  engine.set_divert_sink(&svc);
  svc.start();
  for (const net::Packet& p : merged) {
    engine.process(p, link, alerts);
  }
  svc.stop();
  const std::vector<core::Alert> slow = svc.alerts_snapshot();
  alerts.insert(alerts.end(), slow.begin(), slow.end());
  return alerts;
}

}  // namespace

FloodCrosscheck flood_crosscheck(const core::SignatureSet& corpus,
                                 const HarnessConfig& cfg,
                                 const std::vector<Schedule>& batch) {
  const MergedBatch mb = merge_batch(batch);
  const std::vector<core::Alert> base =
      flood_replay(corpus, cfg, mb.packets, mb.link, /*starved=*/false);
  const std::vector<core::Alert> sat =
      flood_replay(corpus, cfg, mb.packets, mb.link, /*starved=*/true);

  // Every shed flow carries exactly one slowpath_shed alert in the
  // saturated run; those flows (which got only partial scrutiny) are
  // excluded from BOTH sides of the comparison.
  auto key = [](const core::Alert& a) {
    return std::tuple(a.flow.a_ip.hi(), a.flow.a_ip.lo(), a.flow.b_ip.hi(),
                      a.flow.b_ip.lo(), a.flow.a_port, a.flow.b_port,
                      a.flow.proto);
  };
  using FlowId = decltype(key(core::Alert{}));
  std::vector<FlowId> shed;
  for (const core::Alert& a : sat) {
    if (a.signature_id == core::kSlowPathShedAlertId) shed.push_back(key(a));
  }
  std::sort(shed.begin(), shed.end());
  shed.erase(std::unique(shed.begin(), shed.end()), shed.end());

  auto admitted_only = [&](const std::vector<core::Alert>& v) {
    std::vector<core::Alert> kept;
    for (const core::Alert& a : v) {
      if (a.signature_id == core::kSlowPathShedAlertId) continue;
      if (std::binary_search(shed.begin(), shed.end(), key(a))) continue;
      kept.push_back(a);
    }
    return kept;
  };

  FloodCrosscheck out;
  out.shed_flows = shed.size();
  const std::vector<core::Alert> base_kept = admitted_only(base);
  const std::vector<core::Alert> sat_kept = admitted_only(sat);
  out.baseline_alerts = base_kept.size();
  out.admitted_alerts = sat_kept.size();
  out.baseline_digest = alert_digest(base_kept);
  out.saturated_digest = alert_digest(sat_kept);
  out.equal = out.baseline_digest == out.saturated_digest;
  return out;
}

PrefilterCrosscheck prefilter_crosscheck(const core::SignatureSet& corpus,
                                         const HarnessConfig& cfg,
                                         const std::vector<Schedule>& batch) {
  const MergedBatch mb = merge_batch(batch);
  const std::vector<net::Packet>& merged = mb.packets;
  PrefilterCrosscheck out;

  // Filtered side: prefilter ON, fed in batches of 8 through
  // process_batch() — exercises the SIMD candidate kernels, the staged
  // window scan AND the lockstep flat-DFA batch walk.
  std::vector<core::Alert> filtered;
  {
    core::SplitDetectConfig ec = cfg.engine_config();
    ec.fast.use_prefilter = true;
    core::SplitDetectEngine eng(corpus, ec);
    constexpr std::size_t kBatch = 8;
    net::PacketView views[kBatch];
    std::uint64_t ts[kBatch];
    for (std::size_t base = 0; base < merged.size(); base += kBatch) {
      const std::size_t n = std::min(kBatch, merged.size() - base);
      for (std::size_t i = 0; i < n; ++i) {
        views[i] = net::PacketView::parse(merged[base + i].frame, mb.link);
        ts[i] = merged[base + i].ts_usec;
      }
      eng.process_batch(views, ts, n, filtered);
    }
    out.filtered_diverted_flows = eng.fast_path().stats().flows_diverted;
  }

  // Unfiltered side: prefilter OFF, classic packet-at-a-time process() —
  // every payload byte walked by the plain matcher.
  std::vector<core::Alert> unfiltered;
  {
    core::SplitDetectConfig ec = cfg.engine_config();
    ec.fast.use_prefilter = false;
    core::SplitDetectEngine eng(corpus, ec);
    for (const net::Packet& p : merged) {
      eng.process(p, mb.link, unfiltered);
    }
    out.unfiltered_diverted_flows = eng.fast_path().stats().flows_diverted;
  }

  out.filtered_alerts = filtered.size();
  out.unfiltered_alerts = unfiltered.size();
  out.filtered_digest = alert_digest(filtered);
  out.unfiltered_digest = alert_digest(unfiltered);
  out.equal = out.filtered_digest == out.unfiltered_digest &&
              out.filtered_diverted_flows == out.unfiltered_diverted_flows;
  return out;
}

ParityCrosscheck parity_crosscheck(const core::SignatureSet& corpus,
                                   const HarnessConfig& cfg,
                                   const std::vector<Schedule>& batch) {
  net::EncapSpec v6spec;
  v6spec.framing = net::Framing::v6;

  // One fresh engine per side, the same merged-by-timestamp order on both
  // (reframe is 1:1 per packet, so the interleaving is identical too).
  const auto run = [&](const net::EncapSpec& spec) {
    std::vector<Schedule> b = batch;
    for (Schedule& s : b) s.encap = spec;
    const MergedBatch mb = merge_batch(b);
    std::vector<core::Alert> alerts;
    core::SplitDetectEngine eng(corpus, cfg.engine_config());
    for (const net::Packet& p : mb.packets) eng.process(p, mb.link, alerts);
    return alerts;
  };
  const std::vector<core::Alert> v4 = run(net::EncapSpec{});
  std::vector<core::Alert> v6 = run(v6spec);
  for (core::Alert& a : v6) {
    a.flow.a_ip = net::untranslate_v6_addr(v6spec, a.flow.a_ip);
    a.flow.b_ip = net::untranslate_v6_addr(v6spec, a.flow.b_ip);
  }

  ParityCrosscheck out;
  out.v4_alerts = v4.size();
  out.v6_alerts = v6.size();
  out.v4_digest = alert_digest(v4);
  out.v6_digest = alert_digest(v6);
  out.equal = out.v4_digest == out.v6_digest;
  return out;
}

}  // namespace sdt::fuzz
