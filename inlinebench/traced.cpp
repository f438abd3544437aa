// Traced mode (--trace 1): the per-layer metrics.
//
// After the same set-up and warm-up as the untraced mode, whole rounds
// repeat until --seconds have been measured, and each metric is the median
// over rounds. A round is three judged pipeline passes on the real box —
// a saturation pass (lane stats, feeder CPU for the cost ledger, flow-state
// bytes), an open-loop pass at the workload's fixed rate (hold peak,
// latency tail, generator lag), and an open-loop pass whose pipe times
// Runtime::feed_borrowed — then a single-threaded replay of the pass
// through each layer's public entry point, in pipeline order: capture,
// router (over a pipe that answers at once), parse, checksum, flow table,
// fast path, engine, the conventional IPS baseline, the match kernels, the
// slow path on the diverted packets, defragmentation and the telemetry
// histogram. Each layer is a span with one child span per 4096-item chunk,
// kept in memory and written to the spans file at exit.
#include <cstdio>
#include <fstream>
#include <set>
#include <stdexcept>

#include "bench.hpp"
#include "core/conventional_ips.hpp"
#include "core/engine.hpp"
#include "core/fast_path.hpp"
#include "flow/flow_table.hpp"
#include "net/checksum.hpp"
#include "reassembly/ip_defrag.hpp"
#include "runtime/dispatcher.hpp"
#include "telemetry/histogram.hpp"

namespace inlinebench {

namespace {

using sdt::net::Packet;
using sdt::net::PacketView;

constexpr std::size_t kChunk = 4096;
constexpr std::size_t kBatch = 32;  // the lanes' dispatch batch width

class Spans {
 public:
  int begin(std::string name, int parent) {
    spans_.push_back(Span{std::move(name), parent, now_ns(), 0});
    return static_cast<int>(spans_.size() - 1);
  }
  void end(int id) { spans_[static_cast<std::size_t>(id)].end = now_ns(); }
  std::uint64_t duration(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return s.end - s.start;
  }

  void write(const std::string& path, const std::string& workload,
             std::uint64_t seed) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write spans file " + path);
    const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start;
    out << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
        << ", \"clock\": \"steady_clock ns from the first span\", \"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "  {\"id\": " << i << ", \"name\": \"" << s.name << "\", \"parent\": " << s.parent
          << ", \"start_ns\": " << s.start - t0 << ", \"end_ns\": " << s.end - t0 << "}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
  }

 private:
  struct Span {
    std::string name;
    int parent;
    std::uint64_t start;
    std::uint64_t end;
  };
  std::vector<Span> spans_;
};

/// Time `work(begin, end)` over [0, n) in chunks, one child span each;
/// `prep` (untimed) readies a chunk first. Returns the summed chunk time.
template <typename Work, typename Prep>
double timed_layer(Spans& sp, int parent, const std::string& name, std::size_t n,
                   Work&& work, Prep&& prep) {
  const int layer = sp.begin(name, parent);
  std::uint64_t ns = 0;
  for (std::size_t b = 0; b < n; b += kChunk) {
    const std::size_t e = std::min(n, b + kChunk);
    prep(b, e);
    const int c = sp.begin(name + ".chunk", layer);
    work(b, e);
    sp.end(c);
    ns += sp.duration(c);
  }
  sp.end(layer);
  return static_cast<double>(ns);
}

template <typename Work>
double timed_layer(Spans& sp, int parent, const std::string& name, std::size_t n, Work&& work) {
  return timed_layer(sp, parent, name, n, work, [](std::size_t, std::size_t) {});
}

double per(double ns, std::size_t n) { return n == 0 ? 0.0 : ns / static_cast<double>(n); }

/// A pipe whose "engine" forwards every frame the moment it is fed, so the
/// router's own submit/poll cost is all that is left.
class EchoPipe final : public sdt::wire::InlinePipe {
 public:
  sdt::wire::VerdictRouter* router = nullptr;
  std::size_t lanes() const override { return 1; }
  void feed(const Packet& pkt) override {
    router->on_verdict(0, pkt.ticket, sdt::core::Action::forward);
  }
  void drain() override {}
  std::size_t in_flight_bound() const override { return 0; }
};

}  // namespace

int run_traced(const Args& args) {
  const Workload w = make_workload(args.workload, args.seed);
  const Oracle oracle(w);
  StampSink sink(w);
  Tally tally;
  Spans sp;
  // Each metric's value from every round, in first-reported order.
  std::vector<std::pair<Metric, std::vector<double>>> series;
  const auto metric = [&](const char* name, const char* unit, double v) {
    for (auto& [mm, vs] : series) {
      if (mm.name == name) return vs.push_back(v);
    }
    series.push_back({Metric{name, unit, 0}, {v}});
  };
  const std::size_t n = w.pass_packets;
  const int root = sp.begin("traced_run", -1);

  // --- set-up --------------------------------------------------------------
  int s = sp.begin("control.compile", root);
  const sdt::core::RuleSetHandle rules = compile_rules(w);
  sp.end(s);
  metric("control.compile_ms", "ms", static_cast<double>(sp.duration(s)) / 1e6);
  s = sp.begin("runtime.start", root);
  auto box = std::make_unique<Box>(w, rules, sink);
  sp.end(s);
  metric("runtime.start_ms", "ms", static_cast<double>(sp.duration(s)) / 1e6);
  const std::size_t lane_budget = box->runtime().lane_engine_config().fast.max_flows;

  // --- pipeline passes on the threaded box --------------------------------
  s = sp.begin("pipeline.warm_up", root);
  {
    sdt::wire::FileSource src(w.pcap);
    const std::uint64_t t0 = now_ns();
    run_pass(*box, src, PassMode::saturation, w, oracle, sink, tally);
    box.reset();
    warm_up(w, rules, oracle, sink, tally, t0);
  }
  sp.end(s);

  // Whole rounds until --seconds have been measured; each metric is the
  // median over rounds.
  const std::uint64_t m0 = now_ns();
  do {
    const int round = sp.begin("round", root);
    s = sp.begin("pipeline.saturation", round);
    sdt::runtime::StatsSnapshot st;
    PassTiming sat;
    std::size_t state_bytes = 0, live_flows = 0;
    {
      sdt::wire::FileSource src(w.pcap);
      Box b(w, rules, sink);
      sat = run_pass(b, src, PassMode::saturation, w, oracle, sink, tally,
                     [&] { st = b.runtime().stats(); });
      for (std::size_t i = 0; i < b.runtime().lanes(); ++i) {
        const auto& eng = b.runtime().lane_engine(i);
        state_bytes += eng.flow_state_bytes();
        live_flows += eng.fast_path().flows();
      }
    }
    sp.end(s);
    std::uint64_t busy = 0, processed = 0, max_processed = 0, ring_hw = 0;
    for (const auto& l : st.lanes) {
      busy += l.busy_ns;
      processed += l.processed;
      max_processed = std::max(max_processed, l.processed);
      ring_hw = std::max<std::uint64_t>(ring_hw, l.ring_high_water);
    }
    const double untraced_cpu_ns_per_pkt =
        per(static_cast<double>(sat.feeder_cpu_ns + busy), n);
    metric("runtime.lane_busy_ns_per_pkt", "ns", per(static_cast<double>(busy), processed));
    metric("runtime.lane_skew", "ratio",
           processed == 0 ? 0.0
                          : static_cast<double>(max_processed) *
                                static_cast<double>(st.lanes.size()) /
                                static_cast<double>(processed));
    metric("runtime.ring_high_water", "packets", static_cast<double>(ring_hw));
    metric("flow.bytes_per_flow", "B", per(static_cast<double>(state_bytes), live_flows));

    s = sp.begin("pipeline.open_loop", round);
    sdt::wire::WireStats open_ledger;
    std::vector<std::uint64_t> lat;
    {
      sdt::wire::FileSource src(w.pcap);
      Box b(w, rules, sink);
      const PassTiming t = run_pass(b, src, PassMode::open_loop, w, oracle, sink, tally,
                                    [&] { open_ledger = b.router().stats(); });
      lat = latencies_ns(t, sink.release_ns);
      metric("wire.generator_lag_us_max", "us", static_cast<double>(t.lag_ns_max) / 1e3);
    }
    sp.end(s);
    metric("wire.hold_peak", "packets", static_cast<double>(open_ledger.held_peak));
    metric("wire.latency_p99_us", "us", quantile(lat, 0.99) / 1e3);

    // Dispatch is timed in the open loop, where lane rings are rarely full:
    // at saturation feed_borrowed mostly waits out backpressure.
    s = sp.begin("pipeline.open_loop_timed_dispatch", round);
    double dispatch_ns = 0;
    {
      sdt::wire::FileSource src(w.pcap);
      Box timed(w, rules, sink, /*timed_dispatch=*/true);
      run_pass(timed, src, PassMode::open_loop, w, oracle, sink, tally);
      const TimedRuntimePipe& tp = *timed.timed_pipe();
      dispatch_ns = per(static_cast<double>(tp.feed_ns), tp.feeds);
    }
    sp.end(s);
    metric("runtime.dispatch_ns_per_pkt", "ns", dispatch_ns);

    // --- single-threaded layer replay ---------------------------------------
    const int replay = sp.begin("replay", round);
    std::vector<Packet> pkts;
    pkts.reserve(n);
    sdt::wire::FileSource src(w.pcap);
    const double capture_ns =
        timed_layer(sp, replay, "wire.capture", n, [&](std::size_t b, std::size_t e) {
      src.poll(pkts, e - b);
    });
    if (pkts.size() != n) throw std::runtime_error("capture replay lost packets");
    metric("wire.capture_ns_per_pkt", "ns", per(capture_ns, n));

    double router_ns = 0;
    {
      sdt::wire::NullSink null_sink;
      EchoPipe echo;
      sdt::wire::VerdictRouter router(echo, null_sink);
      echo.router = &router;
      std::vector<Packet> copies;
      router_ns = timed_layer(
          sp, replay, "wire.router", n,
          [&](std::size_t, std::size_t) {
            for (std::size_t k = 0; k < copies.size(); ++k) {
              router.submit(std::move(copies[k]));
              if (k % 256 == 255) router.poll();
            }
            router.poll();
          },
          [&](std::size_t b, std::size_t e) {
            copies.assign(pkts.begin() + static_cast<std::ptrdiff_t>(b),
                          pkts.begin() + static_cast<std::ptrdiff_t>(e));
          });
      router.finish();
    }
    metric("wire.router_ns_per_pkt", "ns", per(router_ns, n));

    std::vector<sdt::net::PacketIndex> idx(n);
    const double parse_ns =
        timed_layer(sp, replay, "net.parse", n, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        idx[i] = sdt::net::PacketIndex::index(pkts[i].frame, sdt::net::LinkType::raw_ipv4);
      }
    });
    metric("net.parse_ns_per_pkt", "ns", per(parse_ns, n));
    std::vector<PacketView> pv(n);
    std::vector<std::uint64_t> ts(n);
    std::vector<std::size_t> tcp, payloads, frags;
    for (std::size_t i = 0; i < n; ++i) {
      pv[i] = idx[i].view(pkts[i].frame);
      ts[i] = pkts[i].ts_usec;
      if (pv[i].ok() && pv[i].has_tcp) {
        tcp.push_back(i);
        if (!pv[i].l4_payload.empty()) payloads.push_back(i);
      }
      if (pv[i].is_fragment()) frags.push_back(i);
    }

    std::uint64_t csum_bytes = 0;
    std::uint32_t csum_acc = 0;
    const double csum_ns =
        timed_layer(sp, replay, "net.checksum", tcp.size(), [&](std::size_t b, std::size_t e) {
      for (std::size_t k = b; k < e; ++k) {
        csum_acc += sdt::net::transport_checksum(pv[tcp[k]]);
        csum_bytes += pv[tcp[k]].l4_span.size();
      }
    });
    if (csum_acc != 0) std::fprintf(stderr, "note: %u checksum residue over the trace\n", csum_acc);
    metric("net.checksum_ns_per_byte", "ns/B", per(csum_ns, csum_bytes));

    {
      // One lane's share of the key sequence, at that lane's table budget.
      std::vector<sdt::flow::FlowKey> keys;
      std::vector<std::uint64_t> key_ts;
      for (std::size_t i = 0; i < n; ++i) {
        if ((pv[i].has_tcp || pv[i].has_udp) && pv[i].ok() &&
            sdt::runtime::address_pair_lane(pv[i], kLanes) == 0) {
          keys.push_back(sdt::flow::make_flow_ref(pv[i]).key);
          key_ts.push_back(ts[i]);
        }
      }
      sdt::flow::FlowTable<sdt::core::FastFlowState>::Config tc;
      tc.max_flows = lane_budget;
      tc.idle_timeout_usec = 60ull * 1000 * 1000;
      sdt::flow::FlowTable<sdt::core::FastFlowState> table(tc);
      const double upsert_ns =
          timed_layer(sp, replay, "flow.table", keys.size(), [&](std::size_t b, std::size_t e) {
        for (std::size_t k = b; k < e; ++k) table.get_or_create(keys[k], key_ts[k]).have_seq ^= 1;
      });
      metric("flow.upsert_ns", "ns", per(upsert_ns, keys.size()));
      metric("flow.evictions", "count", static_cast<double>(table.evictions()));
    }

    const sdt::runtime::RuntimeConfig rc = runtime_config(w);
    {
      sdt::core::FastPath fp(rules, rc.engine.fast);
      std::vector<sdt::core::FastDecision> out(kBatch);
      const double ns =
          timed_layer(sp, replay, "core.fast_path", n, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; i += kBatch) {
          fp.process_batch(&pv[i], &ts[i], std::min(kBatch, e - i), out.data());
        }
      });
      metric("core.fast_path_ns_per_pkt", "ns", per(ns, n));
    }

    std::vector<sdt::core::Action> actions(n);
    sdt::core::SplitDetectEngine eng(rules, rc.engine);
    std::vector<sdt::core::Alert> alerts;
    const double engine_ns =
        timed_layer(sp, replay, "core.engine", n, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; i += kBatch) {
        eng.process_batch(&pv[i], &ts[i], std::min(kBatch, e - i), alerts, &actions[i]);
      }
      eng.expire(ts[e - 1]);
    });
    const sdt::core::SplitDetectStats es = eng.stats_snapshot();
    metric("core.engine_ns_per_pkt", "ns", per(engine_ns, n));
    metric("core.diverted_pkt_share", "ratio",
           per(static_cast<double>(es.diverted_packets), es.packets));
    std::vector<std::size_t> diverted;
    std::set<std::uint32_t> divert_flows, alert_flows;
    for (std::size_t i = 0; i < n; ++i) {
      if (actions[i] == sdt::core::Action::forward) continue;
      diverted.push_back(i);
      divert_flows.insert(w.flow_of[i]);
      if (actions[i] == sdt::core::Action::alert) alert_flows.insert(w.flow_of[i]);
    }
    metric("slow.useful_divert_share", "ratio",
           per(static_cast<double>(alert_flows.size()), divert_flows.size()));

    {
      sdt::core::ConventionalIpsConfig cc = sdt::core::derive_slow_config(rc.engine);
      cc.max_flows = w.max_flows;
      cc.takeover_slack = 0;
      sdt::core::ConventionalIps conv(rules, cc);
      std::vector<sdt::core::Alert> conv_alerts;
      const double conv_ns =
          timed_layer(sp, replay, "core.conventional", n, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) conv.process(pv[i], ts[i], conv_alerts);
      });
      metric("core.processing_ratio", "ratio", engine_ns / conv_ns);
      metric("core.state_ratio", "ratio",
             static_cast<double>(eng.flow_state_bytes()) /
                 static_cast<double>(conv.flow_state_bytes()));
    }

    {
      const sdt::core::PieceSet& ps = rules->pieces();
      std::vector<sdt::match::PrefilterWindow> wins;
      std::size_t cleared = 0;
      std::uint64_t bytes = 0;
      for (std::size_t k : payloads) bytes += pv[k].l4_payload.size();
      if (!ps.prefilter().usable()) throw std::runtime_error("piece prefilter unusable");
      const double pre_ns =
          timed_layer(sp, replay, "match.prefilter", payloads.size(),
                      [&](std::size_t b, std::size_t e) {
        for (std::size_t k = b; k < e; ++k) {
          wins.clear();
          if (ps.prefilter().windows(pv[payloads[k]].l4_payload, wins) == 0) ++cleared;
        }
      });
      metric("match.prefilter_ns_per_byte", "ns/B", per(pre_ns, bytes));
      metric("match.prefilter_pass_share", "ratio",
             per(static_cast<double>(cleared), payloads.size()));
      std::vector<sdt::ByteView> views(kBatch);
      std::vector<std::uint8_t> hit(kBatch);
      const double dfa_ns =
          timed_layer(sp, replay, "match.dfa", payloads.size(), [&](std::size_t b, std::size_t e) {
        for (std::size_t k = b; k < e; k += kBatch) {
          const std::size_t m2 = std::min(kBatch, e - k);
          for (std::size_t j = 0; j < m2; ++j) views[j] = pv[payloads[k + j]].l4_payload;
          ps.flat().contains_any_batch(views.data(), m2, hit.data());
        }
      });
      metric("match.dfa_ns_per_byte", "ns/B", per(dfa_ns, bytes));
      metric("match.automaton_mib", "MiB",
             static_cast<double>(rules->memory_bytes()) / (1024.0 * 1024.0));
    }

    {
      sdt::core::ConventionalIps slow(rules, sdt::core::derive_slow_config(rc.engine));
      std::vector<sdt::core::Alert> slow_alerts;
      const double ns =
          timed_layer(sp, replay, "slow.diverted", diverted.size(),
                      [&](std::size_t b, std::size_t e) {
        for (std::size_t k = b; k < e; ++k) {
          slow.process(pv[diverted[k]], ts[diverted[k]], slow_alerts);
        }
      });
      metric("slow.ns_per_diverted_pkt", "ns", per(ns, diverted.size()));
    }

    {
      sdt::reassembly::IpDefragmenter defrag(rc.engine.defrag);
      const double ns =
          timed_layer(sp, replay, "reassembly.defrag", frags.size(),
                      [&](std::size_t b, std::size_t e) {
        for (std::size_t k = b; k < e; ++k) (void)defrag.add(pv[frags[k]], ts[frags[k]]);
      });
      metric("reassembly.defrag_ns_per_fragment", "ns", per(ns, frags.size()));
    }

    {
      sdt::telemetry::LogHistogram h;
      const double ns =
          timed_layer(sp, replay, "telemetry.record", n, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) h.record(pkts[i].frame.size() * 977 + i);
      });
      metric("telemetry.record_ns", "ns", per(ns, n));
    }
    sp.end(replay);

    // Share of the untraced pass's CPU (feeder thread + lane busy time) that
    // the traced layers do not account for.
    const double traced_ns_per_pkt =
        per(capture_ns, n) + per(router_ns, n) + dispatch_ns + per(engine_ns, n);
    metric("ledger.unattributed_share", "ratio", 1.0 - traced_ns_per_pkt / untraced_cpu_ns_per_pkt);
    sp.end(round);
  } while (static_cast<double>(now_ns() - m0) / 1e9 < args.seconds);
  sp.end(root);

  if (!args.spans_path.empty()) sp.write(args.spans_path, w.name, args.seed);
  std::vector<Metric> m;
  for (auto& [mm, vs] : series) m.push_back({mm.name, mm.unit, median(vs)});
  print_result(tally, m);
  return 0;
}

}  // namespace inlinebench
