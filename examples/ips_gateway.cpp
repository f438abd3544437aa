// Offline IPS gateway: run any pcap capture through the multi-threaded
// Split-Detect runtime (flow-hash dispatcher → SPSC rings → one engine per
// lane thread) and print verdicts plus live runtime statistics.
//
//   $ ./ips_gateway capture.pcap                  # default corpus, p = 8
//   $ ./ips_gateway capture.pcap 12               # piece length 12
//   $ ./ips_gateway capture.pcap 8 my.rules       # Snort-style rule file
//   $ ./ips_gateway capture.pcap 8 my.rules --json  # machine-readable output
//   $ ./ips_gateway capture.pcap --lanes 8        # more detector lanes
//   $ ./ips_gateway capture.pcap --lanes 16 --dispatchers 2  # sharded ingest
//   $ ./ips_gateway capture.pcap --stats-interval 1   # live metrics dump
//   $ ./ips_gateway capture.pcap --repeat 50      # sustain load (demo/soak)
//   $ ./ips_gateway capture.pcap 8 my.rules --control-socket /tmp/sdt.sock
//
// Wire front-ends (sdt::wire): every packet — offline or live — enters
// through a CaptureSource, so the replay path in CI is the same code a
// deployment runs. Live capture (needs the backend compiled in and
// CAP_NET_RAW):
//
//   $ ./ips_gateway --live eth0                   # afpacket if built, else pcap
//   $ ./ips_gateway --source pcap --live eth0     # force the libpcap backend
//
// Inline mode holds each packet until the engine rules on it and releases
// accept/drop/divert in capture order through a VerdictSink; packets the
// engine cannot judge inside --latency-budget-us (or past --hold-capacity)
// are shed per --fail-open / --fail-closed (default fail-closed: unjudged
// packets do NOT leave the box). The conservation law captured ==
// accepted + dropped + diverted + shed is asserted at exit.
//
//   $ ./ips_gateway capture.pcap --inline --latency-budget-us 20000
//   $ ./ips_gateway capture.pcap --inline --fail-open --egress-pcap out.pcap
//
// Rule lifecycle: signatures are compiled once, off the packet path, into a
// versioned immutable artifact published through a RuleSetRegistry; every
// lane adopts new versions at packet boundaries (RCU-style, one atomic
// load per loop iteration). Two reload triggers while traffic flows:
//
//   * --control-socket PATH — admin endpoint (`reload <file>`,
//     `ruleset-status`, `stats`, `ping`); try `nc -U /tmp/sdt.sock`.
//   * SIGHUP — re-compiles and republishes the rule file given on the
//     command line (classic daemon convention). A bad file rejects the
//     reload and the previously active version keeps running.
//
// Works on Ethernet and raw-IPv4 captures. If no path is given, forges a
// small mixed trace to a temp file first so the example is self-contained.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "control/compiler.hpp"
#include "control/control_plane.hpp"
#include "control/registry.hpp"
#include "core/report.hpp"
#include "core/rules.hpp"
#include "evasion/corpus.hpp"
#include "evasion/trace_io.hpp"
#include "evasion/traffic_gen.hpp"
#include "pcap/pcapng.hpp"
#include "runtime/runtime.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/sink.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "wire/capture.hpp"
#include "wire/egress.hpp"
#include "wire/verdict_router.hpp"

namespace {

// SIGHUP just raises a flag; the real reload (compile + publish) runs on
// the main thread between feed batches — the handler itself stays
// async-signal-safe by doing nothing interesting.
std::atomic<bool> g_sighup{false};
// SIGINT ends the capture loop cleanly (live sources run until told to
// stop); verdicts for everything already captured are still collected.
std::atomic<bool> g_stop{false};

std::string make_demo_capture() {
  using namespace sdt;
  const std::string path =
      (std::filesystem::temp_directory_path() / "sdt_gateway_demo.pcap")
          .string();
  evasion::TrafficConfig tc;
  tc.flows = 300;
  tc.seed = 42;
  evasion::AttackMix mix;
  mix.attack_fraction = 0.03;
  mix.kind = evasion::EvasionKind::combo_tiny_ooo;
  const auto trace =
      evasion::generate_mixed(tc, evasion::default_corpus(32), mix);
  evasion::write_trace(path, trace.packets);
  std::printf("no capture given; forged %zu-packet demo trace at %s\n",
              trace.packets.size(), path.c_str());
  return path;
}

void print_diagnostics(const std::vector<sdt::core::RuleDiagnostic>& diags) {
  for (const auto& d : diags) {
    if (d.line != 0) {
      std::fprintf(stderr, "rules [%s] line %zu: %s\n",
                   sdt::core::to_string(d.severity), d.line, d.reason.c_str());
    } else {
      std::fprintf(stderr, "rules [%s]: %s\n",
                   sdt::core::to_string(d.severity), d.reason.c_str());
    }
  }
}

std::string runtime_stats_json(const sdt::runtime::StatsSnapshot& st) {
  sdt::JsonWriter j;
  j.begin_object();
  j.field("fed", st.fed);
  j.field("processed", st.processed);
  j.field("dropped", st.dropped);
  j.field("rejected_malformed", st.rejected);
  j.field("non_ip", st.non_ip);
  j.field("alerts", st.alerts);
  j.field("diverted_packets", st.diverted);
  j.field("diverted_fraction", st.diverted_fraction());
  j.field("ruleset_adoptions", st.adoptions);
  j.field("min_adopted_version", st.min_adopted_version());
  j.field("arena_heap_fallbacks", st.arena_heap_fallbacks());
  j.field("arena_outstanding", st.arena_outstanding());
  {
    const sdt::telemetry::HistogramSnapshot lat = st.latency_ns();
    j.key("latency_ns").begin_object();
    j.field("count", lat.count);
    j.field("p50", lat.p50());
    j.field("p90", lat.p90());
    j.field("p99", lat.p99());
    j.field("max", lat.max);
    j.end_object();
  }
  j.key("lanes").begin_array();
  for (const auto& l : st.lanes) {
    j.begin_object();
    j.field("fed", l.fed);
    j.field("processed", l.processed);
    j.field("dropped", l.dropped);
    j.field("non_ip", l.non_ip);
    j.field("bytes", l.bytes);
    j.field("alerts", l.alerts);
    j.field("diverted", l.diverted);
    j.field("busy_ns", l.busy_ns);
    j.field("adoptions", l.adoptions);
    j.field("adopted_version", l.adopted_version);
    j.field("ring_high_water", static_cast<std::uint64_t>(l.ring_high_water));
    {
      j.key("arena").begin_object();
      j.field("borrows", l.arena.borrows);
      j.field("recycles", l.arena.recycles);
      j.field("exhausted", l.arena.exhausted);
      j.field("heap_fallbacks", l.arena.heap_fallbacks);
      j.field("outstanding", l.arena.outstanding());
      j.field("high_water", l.arena.high_water);
      j.field("slots", static_cast<std::uint64_t>(l.arena.slots));
      j.end_object();
    }
    j.end_object();
  }
  j.end_array();
  j.key("dispatchers").begin_array();
  for (const auto& d : st.dispatchers) {
    j.begin_object();
    j.field("ingested", d.ingested);
    j.field("consumed", d.consumed);
    j.field("rejected", d.rejected);
    j.field("flushes", d.flushes);
    j.field("flush_timeouts", d.flush_timeouts);
    j.field("busy_ns", d.busy_ns);
    j.field("ring_high_water", static_cast<std::uint64_t>(d.ring_high_water));
    j.field("ring_capacity", static_cast<std::uint64_t>(d.ring_capacity));
    j.end_object();
  }
  j.end_array();
  j.end_object();
  return j.str();
}

std::string capture_stats_json(const sdt::wire::CaptureSource& src) {
  sdt::JsonWriter j;
  const sdt::wire::CaptureStats cs = src.stats();
  j.begin_object();
  j.field("backend", std::string(src.backend()));
  j.field("delivered", cs.delivered);
  j.field("kernel_dropped", cs.kernel_dropped);
  j.field("truncated", cs.truncated);
  j.end_object();
  return j.str();
}

std::string wire_stats_json(const sdt::wire::VerdictRouter& router) {
  sdt::JsonWriter j;
  const sdt::wire::WireStats ws = router.stats();
  j.begin_object();
  j.field("policy", std::string(sdt::wire::to_string(router.config().policy)));
  j.field("latency_budget_us", router.config().latency_budget_us);
  j.field("captured", ws.captured);
  j.field("accepted", ws.accepted);
  j.field("dropped", ws.dropped);
  j.field("diverted", ws.diverted);
  j.field("shed", ws.shed);
  j.field("shed_budget_expired", ws.budget_expired);
  j.field("shed_hold_overflow", ws.hold_overflow);
  j.field("shed_overload", ws.overload_shed);
  j.field("rejected_malformed", ws.rejected_malformed);
  j.field("capture_kernel_dropped", ws.kernel_dropped);
  j.field("late_verdicts", ws.late_verdicts);
  j.field("held_peak", ws.held_peak);
  j.field("conserved", ws.conserved());
  {
    const sdt::telemetry::HistogramSnapshot lat = router.verdict_latency_ns();
    j.key("verdict_latency_ns").begin_object();
    j.field("count", lat.count);
    j.field("p50", lat.p50());
    j.field("p90", lat.p90());
    j.field("p99", lat.p99());
    j.field("max", lat.max);
    j.end_object();
  }
  j.end_object();
  return j.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sdt;

  // Flags anywhere on the command line; the rest are positional.
  bool json = false;
  std::size_t lanes = 4;
  std::size_t dispatchers = 0;  // 0 = inline dispatch on the feeder thread
  double stats_interval_s = 0.0;  // 0 = no live dumps
  std::size_t repeat = 1;
  std::string control_socket;
  // Wire front-end / inline-verdict options.
  std::string source_name;  // "", "file", "pcap", "afpacket"
  std::string live_device;
  bool inline_mode = false;
  wire::RouterConfig router_cfg;
  router_cfg.latency_budget_us = 20000;  // gateway default: 20 ms
  std::string egress_pcap;
  std::vector<std::string> pos;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json") {
      json = true;
    } else if (a == "--source" && i + 1 < argc) {
      source_name = argv[++i];
      if (source_name != "file" && source_name != "pcap" &&
          source_name != "afpacket") {
        std::fprintf(stderr,
                     "error: --source must be file|pcap|afpacket, got %s\n",
                     source_name.c_str());
        return 2;
      }
    } else if (a == "--live" && i + 1 < argc) {
      live_device = argv[++i];
    } else if (a == "--inline") {
      inline_mode = true;
    } else if (a == "--fail-open") {
      router_cfg.policy = wire::HoldPolicy::fail_open;
    } else if (a == "--fail-closed") {
      router_cfg.policy = wire::HoldPolicy::fail_closed;
    } else if (a == "--latency-budget-us" && i + 1 < argc) {
      const long n = std::strtol(argv[++i], nullptr, 10);
      if (n < 1) {
        std::fprintf(stderr, "error: --latency-budget-us must be >= 1\n");
        return 2;
      }
      router_cfg.latency_budget_us = static_cast<std::uint64_t>(n);
    } else if (a == "--hold-capacity" && i + 1 < argc) {
      const long n = std::strtol(argv[++i], nullptr, 10);
      if (n < 1) {
        std::fprintf(stderr, "error: --hold-capacity must be >= 1\n");
        return 2;
      }
      router_cfg.hold_capacity = static_cast<std::size_t>(n);
    } else if (a == "--egress-pcap" && i + 1 < argc) {
      egress_pcap = argv[++i];
    } else if (a == "--stats-interval" && i + 1 < argc) {
      stats_interval_s = std::atof(argv[++i]);
      if (stats_interval_s <= 0.0) {
        std::fprintf(stderr, "error: --stats-interval must be > 0 seconds\n");
        return 2;
      }
    } else if (a == "--repeat" && i + 1 < argc) {
      const long n = std::strtol(argv[++i], nullptr, 10);
      if (n < 1) {
        std::fprintf(stderr, "error: --repeat must be >= 1\n");
        return 2;
      }
      repeat = static_cast<std::size_t>(n);
    } else if (a == "--lanes" && i + 1 < argc) {
      const long n = std::strtol(argv[++i], nullptr, 10);
      if (n < 1 || n > 1024) {
        std::fprintf(stderr, "error: --lanes must be in [1, 1024], got %s\n",
                     argv[i]);
        return 2;
      }
      lanes = static_cast<std::size_t>(n);
    } else if (a == "--dispatchers" && i + 1 < argc) {
      // 0 is a legal value (inline dispatch), so a plain range check would
      // let strtol's garbage-input 0 through silently — require digits.
      char* end = nullptr;
      const long n = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || n < 0 || n > 64) {
        std::fprintf(stderr, "error: --dispatchers must be in [0, 64], got %s\n",
                     argv[i]);
        return 2;
      }
      dispatchers = static_cast<std::size_t>(n);
    } else if (a == "--control-socket" && i + 1 < argc) {
      control_socket = argv[++i];
    } else {
      pos.push_back(a);
    }
  }

  // Resolve the capture front-end. --live DEV implies a live backend
  // (afpacket when built in, else pcap); --source forces one.
  wire::SourceSpec spec;
  if (!live_device.empty()) {
    spec.target = live_device;
    if (source_name.empty() || source_name == "afpacket") {
      spec.kind = wire::SourceKind::afpacket;
      if (source_name.empty() &&
          !wire::backend_available(wire::SourceKind::afpacket)) {
        spec.kind = wire::SourceKind::pcap_live;
      }
    } else if (source_name == "pcap") {
      spec.kind = wire::SourceKind::pcap_live;
    } else {
      std::fprintf(stderr, "error: --live needs a live --source, not file\n");
      return 2;
    }
  } else {
    if (!source_name.empty() && source_name != "file") {
      std::fprintf(stderr, "error: --source %s needs --live <device>\n",
                   source_name.c_str());
      return 2;
    }
    spec.kind = wire::SourceKind::file;
    spec.target = !pos.empty() ? pos[0] : make_demo_capture();
    spec.repeat = repeat;
  }
  const std::size_t piece_len =
      pos.size() > 1 ? static_cast<std::size_t>(std::atoi(pos[1].c_str())) : 8;
  const std::string rules_path = pos.size() > 2 ? pos[2] : "";

  std::unique_ptr<wire::CaptureSource> source;
  try {
    source = wire::open_source(spec);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  runtime::RuntimeConfig rc;
  rc.lanes = lanes;
  rc.dispatchers = dispatchers;
  rc.link = source->link_type();
  rc.engine.fast.piece_len = piece_len;

  // Rule lifecycle plumbing. The compiler's options mirror the lane engine
  // configuration so a published artifact is always adoptable (same piece
  // length and phase sample); a rule too short to split is dropped
  // with a diagnostic instead of failing the load — the reload semantics.
  control::RuleSetRegistry registry;
  control::RuleCompiler compiler(core::compile_options(rc.engine.fast));

  // Version 1: the rule file if given, else the built-in demo corpus.
  control::CompileResult v1 =
      !rules_path.empty()
          ? compiler.compile_file(rules_path, registry.allocate_version())
          : compiler.compile_signatures(evasion::default_corpus(2 * piece_len),
                                        "default-corpus",
                                        registry.allocate_version());
  print_diagnostics(v1.report.diagnostics);
  if (!v1.ok()) {
    std::fprintf(stderr, "error: rule compile failed; nothing to run\n");
    return 2;
  }
  registry.publish(v1.ruleset);
  std::printf("loaded %zu signatures as ruleset v%" PRIu64
              " (piece length %zu, min usable %zu, %zu dropped short)\n",
              v1.ruleset->signatures().size(), v1.ruleset->version(),
              piece_len, 2 * piece_len, v1.report.dropped_short);

  runtime::Runtime rt(registry.current(), rc);
  rt.attach_registry(registry);

  // Inline-mode plumbing: the router is the runtime's VerdictFeedback (it
  // must be installed before start()) and the wire mirror for stats().
  wire::CountingSink counting_sink;
  std::unique_ptr<wire::PcapEgressSink> egress_sink;
  wire::VerdictSink* sink = &counting_sink;
  if (!egress_pcap.empty()) {
    egress_sink = std::make_unique<wire::PcapEgressSink>(
        egress_pcap, source->link_type(), &counting_sink);
    sink = egress_sink.get();
  }
  std::unique_ptr<wire::RuntimePipe> pipe;
  std::unique_ptr<wire::VerdictRouter> router;
  if (inline_mode) {
    pipe = std::make_unique<wire::RuntimePipe>(rt);
    router = std::make_unique<wire::VerdictRouter>(*pipe, *sink, router_cfg);
    rt.set_verdict_feedback(router.get());
    rt.attach_wire_stats(router.get());
  }

  // Every runtime counter, histogram and gauge, addressable by name — the
  // contract lives in docs/OBSERVABILITY.md. The dumper thread polls the
  // live scope (engine-internal gauges are quiescent-only) while the
  // dispatcher and lanes run.
  telemetry::MetricsRegistry metrics;
  rt.register_metrics(metrics, "runtime");
  registry.register_metrics(metrics, "control");
  compiler.register_metrics(metrics, "control");
  if (router) router->register_metrics(metrics, "wire");
  telemetry::HumanSink live_sink(stderr, /*skip_zero=*/true);
  telemetry::PeriodicDumper dumper(
      metrics, live_sink,
      std::chrono::milliseconds(
          static_cast<long>(stats_interval_s * 1000.0)));
  if (stats_interval_s > 0.0) dumper.start();

  // The admin surface: a `reload` arriving over the socket publishes
  // through the same registry the lanes watch, so it takes effect while
  // packets flow. SIGHUP funnels into the same execute() path.
  control::ControlPlane cp(compiler, registry);
  cp.set_stats_provider([&metrics] {
    return metrics.snapshot(telemetry::SampleScope::live).to_json();
  });
  if (!control_socket.empty()) {
    try {
      cp.start(control_socket);
      std::printf("control plane listening on %s\n", control_socket.c_str());
    } catch (const Error& e) {
      std::fprintf(stderr, "error: control socket: %s\n", e.what());
      return 2;
    }
  }
  std::signal(SIGHUP, [](int) { g_sighup.store(true); });
  const auto service_sighup = [&] {
    if (!g_sighup.exchange(false)) return;
    if (rules_path.empty()) {
      std::fprintf(stderr,
                   "SIGHUP: no rule file on the command line to reload\n");
      return;
    }
    const std::string resp = cp.execute("reload " + rules_path);
    std::fprintf(stderr, "SIGHUP reload: %s\n", resp.c_str());
  };

  std::signal(SIGINT, [](int) { g_stop.store(true); });

  rt.start();
  // The one capture loop both modes share: poll the source in batches,
  // push each batch into the pipeline, service SIGHUP reloads in between.
  // Tap mode moves whole batches into feed() (no deep copy — frames are
  // parsed once and arena-copied at the dispatcher). Inline mode submits
  // each frame through the router, which stamps a ticket, feeds the
  // runtime a borrowed view, and holds the frame until its verdict comes
  // back; poll() releases verdicts (and budget-sheds) per batch.
  constexpr std::size_t kBatch = 256;
  std::vector<net::Packet> batch;
  batch.reserve(kBatch);
  std::uint64_t kernel_drops_seen = 0;
  while (!g_stop.load(std::memory_order_relaxed) && !source->exhausted()) {
    service_sighup();
    batch.clear();
    const std::size_t n = source->poll(batch, kBatch);
    if (router) {
      for (auto& pkt : batch) router->submit(std::move(pkt));
      router->poll();
      const std::uint64_t kd = source->stats().kernel_dropped;
      if (kd > kernel_drops_seen) {
        router->note_kernel_drops(kd - kernel_drops_seen);
        kernel_drops_seen = kd;
      }
    } else if (n > 0) {
      rt.feed(std::move(batch));
      batch = std::vector<net::Packet>();
      batch.reserve(kBatch);
    }
    if (n == 0 && !source->exhausted()) {
      // Live source, momentarily idle: let held verdicts release instead
      // of spinning the capture syscall.
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  int wire_rc = 0;
  if (router) {
    // Collect every outstanding verdict and assert the conservation law;
    // a breach means the wire layer lost track of a packet — loud exit.
    try {
      router->finish();
    } catch (const Error& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      wire_rc = 3;
    }
  }
  rt.stop();
  cp.stop();
  if (stats_interval_s > 0.0) {
    dumper.stop();
    std::fprintf(stderr, "(live stats: %" PRIu64 " dump(s) at %.1fs)\n",
                 dumper.ticks(), stats_interval_s);
  }

  // Names resolve against the newest artifact: in this offline example a
  // reload recompiles the same file, so ids line up across versions.
  const core::RuleSetHandle active = registry.current();
  const core::SignatureSet& sigs = active->signatures();

  std::vector<core::Alert> alerts = rt.alerts();
  // Lanes finish in their own order; present alerts in capture-time order.
  std::stable_sort(alerts.begin(), alerts.end(),
                   [](const core::Alert& a, const core::Alert& b) {
                     return a.ts_usec < b.ts_usec;
                   });

  const runtime::StatsSnapshot st = rt.stats();
  const std::size_t capture_packets = source->stats().delivered;

  if (json) {
    std::string wire_json;
    if (router) {
      wire_json = ",\"wire\":" + wire_stats_json(*router);
    }
    std::printf("{\"alerts\":%s,\"runtime\":%s,\"capture\":%s%s,"
                "\"ruleset\":%s}\n",
                core::alerts_json(alerts, sigs).c_str(),
                runtime_stats_json(st).c_str(),
                capture_stats_json(*source).c_str(), wire_json.c_str(),
                registry.status_json().c_str());
    if (wire_rc != 0) return wire_rc;
    return alerts.empty() ? 0 : 1;
  }

  for (const core::Alert& a : alerts) {
    const char* name = a.signature_id == core::kConflictAlertId
                           ? "(conflicting retransmission)"
                       : a.signature_id == core::kUrgentAlertId
                           ? "(urgent-mode ambiguity)"
                       : a.signature_id < sigs.size()
                           ? sigs[a.signature_id].name.c_str()
                           : "(signature from retired version)";
    std::printf("ALERT %-28s flow %s  source=%s\n", name,
                a.flow.str().c_str(), a.source);
  }

  // Deep per-path stats live in each lane's private engine; sum them.
  std::uint64_t fast_scanned = 0, slow_scanned = 0;
  std::size_t fast_state = 0, slow_state = 0, flows_seen = 0, diverted = 0;
  for (std::size_t i = 0; i < rt.lanes(); ++i) {
    const core::SplitDetectStats es = rt.lane_engine(i).stats_snapshot();
    fast_scanned += es.fast.bytes_scanned;
    slow_scanned += es.slow.bytes_scanned;
    fast_state += rt.lane_engine(i).fast_path().flow_state_bytes();
    slow_state += rt.lane_engine(i).slow_path().flow_state_bytes();
    flows_seen += es.fast.flows_seen;
    diverted += es.fast.flows_diverted;
  }

  if (rt.dispatchers() > 0) {
    std::printf("\n=== runtime statistics (%zu lanes, %zu dispatchers) ===\n",
                rt.lanes(), rt.dispatchers());
  } else {
    std::printf("\n=== runtime statistics (%zu lanes, inline dispatch) ===\n",
                rt.lanes());
  }
  {
    const wire::CaptureStats cs = source->stats();
    std::printf("capture (%s)            delivered %llu, kernel dropped "
                "%llu, truncated %llu\n",
                source->backend(),
                static_cast<unsigned long long>(cs.delivered),
                static_cast<unsigned long long>(cs.kernel_dropped),
                static_cast<unsigned long long>(cs.truncated));
  }
  if (router) {
    const wire::WireStats ws = router->stats();
    std::printf("inline verdicts (%s)     captured %llu = accepted %llu + "
                "dropped %llu + diverted %llu + shed %llu%s\n",
                wire::to_string(router->config().policy),
                static_cast<unsigned long long>(ws.captured),
                static_cast<unsigned long long>(ws.accepted),
                static_cast<unsigned long long>(ws.dropped),
                static_cast<unsigned long long>(ws.diverted),
                static_cast<unsigned long long>(ws.shed),
                ws.conserved() ? "" : "  ** NOT CONSERVED **");
    std::printf("inline shed breakdown    budget %llu, hold overflow %llu, "
                "overload %llu (hold peak %llu/%zu)\n",
                static_cast<unsigned long long>(ws.budget_expired),
                static_cast<unsigned long long>(ws.hold_overflow),
                static_cast<unsigned long long>(ws.overload_shed),
                static_cast<unsigned long long>(ws.held_peak),
                router->config().hold_capacity);
    const telemetry::HistogramSnapshot vlat = router->verdict_latency_ns();
    if (!vlat.empty()) {
      std::printf("verdict latency          p50=%" PRIu64 " ns  p90=%" PRIu64
                  "  p99=%" PRIu64 "  max=%" PRIu64 " (budget %" PRIu64
                  " us)\n",
                  vlat.p50(), vlat.p90(), vlat.p99(), vlat.max,
                  router->config().latency_budget_us);
    }
    if (egress_sink) {
      std::printf("egress pcap              %llu forwarded frame(s) -> %s\n",
                  static_cast<unsigned long long>(
                      egress_sink->packets_written()),
                  egress_pcap.c_str());
    }
  }
  std::printf("packets processed        %llu of %zu captured (fed %llu, "
              "dropped %llu, rejected %llu malformed, non-IP %llu)\n",
              static_cast<unsigned long long>(st.processed), capture_packets,
              static_cast<unsigned long long>(st.fed),
              static_cast<unsigned long long>(st.dropped),
              static_cast<unsigned long long>(st.rejected),
              static_cast<unsigned long long>(st.non_ip));
  std::printf("alerts                   %llu\n",
              static_cast<unsigned long long>(st.alerts));
  std::printf("slow-path packet share   %.2f%%\n",
              100.0 * st.diverted_fraction());
  const telemetry::HistogramSnapshot lat = st.latency_ns();
  if (!lat.empty()) {
    std::printf("per-packet latency       p50=%" PRIu64 " ns  p90=%" PRIu64
                "  p99=%" PRIu64 "  max=%" PRIu64 "\n",
                lat.p50(), lat.p90(), lat.p99(), lat.max);
  }
  std::printf("ruleset                  v%" PRIu64 " active (%llu "
              "publish(es), %llu rejected, %llu adoption(s))\n",
              registry.current_version(),
              static_cast<unsigned long long>(registry.publishes()),
              static_cast<unsigned long long>(registry.rejected()),
              static_cast<unsigned long long>(st.adoptions));
  std::printf("flows seen               %zu (diverted %zu)\n", flows_seen,
              diverted);
  std::printf("fast-path bytes scanned  %s\n",
              human_bytes(static_cast<double>(fast_scanned)).c_str());
  std::printf("slow-path bytes scanned  %s\n",
              human_bytes(static_cast<double>(slow_scanned)).c_str());
  std::printf("fast-path state          %s\n",
              human_bytes(static_cast<double>(fast_state)).c_str());
  std::printf("slow-path state          %s\n",
              human_bytes(static_cast<double>(slow_state)).c_str());
  std::printf("packet arena             %llu borrow(s), %llu heap "
              "fallback(s), %llu still outstanding\n",
              static_cast<unsigned long long>(st.arena_borrows()),
              static_cast<unsigned long long>(st.arena_heap_fallbacks()),
              static_cast<unsigned long long>(st.arena_outstanding()));
  for (std::size_t i = 0; i < st.dispatchers.size(); ++i) {
    const auto& d = st.dispatchers[i];
    std::printf("dispatcher %zu: ingested %llu, consumed %llu, rejected "
                "%llu, %llu flush(es) (%llu on timeout), busy %.2f ms, "
                "ingest ring high-water %zu/%zu\n",
                i, static_cast<unsigned long long>(d.ingested),
                static_cast<unsigned long long>(d.consumed),
                static_cast<unsigned long long>(d.rejected),
                static_cast<unsigned long long>(d.flushes),
                static_cast<unsigned long long>(d.flush_timeouts),
                static_cast<double>(d.busy_ns) / 1e6, d.ring_high_water,
                d.ring_capacity);
  }
  for (std::size_t i = 0; i < st.lanes.size(); ++i) {
    const auto& l = st.lanes[i];
    std::printf("lane %zu: processed %llu (non-IP %llu), busy %.2f ms, ring "
                "high-water %zu/%zu, arena high-water %llu/%zu, flow budget "
                "%zu, alerts %llu, ruleset v%" PRIu64 "\n",
                i, static_cast<unsigned long long>(l.processed),
                static_cast<unsigned long long>(l.non_ip),
                static_cast<double>(l.busy_ns) / 1e6, l.ring_high_water,
                l.ring_capacity,
                static_cast<unsigned long long>(l.arena.high_water),
                l.arena.slots, l.fast_max_flows,
                static_cast<unsigned long long>(l.alerts), l.adopted_version);
  }
  if (wire_rc != 0) return wire_rc;
  return alerts.empty() ? 0 : 1;
}
