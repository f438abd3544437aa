// E11 — inline verdict soak: the wire front-end claim.
//
// Split-Detect only earns the word "inline" if holding every packet for
// its verdict stays cheap at scale: millions of flows through the
// capture→hold→verdict→egress path, with the verdict-latency tail inside
// the configured budget and every packet accounted for by the
// conservation law captured == accepted + dropped + diverted + shed.
//
// The soak streams segments of fresh flows (each segment its own seed, so
// flow tables keep turning over) through a FileSource replay into a
// VerdictRouter over the multi-lane runtime — the exact code path
// ips_gateway --inline runs, minus the process boundary. A well-behaved
// feeder backs off at half the hold depth, so sheds measure engine
// pressure, not feeder spin. The clock runs only while a segment is being
// submitted, polled and drained (plus the final finish()); trace
// generation and pcap parsing happen off the clock.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "evasion/corpus.hpp"
#include "evasion/trace_io.hpp"
#include "evasion/traffic_gen.hpp"
#include "runtime/runtime.hpp"
#include "util/error.hpp"
#include "wire/capture.hpp"
#include "wire/egress.hpp"
#include "wire/verdict_router.hpp"

namespace {

using namespace sdt;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct SoakResult {
  wire::WireStats wire;
  telemetry::HistogramSnapshot latency;
  std::uint64_t alerts = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t bytes = 0;
  std::uint64_t conservation_violations = 0;
};

SoakResult run_soak(std::size_t segments, std::size_t flows_per_segment,
                    std::uint64_t budget_us) {
  runtime::RuntimeConfig rc;
  rc.lanes = 4;
  rc.link = net::LinkType::raw_ipv4;
  rc.engine.fast.piece_len = 8;
  runtime::Runtime rt(evasion::default_corpus(16), rc);

  wire::RuntimePipe pipe(rt);
  wire::CountingSink sink;
  wire::RouterConfig rcfg;
  rcfg.latency_budget_us = budget_us;
  rcfg.policy = wire::HoldPolicy::fail_closed;
  wire::VerdictRouter router(pipe, sink, rcfg);
  rt.set_verdict_feedback(&router);
  rt.attach_wire_stats(&router);
  rt.start();

  SoakResult res;
  std::vector<net::Packet> packets;
  for (std::size_t seg = 0; seg < segments; ++seg) {
    // Fresh flows every segment: the hold, the ticket space, and the
    // engine flow tables all keep moving instead of reaching a fixed
    // point after the first pass. Generation and the pcap parse happen
    // before the clock starts: only submit/poll/drain is the inline rate.
    packets.clear();
    {
      evasion::TrafficConfig tc;
      tc.flows = flows_per_segment;
      tc.seed = 0xE11 + seg;
      evasion::AttackMix mix;
      mix.attack_fraction = 0.02;
      mix.kind = evasion::EvasionKind::combo_tiny_ooo;
      wire::FileSource src{evasion::trace_bytes(
          evasion::generate_mixed(tc, evasion::default_corpus(16), mix)
              .packets)};
      while (!src.exhausted()) src.poll(packets, 4096);
    }

    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < packets.size(); i += 256) {
      const std::size_t end = std::min(packets.size(), i + 256);
      for (std::size_t k = i; k < end; ++k) {
        res.bytes += packets[k].frame.size();
        router.submit(std::move(packets[k]));
      }
      router.poll();
      while (router.held() > rcfg.hold_capacity / 2) router.poll();
    }
    // Drain the hold before generating the next segment, so no packet
    // waits out the untimed generation gap.
    while (router.held() > 0) router.poll();
    res.wall_ns += now_ns() - t0;
  }
  const std::uint64_t t0 = now_ns();
  try {
    router.finish();
  } catch (const Error& e) {
    std::fprintf(stderr, "E11: %s\n", e.what());
    ++res.conservation_violations;
  }
  res.wall_ns += now_ns() - t0;
  res.wire = router.stats();
  if (!res.wire.conserved()) ++res.conservation_violations;
  res.latency = router.verdict_latency_ns();
  res.alerts = rt.stats().alerts;
  rt.stop();
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sdt;
  const auto opt = bench::Options::parse(argc, argv);

  const std::size_t segments = opt.sized(25, 3);
  const std::size_t flows_per_segment = opt.sized(40'000, 1'000);
  const std::uint64_t budget_us = 50'000;  // 50 ms tail budget
  const std::size_t total_flows = segments * flows_per_segment;

  bench::banner("E11_inline_soak",
                "inline verdict path sustains millions of flows with the "
                "latency tail inside budget and zero unaccounted packets");
  bench::row("workload: %zu segments x %zu flows = %zu flows, budget %.0f ms,"
             " fail-closed",
             segments, flows_per_segment, total_flows,
             static_cast<double>(budget_us) / 1000.0);

  const SoakResult r = run_soak(segments, flows_per_segment, budget_us);

  const double secs = static_cast<double>(r.wall_ns) / 1e9;
  const double pps = secs > 0 ? static_cast<double>(r.wire.captured) / secs : 0;
  const double gbps = secs > 0 ? static_cast<double>(r.bytes) * 8.0 / secs / 1e9
                               : 0;
  const std::uint64_t budget_ns = budget_us * 1000;
  const bool p99_over = r.latency.p99() > budget_ns;

  bench::row("");
  bench::row("captured   %12llu pkts in %.2f s  (%.2f Mpps, %.3f Gbit/s)",
             static_cast<unsigned long long>(r.wire.captured), secs, pps / 1e6,
             gbps);
  bench::row("verdicts   accepted %llu  dropped %llu  diverted %llu  shed %llu"
             "  (alerts %llu)",
             static_cast<unsigned long long>(r.wire.accepted),
             static_cast<unsigned long long>(r.wire.dropped),
             static_cast<unsigned long long>(r.wire.diverted),
             static_cast<unsigned long long>(r.wire.shed),
             static_cast<unsigned long long>(r.alerts));
  bench::row("sheds      budget %llu  hold-overflow %llu  overload %llu  "
             "(late verdicts absorbed %llu)",
             static_cast<unsigned long long>(r.wire.budget_expired),
             static_cast<unsigned long long>(r.wire.hold_overflow),
             static_cast<unsigned long long>(r.wire.overload_shed),
             static_cast<unsigned long long>(r.wire.late_verdicts));
  bench::row("latency    p50 %llu ns  p90 %llu  p99 %llu  max %llu  "
             "(budget %llu ns) -> p99 %s budget",
             static_cast<unsigned long long>(r.latency.p50()),
             static_cast<unsigned long long>(r.latency.p90()),
             static_cast<unsigned long long>(r.latency.p99()),
             static_cast<unsigned long long>(r.latency.max),
             static_cast<unsigned long long>(budget_ns),
             p99_over ? "OVER" : "within");
  bench::row("hold       peak %llu (capacity 4096)",
             static_cast<unsigned long long>(r.wire.held_peak));
  bench::row("conserved  %s (%llu violation(s))",
             r.conservation_violations == 0 ? "yes" : "NO",
             static_cast<unsigned long long>(r.conservation_violations));

  bench::JsonReport rep("E11_inline_soak",
                        "Inline verdict soak: latency tail and conservation "
                        "at flow scale",
                        opt);
  rep.metric("inline_soak.flows", static_cast<double>(total_flows), "flows");
  rep.metric("inline_soak.captured", static_cast<double>(r.wire.captured),
             "packets");
  rep.metric("inline_soak.accepted", static_cast<double>(r.wire.accepted),
             "packets");
  rep.metric("inline_soak.dropped", static_cast<double>(r.wire.dropped),
             "packets");
  rep.metric("inline_soak.diverted", static_cast<double>(r.wire.diverted),
             "packets");
  rep.metric("inline_soak.shed", static_cast<double>(r.wire.shed), "packets");
  rep.metric("inline_soak.shed_budget_expired",
             static_cast<double>(r.wire.budget_expired), "packets");
  rep.metric("inline_soak.shed_hold_overflow",
             static_cast<double>(r.wire.hold_overflow), "packets");
  rep.metric("inline_soak.shed_overload",
             static_cast<double>(r.wire.overload_shed), "packets");
  rep.metric("inline_soak.late_verdicts",
             static_cast<double>(r.wire.late_verdicts), "events");
  rep.metric("inline_soak.alerts", static_cast<double>(r.alerts), "alerts");
  rep.metric("inline_soak.pps", pps, "packets/s");
  rep.metric("inline_soak.gbps", gbps, "Gbit/s");
  rep.metric("inline_soak.verdict_p50_ns",
             static_cast<double>(r.latency.p50()), "ns");
  rep.metric("inline_soak.verdict_p90_ns",
             static_cast<double>(r.latency.p90()), "ns");
  rep.metric("inline_soak.verdict_p99_ns",
             static_cast<double>(r.latency.p99()), "ns");
  rep.metric("inline_soak.verdict_max_ns",
             static_cast<double>(r.latency.max), "ns");
  rep.metric("inline_soak.hold_peak", static_cast<double>(r.wire.held_peak),
             "packets");
  // Validator-gated invariants (INVARIANT_ZERO in validate_bench_json.py):
  // the soak FAILS, not just reports, when a packet goes missing or the
  // verdict tail escapes the budget.
  rep.metric("inline_soak.conservation_violations",
             static_cast<double>(r.conservation_violations), "events");
  rep.metric("inline_soak.p99_over_budget", p99_over ? 1.0 : 0.0, "events");
  if (!rep.write()) return 1;
  return r.conservation_violations == 0 ? 0 : 1;
}
