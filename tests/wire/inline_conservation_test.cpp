// Inline conservation under real concurrency: lane threads push verdicts
// into the router's SPSC rings while the feeder thread submits, polls,
// sheds, and releases. This is the TSan surface for sdt::wire (check.sh
// gates `ctest -L wire` under -fsanitize=thread): every counter, ring and
// edge-event handoff gets exercised with genuine cross-thread timing, and
// the conservation law must hold exactly at finish() no matter how the
// races interleave.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "evasion/corpus.hpp"
#include "evasion/trace_io.hpp"
#include "evasion/traffic_gen.hpp"
#include "runtime/runtime.hpp"
#include "wire/capture.hpp"
#include "wire/egress.hpp"
#include "wire/verdict_router.hpp"

namespace sdt::wire {
namespace {

Bytes traffic(std::size_t flows, std::uint64_t seed) {
  evasion::TrafficConfig tc;
  tc.flows = flows;
  tc.seed = seed;
  evasion::AttackMix mix;
  mix.attack_fraction = 0.05;
  mix.kind = evasion::EvasionKind::combo_tiny_ooo;
  const auto trace =
      evasion::generate_mixed(tc, evasion::default_corpus(16), mix);
  return evasion::trace_bytes(trace.packets);
}

struct RunResult {
  WireStats wire;
  runtime::StatsSnapshot runtime_stats;
  CountingSink sink;
};

RunResult run(const Bytes& capture, RouterConfig rcfg,
              runtime::RuntimeConfig rc, std::size_t repeat = 1,
              bool pace = false) {
  FileSource src{Bytes(capture), repeat};
  rc.link = src.link_type();
  runtime::Runtime rt(evasion::default_corpus(16), rc);
  RuntimePipe pipe(rt);
  CountingSink sink;
  VerdictRouter router(pipe, sink, rcfg);
  rt.set_verdict_feedback(&router);
  rt.attach_wire_stats(&router);
  rt.start();
  std::vector<net::Packet> batch;
  while (!src.exhausted()) {
    batch.clear();
    src.poll(batch, 128);
    for (auto& p : batch) router.submit(std::move(p));
    router.poll();
    // A well-behaved feeder backs off when the hold fills instead of
    // shedding its way through (sharded ingest is asynchronous, so the
    // feeder can outrun the dispatcher threads arbitrarily on one core).
    while (pace && router.held() > rcfg.hold_capacity / 2) {
      router.poll();
      std::this_thread::yield();
    }
  }
  router.finish();
  RunResult r{router.stats(), rt.stats(), sink};
  rt.stop();
  return r;
}

TEST(InlineConservation, HoldsAcrossLaneThreads) {
  const Bytes cap = traffic(200, 17);
  runtime::RuntimeConfig rc;
  rc.lanes = 4;
  RouterConfig rcfg;
  rcfg.latency_budget_us = 60'000'000;
  // Paced: an unpaced feeder outruns four lanes on a loaded host and sheds
  // on hold overflow, which is a property of the feeder, not of the law.
  const RunResult r = run(cap, rcfg, rc, /*repeat=*/3, /*pace=*/true);
  EXPECT_TRUE(r.wire.conserved());
  EXPECT_GT(r.wire.captured, 0u);
  EXPECT_EQ(r.wire.shed, 0u);
  EXPECT_EQ(r.wire.held, 0u);
  EXPECT_EQ(r.sink.total(), r.wire.captured);
  // The runtime's wire mirror agrees with the router.
  EXPECT_TRUE(r.runtime_stats.has_wire);
  EXPECT_EQ(r.runtime_stats.wire.total(), 0u);
}

TEST(InlineConservation, HoldsUnderShardedIngest) {
  // Sharded mode moves on_reject/on_shed onto dispatcher threads and adds
  // a deep copy at feed_borrowed — different edge-event producers, same
  // law.
  const Bytes cap = traffic(150, 23);
  runtime::RuntimeConfig rc;
  rc.lanes = 4;
  rc.dispatchers = 2;
  RouterConfig rcfg;
  rcfg.latency_budget_us = 60'000'000;
  const RunResult r = run(cap, rcfg, rc, /*repeat=*/2, /*pace=*/true);
  EXPECT_TRUE(r.wire.conserved());
  EXPECT_EQ(r.wire.shed, 0u);
  EXPECT_EQ(r.sink.total(), r.wire.captured);
}

TEST(InlineConservation, HoldsWhenHoldBufferOverflowsFailOpen) {
  // A 16-deep hold against multi-thousand-packet traffic guarantees
  // overflow sheds while verdicts race back — the exactly-once late-set
  // is the thing under test here.
  const Bytes cap = traffic(300, 31);
  runtime::RuntimeConfig rc;
  rc.lanes = 2;
  RouterConfig rcfg;
  rcfg.hold_capacity = 16;
  rcfg.policy = HoldPolicy::fail_open;
  rcfg.latency_budget_us = 60'000'000;
  const RunResult r = run(cap, rcfg, rc);
  EXPECT_TRUE(r.wire.conserved());
  EXPECT_EQ(r.wire.captured,
            r.wire.accepted + r.wire.dropped + r.wire.diverted + r.wire.shed);
  // Fail-open overflow still fed every frame: every shed produced a late
  // verdict, and none was double-counted.
  EXPECT_EQ(r.wire.late_verdicts, r.wire.hold_overflow + r.wire.budget_expired);
  EXPECT_EQ(r.sink.total(), r.wire.captured);
}

TEST(InlineConservation, HoldsWhenHoldBufferOverflowsFailClosed) {
  const Bytes cap = traffic(300, 37);
  runtime::RuntimeConfig rc;
  rc.lanes = 2;
  RouterConfig rcfg;
  rcfg.hold_capacity = 16;
  rcfg.policy = HoldPolicy::fail_closed;
  rcfg.latency_budget_us = 60'000'000;
  const RunResult r = run(cap, rcfg, rc);
  EXPECT_TRUE(r.wire.conserved());
  EXPECT_EQ(r.sink.count(WireVerdict::shed_block), r.wire.shed);
  EXPECT_EQ(r.sink.count(WireVerdict::shed_forward), 0u);
}

TEST(InlineConservation, HoldsUnderTinyLatencyBudget) {
  // A 1 us budget sheds essentially everything at the hold front while
  // real verdicts stream in behind — maximal late-set churn.
  const Bytes cap = traffic(100, 41);
  runtime::RuntimeConfig rc;
  rc.lanes = 2;
  RouterConfig rcfg;
  rcfg.latency_budget_us = 1;
  rcfg.policy = HoldPolicy::fail_closed;
  const RunResult r = run(cap, rcfg, rc);
  EXPECT_TRUE(r.wire.conserved());
  EXPECT_EQ(r.wire.held, 0u);
  EXPECT_EQ(r.sink.total(), r.wire.captured);
}

TEST(InlineConservation, HoldsUnderRuntimeDropPolicy) {
  // Tiny lane rings + drop overload policy force runtime-side sheds
  // (on_shed edge events from the dispatching thread) into the ledger.
  const Bytes cap = traffic(300, 43);
  runtime::RuntimeConfig rc;
  rc.lanes = 2;
  rc.ring_capacity = 8;
  rc.overload = runtime::OverloadPolicy::drop;
  RouterConfig rcfg;
  rcfg.latency_budget_us = 60'000'000;
  const RunResult r = run(cap, rcfg, rc);
  EXPECT_TRUE(r.wire.conserved());
  EXPECT_EQ(r.sink.total(), r.wire.captured);
  // Whatever the runtime dropped surfaced as overload sheds, mirrored in
  // the runtime snapshot too.
  EXPECT_EQ(r.runtime_stats.wire.overload_shed, r.wire.overload_shed);
}

}  // namespace
}  // namespace sdt::wire
