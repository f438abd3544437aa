#include "pipeline.hpp"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "control/compiler.hpp"
#include "oracle.hpp"

namespace inlinebench {

using sdt::net::Packet;

sdt::core::RuleSetHandle compile_rules(const Workload& w) {
  sdt::core::CompileOptions opts;
  opts.piece_len = w.piece_len;
  sdt::control::RuleCompiler compiler(opts);
  sdt::control::CompileResult r = compiler.compile_signatures(w.sigs, w.name, 1);
  if (!r.ok()) throw std::runtime_error("rule compile failed for " + w.name);
  return r.ruleset;
}

sdt::runtime::RuntimeConfig runtime_config(const Workload& w) {
  sdt::runtime::RuntimeConfig rc;
  rc.lanes = kLanes;
  rc.dispatchers = 0;
  rc.link = sdt::net::LinkType::raw_ipv4;
  rc.engine.fast.piece_len = w.piece_len;
  rc.engine.fast.max_flows = w.max_flows;
  return rc;
}

namespace {

sdt::wire::RouterConfig router_config() {
  sdt::wire::RouterConfig c;
  // Large enough that neither feeder sheds: saturation holds at most
  // kSaturationDepth; the open loop at a third of capacity absorbs feeder
  // and lane stalls of tens of milliseconds.
  c.hold_capacity = 1 << 16;
  c.latency_budget_us = 10'000'000;
  c.policy = sdt::wire::HoldPolicy::fail_closed;
  return c;
}

}  // namespace

void TimedRuntimePipe::feed(const Packet& pkt) {
  const std::uint64_t t0 = now_ns();
  inner_.feed(pkt);
  feed_ns += now_ns() - t0;
  ++feeds;
}

Box::Box(const Workload& w, sdt::core::RuleSetHandle rules, sdt::wire::VerdictSink& sink,
         bool timed_dispatch)
    : rt_(std::move(rules), runtime_config(w)) {
  if (timed_dispatch) {
    auto timed = std::make_unique<TimedRuntimePipe>(rt_);
    timed_ = timed.get();
    pipe_ = std::move(timed);
  } else {
    pipe_ = std::make_unique<sdt::wire::RuntimePipe>(rt_);
  }
  router_ = std::make_unique<sdt::wire::VerdictRouter>(*pipe_, sink, router_config());
  rt_.set_verdict_feedback(router_.get());
  rt_.attach_wire_stats(router_.get());
  rt_.start();
}

// Lanes call back into the router: stop them before it goes.
Box::~Box() { rt_.stop(); }

PassTiming run_saturation(Box& box, sdt::wire::FileSource& src) {
  auto& router = box.router();
  std::vector<Packet> batch;
  batch.reserve(256);
  PassTiming t;
  const std::uint64_t cpu0 = thread_cpu_ns();
  const std::uint64_t t0 = now_ns();
  while (!src.exhausted()) {
    batch.clear();
    src.poll(batch, 256);
    for (Packet& p : batch) {
      while (router.held() >= kSaturationDepth) router.poll();
      router.submit(std::move(p));
    }
    router.poll();
  }
  router.finish();
  t.seconds = static_cast<double>(now_ns() - t0) / 1e9;
  t.feeder_cpu_ns = thread_cpu_ns() - cpu0;
  return t;
}

PassTiming run_open_loop(Box& box, sdt::wire::FileSource& src, double pps) {
  auto& router = box.router();
  std::vector<Packet> buf;
  buf.reserve(64);
  std::size_t next = 0;  // index into buf
  std::uint64_t i = 0;   // packets submitted
  PassTiming t;
  t.period_ns = 1e9 / pps;
  const std::uint64_t cpu0 = thread_cpu_ns();
  t.t0_ns = now_ns() + 1000;
  const auto due = [&](std::uint64_t k) {
    return t.t0_ns + static_cast<std::uint64_t>(static_cast<double>(k) * t.period_ns);
  };
  for (;;) {
    if (next == buf.size()) {
      buf.clear();
      next = 0;
      if (src.poll(buf, 64) == 0) break;
    }
    const std::uint64_t now = now_ns();
    if (now >= due(i)) {
      t.lag_ns_max = std::max(t.lag_ns_max, now - due(i));
      // Everything already due goes out now, a bounded burst at a time.
      for (int k = 0; k < 64 && next < buf.size() && now >= due(i); ++k) {
        router.submit(std::move(buf[next++]));
        ++i;
      }
    }
    router.poll();
  }
  router.finish();
  t.seconds = static_cast<double>(now_ns() - t.t0_ns) / 1e9;
  t.feeder_cpu_ns = thread_cpu_ns() - cpu0;
  return t;
}

std::vector<std::uint64_t> latencies_ns(const PassTiming& t,
                                        const std::vector<std::uint64_t>& release_ns) {
  std::vector<std::uint64_t> out;
  out.reserve(release_ns.size());
  for (std::size_t k = 0; k < release_ns.size(); ++k) {
    const auto due = t.t0_ns + static_cast<std::uint64_t>(static_cast<double>(k) * t.period_ns);
    out.push_back(release_ns[k] > due ? release_ns[k] - due : 0);
  }
  return out;
}

std::uint64_t rss_bytes() {
  long pages = 0, resident = 0;
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
  std::fclose(f);
  return static_cast<std::uint64_t>(resident) *
         static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double quantile(std::vector<std::uint64_t>& v, double q) {
  if (v.empty()) return 0;
  const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return static_cast<double>(v[k]);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

}  // namespace inlinebench
