// The system under test, driven from outside exactly as
// `ips_gateway --inline` drives it: wire::FileSource::poll over the pass's
// pcap image → wire::VerdictRouter::submit/poll over
// runtime::Runtime::feed_borrowed (wire::RuntimePipe) → the benchmark's
// StampSink.
//
// Shape: 2 lanes, dispatchers = 0 (the feeder thread parses and
// dispatches), the engine's synchronous slow path. With the feeder that is
// 3 threads, within a 4-vCPU host.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/compiled_ruleset.hpp"
#include "runtime/runtime.hpp"
#include "wire/capture.hpp"
#include "wire/verdict_router.hpp"
#include "workload.hpp"

namespace inlinebench {

constexpr std::size_t kLanes = 2;
/// Saturation feeder: submit only while fewer than this many packets are
/// held, so the hold never overflows and nothing is shed.
constexpr std::size_t kSaturationDepth = 4096;

/// Compile the workload's rule base (control::RuleCompiler).
sdt::core::RuleSetHandle compile_rules(const Workload& w);

sdt::runtime::RuntimeConfig runtime_config(const Workload& w);

/// wire::RuntimePipe that also sums the feeder thread's time inside
/// Runtime::feed_borrowed (the traced run's runtime.dispatch_ns_per_pkt).
class TimedRuntimePipe final : public sdt::wire::InlinePipe {
 public:
  explicit TimedRuntimePipe(sdt::runtime::Runtime& rt) : inner_(rt) {}
  std::size_t lanes() const override { return inner_.lanes(); }
  void feed(const sdt::net::Packet& pkt) override;
  void drain() override { inner_.drain(); }
  std::size_t in_flight_bound() const override { return inner_.in_flight_bound(); }

  std::uint64_t feed_ns = 0;
  std::uint64_t feeds = 0;

 private:
  sdt::wire::RuntimePipe inner_;
};

/// One inline box: runtime, pipe and router, wired and started. The pipe is
/// the production wire::RuntimePipe unless `timed_dispatch` asks for the
/// traced run's TimedRuntimePipe.
class Box {
 public:
  Box(const Workload& w, sdt::core::RuleSetHandle rules, sdt::wire::VerdictSink& sink,
      bool timed_dispatch = false);
  ~Box();
  Box(const Box&) = delete;
  Box& operator=(const Box&) = delete;

  sdt::runtime::Runtime& runtime() { return rt_; }
  sdt::wire::VerdictRouter& router() { return *router_; }
  /// Null unless built with timed_dispatch.
  const TimedRuntimePipe* timed_pipe() const { return timed_; }
  /// Stop the lanes; alerts and lane engines become readable.
  void stop() { rt_.stop(); }

 private:
  sdt::runtime::Runtime rt_;
  std::unique_ptr<sdt::wire::InlinePipe> pipe_;
  TimedRuntimePipe* timed_ = nullptr;
  std::unique_ptr<sdt::wire::VerdictRouter> router_;
};

struct PassTiming {
  double seconds = 0;               ///< first poll → finish() returned
  std::uint64_t feeder_cpu_ns = 0;  ///< feeder thread CPU over the same span
  std::uint64_t lag_ns_max = 0;     ///< open loop: worst generator lateness
  std::uint64_t t0_ns = 0;          ///< open loop: schedule origin
  double period_ns = 0;             ///< open loop: 1e9 / offered rate
};

/// Replay the whole source as fast as the hold depth allows.
PassTiming run_saturation(Box& box, sdt::wire::FileSource& src);

/// Replay the source open-loop at `pps`: packet i is due at t0 + i/pps.
PassTiming run_open_loop(Box& box, sdt::wire::FileSource& src, double pps);

/// Latency of every release from its due time, in ns (open loop).
std::vector<std::uint64_t> latencies_ns(const PassTiming& t,
                                        const std::vector<std::uint64_t>& release_ns);

/// Resident set size of this process, bytes.
std::uint64_t rss_bytes();
std::uint64_t thread_cpu_ns();

/// q-quantile (0..1) of `v` (reorders v).
double quantile(std::vector<std::uint64_t>& v, double q);
double median(std::vector<double> v);

}  // namespace inlinebench
