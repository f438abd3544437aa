// inline_bench — end-to-end benchmark of the inline path.
//
//   inline_bench --workload <clean_bulk|evasion_mix|flow_flood> --seed <n>
//                --seconds <s> --trace <0|1> [--spans <path>]
//
// Untraced (--trace 0): after input generation, one cold set-up (rule
// compile, Runtime + router construction, start) is timed as setup_s and
// its box runs the first saturation pass; resident memory is read with that
// pass's flows still live. Saturation passes continue as a warm-up until
// 1.5 s have passed (kWarmupSeconds). Then whole rounds — three saturation
// passes and one open-loop pass at the workload's fixed offered rate, each
// on a fresh box — repeat until --seconds have been measured. Throughput
// and p50 latency are medians over those rounds. Every pass is judged by
// the oracle.
//
// Traced (--trace 1): see traced.cpp. The last stdout line is the JSON
// result either way; human-readable detail goes to stderr.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>

#include "bench.hpp"
#include "util/error.hpp"

namespace inlinebench {

namespace {

// An open-loop pass at a third of capacity lasts about three saturation
// passes: three of those per round give both metrics half the time.
constexpr int kSaturationPerRound = 3;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "inline_bench: %s\nusage: inline_bench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <path>]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.workload = v;
        have_workload = true;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (k == "--spans") {
        a.spans_path = v;
      } else {
        usage("unknown option " + k);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + k + ": " + v);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(a.seconds > 0 && a.seconds <= 600)) usage("--seconds must be in (0, 600]");
  return a;
}

int run_untraced(const Args& args) {
  const Workload w = make_workload(args.workload, args.seed);
  const Oracle oracle(w);
  StampSink sink(w);
  Tally tally;
  std::fprintf(stderr, "%s: %zu packets/pass, %zu flows (%zu attack, %zu probe), %.1f MB\n",
               w.name.c_str(), w.pass_packets, w.flows.size(), w.count(FlowRole::attack),
               w.count(FlowRole::probe), static_cast<double>(w.frame_bytes) / 1e6);

  // The first pass's source exists before the memory baseline: it is input.
  // Generation's freed scratch goes back to the kernel first, or the box
  // would reuse already-resident pages and its memory would not show.
  auto src = std::make_unique<sdt::wire::FileSource>(w.pcap);
  malloc_trim(0);
  const std::uint64_t rss0 = rss_bytes();
  const std::uint64_t s0 = now_ns();
  const sdt::core::RuleSetHandle rules = compile_rules(w);
  auto box = std::make_unique<Box>(w, rules, sink);
  const double setup_s = static_cast<double>(now_ns() - s0) / 1e9;

  const auto n = static_cast<double>(w.pass_packets);
  std::uint64_t rss1 = 0;
  std::uint64_t m0 = now_ns();
  run_pass(*box, *src, PassMode::saturation, w, oracle, sink, tally,
           [&] { rss1 = rss_bytes(); });
  box.reset();
  src.reset();
  const std::size_t warmup_passes = 1 + warm_up(w, rules, oracle, sink, tally, m0);

  std::vector<double> mpps, p50_us;
  m0 = now_ns();
  do {
    for (int k = 0; k < kSaturationPerRound; ++k) {
      sdt::wire::FileSource s(w.pcap);
      Box b(w, rules, sink);
      const PassTiming t = run_pass(b, s, PassMode::saturation, w, oracle, sink, tally);
      if (t.seconds > 0) mpps.push_back(n / t.seconds / 1e6);  // 0: the pass threw
    }
    sdt::wire::FileSource s(w.pcap);
    Box b(w, rules, sink);
    const PassTiming t = run_pass(b, s, PassMode::open_loop, w, oracle, sink, tally);
    std::vector<std::uint64_t> lat = latencies_ns(t, sink.release_ns);
    p50_us.push_back(quantile(lat, 0.5) / 1e3);
  } while (static_cast<double>(now_ns() - m0) / 1e9 < args.seconds);

  std::fprintf(stderr, "rss: %.1f MiB before set-up, %.1f MiB with flows live\n",
               static_cast<double>(rss0) / 1048576.0, static_cast<double>(rss1) / 1048576.0);
  std::fprintf(stderr, "passes: %zu warm-up, %zu saturation, %zu open-loop at %.0f pps\n",
               warmup_passes, mpps.size(), p50_us.size(), w.offered_pps);
  std::fprintf(stderr, "throughput_mpps:");
  for (double v : mpps) std::fprintf(stderr, " %.3f", v);
  std::fprintf(stderr, "\nlatency_p50_us:");
  for (double v : p50_us) std::fprintf(stderr, " %.2f", v);
  std::fprintf(stderr, "\n");

  const double mib = static_cast<double>(rss1 > rss0 ? rss1 - rss0 : 0) / (1024.0 * 1024.0);
  print_result(tally, {{"throughput_mpps", "Mpps", median(mpps)},
                       {"latency_p50_us", "us", median(p50_us)},
                       {"memory_mib", "MiB", mib},
                       {"setup_s", "s", setup_s}});
  return 0;
}

}  // namespace

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  for (const std::string& f : tally.failures) std::fprintf(stderr, "ORACLE FAIL %s\n", f.c_str());
  std::string out = "{\"correct\": ";
  out += tally.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + num +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::fflush(stderr);
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

std::size_t warm_up(const Workload& w, const sdt::core::RuleSetHandle& rules,
                    const Oracle& oracle, StampSink& sink, Tally& tally, std::uint64_t t0_ns) {
  std::size_t passes = 0;
  for (; static_cast<double>(now_ns() - t0_ns) / 1e9 < kWarmupSeconds; ++passes) {
    sdt::wire::FileSource s(w.pcap);
    Box b(w, rules, sink);
    run_pass(b, s, PassMode::saturation, w, oracle, sink, tally);
  }
  return passes;
}

PassTiming run_pass(Box& box, sdt::wire::FileSource& src, PassMode mode, const Workload& w,
                    const Oracle& oracle, StampSink& sink, Tally& tally,
                    const std::function<void()>& before_stop) {
  sink.reset();
  PassTiming t;
  const char* label = mode == PassMode::saturation ? "saturation" : "open-loop";
  try {
    t = mode == PassMode::saturation ? run_saturation(box, src)
                                     : run_open_loop(box, src, w.offered_pps);
  } catch (const sdt::Error& e) {
    tally.failures.push_back(std::string("conservation: ") + label + ": " + e.what());
  }
  const sdt::wire::WireStats ledger = box.router().stats();
  std::fprintf(stderr, "  %s pass: %.3f s, hold peak %llu\n", label, t.seconds,
               static_cast<unsigned long long>(ledger.held_peak));
  if (before_stop) before_stop();
  box.stop();
  const Judgement j = oracle.judge(sink, ledger, box.runtime().alerts());
  for (const std::string& f : j.failures) tally.failures.push_back(std::string(label) + " " + f);
  tally.attempted += w.pass_packets;
  tally.failed += ledger.shed + j.probe_failures;
  return t;
}

}  // namespace inlinebench

int main(int argc, char** argv) {
  using namespace inlinebench;
  const Args args = parse_args(argc, argv);
  try {
    return args.trace ? run_traced(args) : run_untraced(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "inline_bench: %s\n", e.what());
    return 1;
  }
}
