// Command-line contract and result line shared by the untraced
// (end-to-end) and traced (per-layer) modes of inline_bench.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "oracle.hpp"
#include "pipeline.hpp"

namespace inlinebench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;  ///< traced mode: where the spans file goes
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// Operations (packets offered) and their outcome over a whole run.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< oracle check failures

  bool correct() const { return failures.empty(); }
};

/// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
void print_result(const Tally& tally, const std::vector<Metric>& metrics);

enum class PassMode { saturation, open_loop };

/// Replay `src` through the started `box` in `mode`, judge the releases and
/// alerts with `oracle`, and fold the pass into `tally`. `before_stop` runs
/// after finish() while the lanes still hold their flows.
PassTiming run_pass(Box& box, sdt::wire::FileSource& src, PassMode mode, const Workload& w,
                    const Oracle& oracle, StampSink& sink, Tally& tally,
                    const std::function<void()>& before_stop = {});

/// The first second or so of a process runs up to 2-3x slower on a shared
/// VM, whatever the pass; warm-up passes are judged and counted as
/// attempted but never measured.
constexpr double kWarmupSeconds = 1.5;

/// Saturation passes on fresh boxes until kWarmupSeconds have passed since
/// `t0_ns`. Returns how many ran.
std::size_t warm_up(const Workload& w, const sdt::core::RuleSetHandle& rules,
                    const Oracle& oracle, StampSink& sink, Tally& tally, std::uint64_t t0_ns);

int run_traced(const Args& args);

}  // namespace inlinebench
