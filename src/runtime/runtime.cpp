#include "runtime/runtime.hpp"

#include <algorithm>
#include <set>
#include <thread>

#include "util/error.hpp"

namespace sdt::runtime {

namespace {

/// A lane's share of a deployment-wide flow budget: total/lanes, floored,
/// but never more than the total itself.
std::size_t lane_flow_share(std::size_t total, std::size_t lanes,
                            std::size_t floor) {
  const std::size_t share = std::max<std::size_t>(total / lanes, 1);
  return std::min(total, std::max(share, floor));
}

core::SplitDetectConfig make_lane_config(const RuntimeConfig& cfg) {
  core::SplitDetectConfig e = cfg.engine;
  if (cfg.split_flow_budget && cfg.lanes > 0) {
    e.fast.max_flows =
        lane_flow_share(e.fast.max_flows, cfg.lanes, cfg.lane_flow_floor);
    e.slow_max_flows =
        lane_flow_share(e.slow_max_flows, cfg.lanes, cfg.lane_flow_floor);
  }
  return e;
}

}  // namespace

Runtime::Runtime(const core::SignatureSet& sigs, RuntimeConfig cfg)
    : Runtime(core::compile_ruleset(sigs, core::compile_options(cfg.engine.fast)),
              cfg) {}

Runtime::Runtime(core::RuleSetHandle rules, RuntimeConfig cfg)
    : cfg_(cfg), lane_cfg_(make_lane_config(cfg)),
      dispatcher_(cfg.lanes, cfg.link) {
  if (cfg_.ring_capacity == 0) {
    throw InvalidArgument("Runtime: ring_capacity == 0");
  }
  // One thread per lane: a lane count beyond any plausible core count is a
  // caller bug (e.g. a negative value pushed through a size_t), not a
  // deployment — fail loudly instead of exhausting the machine.
  if (cfg_.lanes > 4096) {
    throw InvalidArgument("Runtime: lanes > 4096 (misconfigured?)");
  }
  if (cfg_.ingest_capacity == 0) {
    throw InvalidArgument("Runtime: ingest_capacity == 0");
  }
  if (cfg_.arena_slab_bytes == 0) {
    throw InvalidArgument("Runtime: arena_slab_bytes == 0");
  }
  if (cfg_.external_slowpath) {
    slowpath::SlowPathConfig sp = cfg_.slowpath;
    // The service's IPS must be verdict-identical to the engine's internal
    // slow path (same takeover slack, normalizer policy, checksums) — the
    // fuzz crosscheck depends on it. Flow budget: the deployment-wide
    // slow-path total split across the service's workers (worker shards
    // own disjoint flow sets, exactly like lanes).
    sp.ips = core::derive_slow_config(cfg_.engine);
    sp.ips.max_flows = lane_flow_share(
        cfg_.engine.slow_max_flows, std::max<std::size_t>(sp.workers, 1),
        cfg_.lane_flow_floor);
    slowpath_ = std::make_unique<slowpath::SlowPathService>(rules, sp);
  }
  build_lanes(rules);
  if (slowpath_) {
    for (auto& l : lanes_) l->set_divert_sink(slowpath_.get());
  }
  build_dispatch();
}

void Runtime::build_lanes(const core::RuleSetHandle& rules) {
  PacketArena::Config ac;
  ac.slab_bytes = cfg_.arena_slab_bytes;
  // Auto-size: a completely full lane ring plus a staged batch on the
  // dispatcher side plus a popped batch on the lane side, with slack, can
  // all hold slots at once without exhausting the pool — so the blocking
  // fast path never waits on the arena, only on the ring.
  ac.slots = cfg_.arena_slots != 0
                 ? cfg_.arena_slots
                 : cfg_.ring_capacity + 2 * cfg_.dispatch_batch + 16;
  ac.poison_on_recycle = cfg_.arena_poison;
  lanes_.reserve(cfg_.lanes);
  for (std::size_t i = 0; i < cfg_.lanes; ++i) {
    lanes_.push_back(std::make_unique<LaneWorker>(
        rules, lane_cfg_, cfg_.ring_capacity, cfg_.expire_every, ac));
  }
}

void Runtime::build_dispatch() {
  const std::size_t n = std::min(cfg_.dispatchers, cfg_.lanes);
  if (n == 0) {
    std::vector<OwnedLane> all;
    all.reserve(lanes_.size());
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      all.push_back(OwnedLane{i, lanes_[i].get()});
    }
    inline_core_ = std::make_unique<DispatchCore>(
        dispatcher_, cfg_.overload, cfg_.dispatch_batch, std::move(all));
    return;
  }
  shards_.reserve(n);
  ingest_stage_.resize(n);
  for (std::size_t d = 0; d < n; ++d) {
    std::vector<OwnedLane> owned;
    for (std::size_t l = d; l < lanes_.size(); l += n) {
      owned.push_back(OwnedLane{l, lanes_[l].get()});
    }
    shards_.push_back(std::make_unique<DispatcherShard>(
        dispatcher_, cfg_.overload, cfg_.dispatch_batch, std::move(owned),
        cfg_.ingest_capacity, cfg_.flush_timeout_us));
    ingest_stage_[d].reserve(cfg_.dispatch_batch);
  }
}

void Runtime::attach_registry(control::RuleSetRegistry& registry) {
  if (running_) {
    throw Error("Runtime::attach_registry: attach before start()");
  }
  for (auto& l : lanes_) {
    const std::uint64_t initial =
        l->counters().adopted_version.load(std::memory_order_relaxed);
    l->attach_registry(&registry, registry.subscribe(initial));
  }
  // The external slow path adopts reloads too (its own grace slots), so a
  // version is only "all adopted" once the reassembly side also moved.
  if (slowpath_) slowpath_->attach_registry(registry);
}

void Runtime::set_verdict_feedback(VerdictFeedback* fb) {
  if (running_) {
    throw Error("Runtime::set_verdict_feedback: install before start()");
  }
  if (inline_core_) inline_core_->set_verdict_feedback(fb);
  for (auto& sh : shards_) sh->core().set_verdict_feedback(fb);
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    lanes_[i]->set_verdict_feedback(fb, i);
  }
}

Runtime::~Runtime() { stop(); }

void Runtime::start() {
  if (running_) return;
  // Slow path first: a lane must never divert into a service with no
  // consumers (admitted packets would sit queued until stop()).
  if (slowpath_) slowpath_->start();
  for (auto& l : lanes_) l->start();
  for (auto& sh : shards_) sh->start();
  running_ = true;
}

void Runtime::push_to_shard(std::size_t s, net::Packet&& pkt) {
  DispatcherShard& sh = *shards_[s];
  // ingested is bumped before the push: a shard that sees the frame also
  // sees itself behind on `consumed`, so drain()'s ingested == consumed
  // wait can never pass while this frame is unaccounted.
  sh.core().counters().ingested.fetch_add(1, std::memory_order_relaxed);
  while (!sh.ingest_ring().try_push(std::move(pkt))) {
    std::this_thread::yield();
  }
}

void Runtime::stage_to_shard(std::size_t s, net::Packet&& pkt) {
  std::vector<net::Packet>& stage = ingest_stage_[s];
  stage.push_back(std::move(pkt));
  if (stage.size() < cfg_.dispatch_batch) return;
  DispatcherShard& sh = *shards_[s];
  sh.core().counters().ingested.fetch_add(stage.size(),
                                          std::memory_order_relaxed);
  std::size_t pushed = 0;
  while (pushed < stage.size()) {
    pushed += sh.ingest_ring().try_push_batch(stage.data() + pushed,
                                              stage.size() - pushed);
    if (pushed < stage.size()) std::this_thread::yield();
  }
  stage.clear();
}

void Runtime::flush_ingest_stages() {
  for (std::size_t s = 0; s < ingest_stage_.size(); ++s) {
    std::vector<net::Packet>& stage = ingest_stage_[s];
    if (stage.empty()) continue;
    DispatcherShard& sh = *shards_[s];
    sh.core().counters().ingested.fetch_add(stage.size(),
                                            std::memory_order_relaxed);
    std::size_t pushed = 0;
    while (pushed < stage.size()) {
      pushed += sh.ingest_ring().try_push_batch(stage.data() + pushed,
                                                stage.size() - pushed);
      if (pushed < stage.size()) std::this_thread::yield();
    }
    stage.clear();
  }
}

void Runtime::feed(net::Packet pkt) {
  if (!running_) throw Error("Runtime::feed: not started");
  if (!shards_.empty()) {
    // Sharded mode: the feeder only peeks the header hash — parse, arena
    // copy, and lane handoff happen on the owning shard's thread.
    const std::size_t lane = peek_lane(pkt.frame, cfg_.link, cfg_.lanes);
    push_to_shard(lane % shards_.size(), std::move(pkt));
    return;
  }
  // Inline mode: this thread is the dispatcher. ingest() parses (the
  // pipeline's only parse), copies into the lane's arena, and stages;
  // flush_all() here keeps the single-packet contract — when feed()
  // returns, the packet is in its lane's ring (or rejected/dropped).
  inline_core_->ingest(std::move(pkt));
  inline_core_->flush_all();
}

void Runtime::feed_borrowed(const net::Packet& pkt) {
  if (!running_) throw Error("Runtime::feed_borrowed: not started");
  if (!shards_.empty()) {
    // The frame must outlive the ingest-ring transit, so a borrowed feed
    // degrades to a deep copy in sharded mode (tickets travel with it).
    net::Packet copy(pkt.ts_usec, pkt.frame);
    copy.ticket = pkt.ticket;
    push_to_shard(
        peek_lane(copy.frame, cfg_.link, cfg_.lanes) % shards_.size(),
        std::move(copy));
    return;
  }
  // Inline dispatch: ingest_borrowed copies the bytes into the lane arena
  // synchronously — when this returns, the caller's buffer is unreferenced.
  inline_core_->ingest_borrowed(pkt);
  inline_core_->flush_all();
}

void Runtime::feed(std::span<const net::Packet> pkts) {
  if (!running_) throw Error("Runtime::feed: not started");
  if (!shards_.empty()) {
    for (const net::Packet& p : pkts) {
      net::Packet copy(p.ts_usec, p.frame);
      copy.ticket = p.ticket;
      stage_to_shard(peek_lane(copy.frame, cfg_.link, cfg_.lanes) %
                         shards_.size(),
                     std::move(copy));
    }
    flush_ingest_stages();
    return;
  }
  for (const net::Packet& p : pkts) {
    inline_core_->ingest_borrowed(p);
  }
  inline_core_->flush_all();
}

void Runtime::feed(const std::vector<net::Packet>& pkts) {
  feed(std::span<const net::Packet>(pkts));
}

void Runtime::feed(std::vector<net::Packet>&& pkts) {
  if (!running_) throw Error("Runtime::feed: not started");
  if (!shards_.empty()) {
    for (net::Packet& p : pkts) {
      stage_to_shard(
          peek_lane(p.frame, cfg_.link, cfg_.lanes) % shards_.size(),
          std::move(p));
    }
    flush_ingest_stages();
  } else {
    for (net::Packet& p : pkts) inline_core_->ingest(std::move(p));
    inline_core_->flush_all();
  }
  pkts.clear();
}

void Runtime::drain() {
  if (!running_) return;
  // Sharded mode first waits for every shard to chew through its ingest
  // backlog: `ingested` is ours (the feeder thread), so it is final; the
  // acquire on `consumed` pairs with the shard's release, making the fed/
  // dropped/rejected increments behind it visible to the lane waits below.
  for (auto& sh : shards_) {
    const DispatchCounters& c = sh->core().counters();
    while (c.consumed.load(std::memory_order_acquire) <
           c.ingested.load(std::memory_order_relaxed)) {
      std::this_thread::yield();
    }
  }
  for (auto& l : lanes_) {
    const LaneCounters& c = l->counters();
    // fed is final here (inline: ours; sharded: the consumed == ingested
    // wait above saw it); wait for the lane to account for every routed
    // packet. The acquire on `processed` pairs with the worker's release,
    // making the processing work itself visible too.
    while (c.processed.load(std::memory_order_acquire) +
               c.dropped.load(std::memory_order_relaxed) <
           c.fed.load(std::memory_order_relaxed)) {
      std::this_thread::yield();
    }
  }
  // Lanes are drained, so the slow path's `fed` is final too; wait until
  // its workers account for every admitted unit (processed or shed —
  // `dropped` only ever moves at stop()).
  if (slowpath_) {
    for (;;) {
      const slowpath::SlowPathStats s = slowpath_->stats_snapshot();
      if (s.conserved() && s.queue_depth == 0) break;
      std::this_thread::yield();
    }
  }
}

void Runtime::stop() {
  if (!running_) return;
  // Producers die upstream-first. Shards drain their ingest rings and
  // flush every staged packet before exiting, so no lane ring gains a
  // producer after its worker is told to stop.
  for (auto& sh : shards_) sh->request_stop();
  for (auto& sh : shards_) sh->join();
  for (auto& l : lanes_) l->request_stop();
  for (auto& l : lanes_) l->join();
  // Lanes are gone (no more producers): close the slow path and let its
  // workers drain what was admitted before joining them.
  if (slowpath_) slowpath_->stop();
  running_ = false;
}

namespace {

RejectBreakdown read_reject_breakdown(const DispatchCounters& c) {
  const auto at = [&c](net::ParseStatus st) {
    return c.rejected_by[static_cast<std::size_t>(st)].load(
        std::memory_order_relaxed);
  };
  RejectBreakdown b;
  b.truncated_l2 = at(net::ParseStatus::truncated_l2);
  b.truncated_l3 = at(net::ParseStatus::truncated_l3);
  b.bad_ip_header = at(net::ParseStatus::bad_ip_header);
  b.bad_ext_header = at(net::ParseStatus::bad_ext_header);
  b.bad_decap = at(net::ParseStatus::bad_decap);
  b.truncated_l4 = at(net::ParseStatus::truncated_l4);
  return b;
}

EncapBreakdown read_encap_breakdown(const DispatchCounters& c) {
  EncapBreakdown e;
  e.ipv6 = c.delivered_ipv6.load(std::memory_order_relaxed);
  e.vlan = c.delivered_vlan.load(std::memory_order_relaxed);
  e.tunneled = c.delivered_tunneled.load(std::memory_order_relaxed);
  return e;
}

}  // namespace

StatsSnapshot Runtime::stats() const {
  StatsSnapshot s;
  if (inline_core_) {
    s.rejected = inline_core_->counters().rejected.load(
        std::memory_order_relaxed);
    s.rejected_by += read_reject_breakdown(inline_core_->counters());
    s.delivered += read_encap_breakdown(inline_core_->counters());
  }
  s.dispatchers.reserve(shards_.size());
  for (const auto& sh : shards_) {
    const DispatchCounters& c = sh->core().counters();
    DispatcherSnapshot ds;
    // consumed before ingested: same oldest-truth-first discipline as the
    // lane counters, so consumed <= ingested in every mid-flight poll.
    ds.consumed = c.consumed.load(std::memory_order_acquire);
    ds.rejected = c.rejected.load(std::memory_order_relaxed);
    ds.flushes = c.flushes.load(std::memory_order_relaxed);
    ds.flush_timeouts = c.flush_timeouts.load(std::memory_order_relaxed);
    ds.busy_ns = c.busy_ns.load(std::memory_order_relaxed);
    ds.ingested = c.ingested.load(std::memory_order_relaxed);
    ds.ring_size = sh->ingest_ring().size();
    ds.ring_high_water = sh->ingest_ring().high_water();
    ds.ring_capacity = sh->ingest_ring().capacity();
    ds.rejected_by = read_reject_breakdown(c);
    ds.delivered = read_encap_breakdown(c);
    s.dispatchers.push_back(ds);
    s.rejected += ds.rejected;
    s.rejected_by += ds.rejected_by;
    s.delivered += ds.delivered;
  }
  s.lanes.reserve(lanes_.size());
  for (const auto& l : lanes_) {
    const LaneCounters& c = l->counters();
    LaneSnapshot ls;
    // Counters are read oldest-truth-first: `processed` and `dropped` are
    // acquire-loaded before `fed`, so neither can be reordered after it.
    // A packet is always fed before it is processed or dropped, hence a
    // snapshot taken mid-flight can never show more packets accounted for
    // than routed: processed + dropped <= fed holds in every poll, and
    // becomes an equality at quiescence.
    ls.processed = c.processed.load(std::memory_order_acquire);
    ls.dropped = c.dropped.load(std::memory_order_acquire);
    ls.non_ip = c.non_ip.load(std::memory_order_relaxed);
    ls.bytes = c.bytes.load(std::memory_order_relaxed);
    ls.alerts = c.alerts.load(std::memory_order_relaxed);
    ls.diverted = c.diverted.load(std::memory_order_relaxed);
    ls.busy_ns = c.busy_ns.load(std::memory_order_relaxed);
    ls.adoptions = c.adoptions.load(std::memory_order_relaxed);
    ls.adopted_version = c.adopted_version.load(std::memory_order_relaxed);
    ls.fed = c.fed.load(std::memory_order_relaxed);
    ls.ring_size = l->ring().size();
    ls.ring_high_water = l->ring().high_water();
    ls.ring_capacity = l->ring().capacity();
    ls.fast_max_flows = lane_cfg_.fast.max_flows;
    ls.arena = l->arena().stats();
    ls.latency_ns = l->latency_ns().snapshot();
    ls.frame_bytes = l->frame_bytes().snapshot();
    s.lanes.push_back(ls);
    s.fed += ls.fed;
    s.processed += ls.processed;
    s.dropped += ls.dropped;
    s.non_ip += ls.non_ip;
    s.bytes += ls.bytes;
    s.alerts += ls.alerts;
    s.diverted += ls.diverted;
    s.adoptions += ls.adoptions;
  }
  if (slowpath_) {
    s.has_external_slowpath = true;
    s.slowpath = slowpath_->stats_snapshot();
  }
  if (wire_stats_ != nullptr) {
    s.has_wire = true;
    s.wire = wire_stats_->wire_drops();
  }
  return s;
}

void Runtime::register_metrics(telemetry::MetricsRegistry& reg,
                               const std::string& prefix) const {
  using telemetry::MetricDesc;
  // Rejects may accrue on the inline core or on any shard — expose the sum
  // as a gauge over the live counters (each is single-writer).
  reg.add_gauge(MetricDesc{prefix + ".rejected", "packets", "dispatcher"},
                [this] {
                  std::uint64_t n = 0;
                  if (inline_core_) {
                    n += inline_core_->counters().rejected.load(
                        std::memory_order_relaxed);
                  }
                  for (const auto& sh : shards_) {
                    n += sh->core().counters().rejected.load(
                        std::memory_order_relaxed);
                  }
                  return n;
                });
  // Per-reason reject counters and per-encap delivered counters, summed
  // over the inline core and every shard (same single-writer live reads).
  const auto sum_cores =
      [this](auto pick) -> std::uint64_t {
    std::uint64_t n = 0;
    if (inline_core_) n += pick(inline_core_->counters());
    for (const auto& sh : shards_) n += pick(sh->core().counters());
    return n;
  };
  struct ReasonGauge {
    const char* name;
    net::ParseStatus status;
  };
  static constexpr ReasonGauge kReasons[] = {
      {".rejected_truncated_l2", net::ParseStatus::truncated_l2},
      {".rejected_truncated_l3", net::ParseStatus::truncated_l3},
      {".rejected_bad_ip_header", net::ParseStatus::bad_ip_header},
      {".rejected_bad_ext_header", net::ParseStatus::bad_ext_header},
      {".rejected_bad_decap", net::ParseStatus::bad_decap},
      {".rejected_truncated_l4", net::ParseStatus::truncated_l4},
  };
  for (const ReasonGauge& r : kReasons) {
    reg.add_gauge(MetricDesc{prefix + r.name, "packets", "dispatcher"},
                  [sum_cores, st = r.status] {
                    return sum_cores([st](const DispatchCounters& c) {
                      return c.rejected_by[static_cast<std::size_t>(st)].load(
                          std::memory_order_relaxed);
                    });
                  });
  }
  reg.add_gauge(MetricDesc{prefix + ".delivered_ipv6", "packets", "dispatcher"},
                [sum_cores] {
                  return sum_cores([](const DispatchCounters& c) {
                    return c.delivered_ipv6.load(std::memory_order_relaxed);
                  });
                });
  reg.add_gauge(MetricDesc{prefix + ".delivered_vlan", "packets", "dispatcher"},
                [sum_cores] {
                  return sum_cores([](const DispatchCounters& c) {
                    return c.delivered_vlan.load(std::memory_order_relaxed);
                  });
                });
  reg.add_gauge(
      MetricDesc{prefix + ".delivered_tunneled", "packets", "dispatcher"},
      [sum_cores] {
        return sum_cores([](const DispatchCounters& c) {
          return c.delivered_tunneled.load(std::memory_order_relaxed);
        });
      });
  reg.add_gauge(MetricDesc{prefix + ".lanes", "", "runtime"},
                [this] { return static_cast<std::uint64_t>(lanes_.size()); });
  reg.add_gauge(MetricDesc{prefix + ".dispatchers", "", "runtime"}, [this] {
    return static_cast<std::uint64_t>(shards_.size());
  });
  if (slowpath_) slowpath_->register_metrics(reg, prefix + ".slowpath");
  for (std::size_t d = 0; d < shards_.size(); ++d) {
    const std::string dp = prefix + ".dispatcher" + std::to_string(d) + ".";
    const DispatchCounters& c = shards_[d]->core().counters();
    const DispatcherShard* sh = shards_[d].get();
    // consumed before ingested — the shard ledger's oldest-truth-first
    // order, mirroring processed/dropped before fed below.
    reg.add_counter(MetricDesc{dp + "consumed", "packets", "dispatcher"},
                    &c.consumed);
    reg.add_counter(MetricDesc{dp + "rejected", "packets", "dispatcher"},
                    &c.rejected);
    reg.add_counter(MetricDesc{dp + "flushes", "batches", "dispatcher"},
                    &c.flushes);
    reg.add_counter(MetricDesc{dp + "flush_timeouts", "batches", "dispatcher"},
                    &c.flush_timeouts);
    reg.add_counter(MetricDesc{dp + "busy_ns", "ns", "dispatcher"},
                    &c.busy_ns);
    reg.add_counter(MetricDesc{dp + "ingested", "packets", "feeder"},
                    &c.ingested);
    reg.add_gauge(MetricDesc{dp + "ring_size", "packets", "ring"}, [sh] {
      return static_cast<std::uint64_t>(sh->ingest_ring().size());
    });
    reg.add_gauge(MetricDesc{dp + "ring_high_water", "packets", "ring"},
                  [sh] {
                    return static_cast<std::uint64_t>(
                        sh->ingest_ring().high_water());
                  });
  }
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    const std::string lp = prefix + ".lane" + std::to_string(i) + ".";
    const LaneWorker* w = lanes_[i].get();
    const LaneCounters& c = w->counters();
    const auto ctr = [&](const char* name, const char* unit,
                         const char* owner,
                         const std::atomic<std::uint64_t>* src) {
      reg.add_counter(MetricDesc{lp + name, unit, owner}, src);
    };
    // Registration order is sampling order (see MetricsRegistry): the
    // accounted-for counters (processed, dropped) go in before `fed`, so a
    // live snapshot can never show more packets accounted for than routed
    // — the same oldest-truth-first discipline as Runtime::stats().
    ctr("processed", "packets", "lane", &c.processed);
    ctr("bytes", "bytes", "lane", &c.bytes);
    ctr("alerts", "alerts", "lane", &c.alerts);
    ctr("diverted", "packets", "lane", &c.diverted);
    ctr("busy_ns", "ns", "lane", &c.busy_ns);
    ctr("adoptions", "events", "lane", &c.adoptions);
    reg.add_gauge(MetricDesc{lp + "adopted_version", "version", "lane"}, [w] {
      return w->counters().adopted_version.load(std::memory_order_relaxed);
    });
    ctr("dropped", "packets", "dispatcher", &c.dropped);
    ctr("non_ip", "packets", "dispatcher", &c.non_ip);
    ctr("fed", "packets", "dispatcher", &c.fed);
    reg.add_histogram(MetricDesc{lp + "latency_ns", "ns", "lane"},
                      &w->latency_ns());
    reg.add_histogram(MetricDesc{lp + "frame_bytes", "bytes", "lane"},
                      &w->frame_bytes());
    reg.add_gauge(MetricDesc{lp + "ring_size", "packets", "ring"},
                  [w] { return static_cast<std::uint64_t>(w->ring().size()); });
    reg.add_gauge(MetricDesc{lp + "ring_high_water", "packets", "ring"}, [w] {
      return static_cast<std::uint64_t>(w->ring().high_water());
    });
    reg.add_gauge(MetricDesc{lp + "ring_capacity", "packets", "ring"}, [w] {
      return static_cast<std::uint64_t>(w->ring().capacity());
    });
    // Arena gauges: single-writer counters behind stats(), live-safe. A
    // dashboard asserting the zero-allocation claim watches heap_fallbacks
    // (must stay 0) and outstanding (must return to 0 at quiescence).
    reg.add_gauge(MetricDesc{lp + "arena_outstanding", "slots", "arena"},
                  [w] { return w->arena().stats().outstanding(); });
    reg.add_gauge(MetricDesc{lp + "arena_high_water", "slots", "arena"}, [w] {
      return static_cast<std::uint64_t>(w->arena().stats().high_water);
    });
    reg.add_gauge(MetricDesc{lp + "arena_exhausted", "events", "arena"},
                  [w] { return w->arena().stats().exhausted; });
    reg.add_gauge(MetricDesc{lp + "arena_heap_fallbacks", "packets", "arena"},
                  [w] { return w->arena().stats().heap_fallbacks; });
    reg.add_gauge(MetricDesc{lp + "arena_slots", "slots", "arena"}, [w] {
      return static_cast<std::uint64_t>(w->arena().stats().slots);
    });
    reg.add_gauge(MetricDesc{lp + "fast_max_flows", "flows", "runtime"},
                  [this] {
                    return static_cast<std::uint64_t>(lane_cfg_.fast.max_flows);
                  });
    // Deep engine stats: thread-private plain counters, registered by the
    // engine itself as quiescent-only gauges (skipped by live polls).
    w->engine().register_metrics(reg, lp + "engine");
  }
}

void Runtime::require_stopped(const char* what) const {
  if (running_) {
    throw Error(std::string("Runtime::") + what +
                ": workers still running; stop() first");
  }
}

std::vector<core::Alert> Runtime::alerts() const {
  require_stopped("alerts");
  std::vector<core::Alert> out;
  for (const auto& l : lanes_) {
    out.insert(out.end(), l->alerts().begin(), l->alerts().end());
  }
  if (slowpath_) {
    // Detection alerts raised on the service's workers (lane-side alerts —
    // including shed notifications — are already in the lane logs above).
    const std::vector<core::Alert> sp = slowpath_->alerts_snapshot();
    out.insert(out.end(), sp.begin(), sp.end());
  }
  return out;
}

std::vector<std::uint32_t> Runtime::alerted_signatures() const {
  require_stopped("alerted_signatures");
  std::set<std::uint32_t> ids;
  for (const core::Alert& a : alerts()) ids.insert(a.signature_id);
  return std::vector<std::uint32_t>(ids.begin(), ids.end());
}

const core::SplitDetectEngine& Runtime::lane_engine(std::size_t lane) const {
  require_stopped("lane_engine");
  return lanes_.at(lane)->engine();
}

}  // namespace sdt::runtime
