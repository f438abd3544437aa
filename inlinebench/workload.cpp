#include "workload.hpp"

#include <algorithm>
#include <stdexcept>

#include "evasion/corpus.hpp"
#include "evasion/trace_io.hpp"
#include "evasion/traffic_gen.hpp"
#include "util/rng.hpp"

namespace inlinebench {

namespace ev = sdt::evasion;
using sdt::Rng;
using sdt::net::Ipv4Addr;
using sdt::net::Packet;

namespace {

// The rule base is a property of the workload, not of the run: a fixed
// seed keeps compile work (and so setup_s) identical across seeds.
constexpr std::uint64_t kRuleSeed = 0x5D7B;

struct Stamped {
  std::uint32_t flow;
  Packet pkt;
};

/// Accumulates forged flows into one pass of exactly `limit` packets.
class PassBuilder {
 public:
  explicit PassBuilder(std::size_t limit) : limit_(limit) {}

  /// Room for `n` more packets, keeping 3 for the filler handshake.
  bool fits(std::size_t n) const { return used_ + n + 3 <= limit_; }

  void add(const FlowMeta& meta, std::vector<Packet> pkts) {
    const auto id = static_cast<std::uint32_t>(flows_.size());
    flows_.push_back(meta);
    used_ += pkts.size();
    for (Packet& p : pkts) out_.push_back(Stamped{id, std::move(p)});
  }

  /// Top up to the limit with pure ACKs of one idle connection, spread
  /// evenly over the trace, then merge everything into capture order.
  void finish(Workload& w) {
    std::uint64_t first = UINT64_MAX, last = 0;
    for (const Stamped& s : out_) {
      first = std::min(first, s.pkt.ts_usec);
      last = std::max(last, s.pkt.ts_usec);
    }
    if (out_.empty()) first = last = 0;
    ev::Endpoints ep;
    ep.client = Ipv4Addr(198, 18, 0, 1);
    ep.server = Ipv4Addr(198, 18, 0, 2);
    ep.client_port = 50000;
    ep.server_port = 80;
    ev::FlowForge f(ep, first);
    f.handshake();
    const std::size_t acks = limit_ - used_ - 3;
    for (std::size_t k = 0; k < acks; ++k) f.server_ack();
    std::vector<Packet> pkts = f.take();
    const std::uint64_t span = last > first ? last - first : 1;
    for (std::size_t k = 3; k < pkts.size(); ++k) {
      pkts[k].ts_usec = first + span * (k - 2) / (acks + 1);
    }
    FlowMeta meta;
    meta.ep = ep;
    meta.role = FlowRole::filler;
    add(meta, std::move(pkts));
    if (used_ != limit_) throw std::logic_error("pass size mismatch");

    std::stable_sort(out_.begin(), out_.end(),
                     [](const Stamped& a, const Stamped& b) {
                       return a.pkt.ts_usec < b.pkt.ts_usec;
                     });
    std::vector<Packet> ordered;
    ordered.reserve(out_.size());
    w.flow_of.reserve(out_.size());
    w.frame_len.reserve(out_.size());
    for (Stamped& s : out_) {
      w.flow_of.push_back(s.flow);
      w.frame_len.push_back(static_cast<std::uint32_t>(s.pkt.frame.size()));
      w.frame_bytes += s.pkt.frame.size();
      ordered.push_back(std::move(s.pkt));
    }
    out_.clear();
    // Probes name their completing packet by pass index, known only now.
    for (std::size_t i = 0; i < w.flow_of.size(); ++i) {
      FlowMeta& m = flows_[w.flow_of[i]];
      if (m.role == FlowRole::probe) m.completing_packet = static_cast<std::uint32_t>(i);
    }
    w.flows = std::move(flows_);
    w.pass_packets = limit_;
    w.pcap = ev::trace_bytes(ordered);
  }

 private:
  std::size_t limit_;
  std::size_t used_ = 0;
  std::vector<FlowMeta> flows_;
  std::vector<Stamped> out_;
};

/// Addresses depend on the flow index only, so the address-pair lane hash
/// (and with it the lane balance) is the same on every seed.
ev::Endpoints endpoints(std::size_t i, std::uint8_t net, Rng& rng) {
  ev::Endpoints ep;
  ep.client = Ipv4Addr(net, static_cast<std::uint8_t>(1 + i / 65536 % 200),
                       static_cast<std::uint8_t>(i / 256 % 256),
                       static_cast<std::uint8_t>(i % 256));
  ep.server = Ipv4Addr(192, 168, static_cast<std::uint8_t>(i * 7 % 256),
                       static_cast<std::uint8_t>(i * 13 % 256));
  ep.client_port = static_cast<std::uint16_t>(1024 + rng.below(60000));
  static constexpr std::uint16_t kPorts[] = {80, 443, 25, 8080, 993, 22};
  ep.server_port = kPorts[rng.below(std::size(kPorts))];
  ep.client_isn = static_cast<std::uint32_t>(rng.next());
  ep.server_isn = static_cast<std::uint32_t>(rng.next());
  return ep;
}

// --- clean_bulk --------------------------------------------------------------

constexpr std::size_t kBulkSegments = 480;  // MSS segments per response

void build_clean_bulk(Workload& w, std::uint64_t seed) {
  w.piece_len = 16;
  w.sigs = ev::default_corpus(2 * w.piece_len);
  Rng rule_rng(kRuleSeed);
  for (int k = 0; k < 500; ++k) {
    // Splitting needs length >= 2p, so the random rules start at 32 B.
    const auto len = static_cast<std::size_t>(rule_rng.range(2 * w.piece_len, 120));
    w.sigs.add("bulk-random-" + std::to_string(k), rule_rng.random_bytes(len));
  }
  w.offered_pps = 100'000;

  Rng rng(seed);
  PassBuilder pb(32'000);
  constexpr std::size_t kPerFlow = 3 + 1 + kBulkSegments + 3;
  for (std::size_t i = 0; pb.fits(kPerFlow); ++i) {
    FlowMeta meta;
    meta.ep = endpoints(i, 10, rng);
    ev::FlowForge f(meta.ep, 1'000'000 + i * 200);
    f.handshake();
    f.client_segments(ev::plan_plain(rng.random_bytes(1460), 1460, false));
    f.server_data(rng.random_bytes(1460 * kBulkSegments), 1460);
    f.close();
    pb.add(meta, f.take());
  }
  pb.finish(w);
}

// --- evasion_mix -------------------------------------------------------------

// The evasions whose delivered stream is the same on every receiving stack,
// so "the forwarded bytes never contain the signature" is well defined.
constexpr ev::EvasionKind kAttackKinds[] = {
    ev::EvasionKind::tiny_segments,     ev::EvasionKind::tiny_window,
    ev::EvasionKind::out_of_order,      ev::EvasionKind::ip_tiny_fragments,
    ev::EvasionKind::ip_frag_out_of_order, ev::EvasionKind::combo_tiny_ooo,
};
constexpr std::size_t kAttackEvery = 50;  // 2 % of flows

/// E11's benign flow shape (bench_inline_soak via evasion::generate_mixed):
/// interactive small-segment flows, 536/1460 MSS mix, half-text payloads,
/// a request and a bounded-Pareto response — capped short here.
std::vector<Packet> benign_flow(const ev::Endpoints& ep, std::uint64_t start,
                                Rng& rng) {
  ev::FlowForge f(ep, start);
  f.handshake();
  const bool interactive = rng.chance(0.02);
  const std::size_t mss = rng.chance(0.15) ? 536 : 1460;
  if (interactive) {
    const auto n = static_cast<std::size_t>(rng.range(5, 40));
    std::uint64_t off = 0;
    for (std::size_t k = 0; k < n; ++k) {
      ev::Seg s;
      s.rel_off = off;
      s.data = ev::generate_payload(rng, static_cast<std::size_t>(rng.range(1, 24)), 0.5);
      off += s.data.size();
      f.client_segment(s);
      if (k % 2 == 1) f.server_ack();
    }
  } else {
    const Bytes request =
        ev::generate_payload(rng, static_cast<std::size_t>(rng.range(80, 700)), 0.5);
    f.client_segments(ev::plan_plain(request, mss, false));
    f.server_ack();
    const auto resp = static_cast<std::size_t>(rng.pareto(1.2, 300, 16 * 1024));
    f.server_data(ev::generate_payload(rng, resp, 0.5), mss);
  }
  f.close();
  return f.take();
}

std::vector<Packet> attack_flow(const ev::Endpoints& ep, std::uint64_t start,
                                ev::EvasionKind kind,
                                const sdt::core::Signature& sig, Rng& rng) {
  Bytes stream = ev::generate_payload(
      rng, static_cast<std::size_t>(rng.range(200, 4000)), 0.5);
  const auto pos =
      static_cast<std::size_t>(rng.below(stream.size() - sig.bytes.size()));
  std::copy(sig.bytes.begin(), sig.bytes.end(),
            stream.begin() + static_cast<std::ptrdiff_t>(pos));
  ev::EvasionParams params;
  params.sig_lo = pos;
  params.sig_hi = pos + sig.bytes.size();
  return ev::forge_evasion(kind, ep, stream, params, rng, start);
}

void build_evasion_mix(Workload& w, std::uint64_t seed, std::size_t packets) {
  w.piece_len = 8;
  w.sigs = ev::default_corpus(2 * w.piece_len);
  // A fifth of saturation, not a third: releases leave in global capture
  // order and lane time per packet is heavy-tailed here (p99 ~12 us), so at
  // 400 kpps every slow verdict held up enough packets to swing the p50 by
  // 28 % across runs; at 250 kpps that spread is under 10 %.
  w.offered_pps = 250'000;

  Rng rng(seed);
  PassBuilder pb(packets);
  for (std::size_t i = 0;; ++i) {
    FlowMeta meta;
    meta.ep = endpoints(i, 10, rng);
    const std::uint64_t start = 1'000'000 + i * 500;
    std::vector<Packet> pkts;
    if (i % kAttackEvery == kAttackEvery / 2) {
      meta.role = FlowRole::attack;
      meta.kind = kAttackKinds[(i / kAttackEvery) % std::size(kAttackKinds)];
      meta.sig_id = static_cast<std::int64_t>(rng.below(w.sigs.size()));
      pkts = attack_flow(meta.ep, start, meta.kind,
                         w.sigs[static_cast<std::uint32_t>(meta.sig_id)], rng);
    } else {
      pkts = benign_flow(meta.ep, start, rng);
    }
    if (!pb.fits(pkts.size())) break;
    pb.add(meta, std::move(pkts));
  }
  pb.finish(w);
}

// --- flow_flood --------------------------------------------------------------

constexpr std::size_t kFloodProbes = 4;

/// ROADMAP item 1's probe: the signature's head in 2-byte segments (the
/// flow diverts), then — after the flood has pushed its fast-path record
/// out — the last 3 signature bytes plus 60 bytes of padding in one
/// segment. Inputs are fixed: they never depend on the seed.
std::pair<std::vector<Packet>, std::vector<Packet>> probe_flow(
    const ev::Endpoints& ep, std::uint64_t head_ts, std::uint64_t tail_ts,
    ByteView sig) {
  ev::FlowForge f(ep, head_ts, 20);
  f.handshake();
  const std::size_t head = sig.size() - 3;
  for (std::size_t off = 0; off < head; off += 2) {
    ev::Seg s;
    s.rel_off = off;
    s.data.assign(sig.begin() + static_cast<std::ptrdiff_t>(off),
                  sig.begin() + static_cast<std::ptrdiff_t>(std::min(off + 2, head)));
    f.client_segment(s);
  }
  std::vector<Packet> head_pkts = f.take();
  ev::FlowForge t(ep, tail_ts);
  // FlowForge numbers from the ISN: replay the head's stream position.
  ev::Seg tail;
  tail.rel_off = head;
  tail.data.assign(sig.begin() + static_cast<std::ptrdiff_t>(head), sig.end());
  for (std::uint8_t b = 1; b <= 60; ++b) tail.data.push_back(b);
  t.client_segment(tail);
  return {std::move(head_pkts), t.take()};
}

void build_flow_flood(Workload& w, std::uint64_t seed) {
  w.piece_len = 8;
  w.sigs = ev::default_corpus(2 * w.piece_len);
  // Total fast-path budget; the runtime gives each of the 2 lanes half.
  w.max_flows = 8192;
  w.offered_pps = 450'000;

  constexpr std::size_t kPackets = 300'000;
  constexpr std::uint64_t kStart = 1'000'000;
  constexpr std::uint64_t kSpacing = 4;  // µs between flow births
  // Flood flows: 3 or 4 packets, alternating, so the flood's size never
  // depends on the seed. About kPackets / 3.5 flows fill the pass.
  const std::uint64_t span = kPackets * 2 / 7 * kSpacing;

  Rng rng(seed);
  PassBuilder pb(kPackets);
  for (std::size_t k = 0; k < kFloodProbes; ++k) {
    FlowMeta meta;
    meta.role = FlowRole::probe;
    meta.sig_id = static_cast<std::int64_t>(k);
    meta.ep.client = Ipv4Addr(172, 16, static_cast<std::uint8_t>(k), 1);
    meta.ep.server = Ipv4Addr(172, 17, static_cast<std::uint8_t>(k), 2);
    meta.ep.client_port = static_cast<std::uint16_t>(41000 + k);
    meta.ep.client_isn = 0x1000u * static_cast<std::uint32_t>(k + 1);
    // Heads at 5 %, 25 %, 45 %, 65 % of the trace; tails a quarter later,
    // so some 20 k new flows (~10 k per lane, against a 4 k-flow lane
    // table) arrive in between.
    const std::uint64_t head = kStart + span * (5 + 20 * k) / 100;
    const std::uint64_t tail = head + span / 4;
    const sdt::core::Signature& sig = w.sigs[static_cast<std::uint32_t>(k)];
    auto [h, t] = probe_flow(meta.ep, head, tail, sig.bytes);
    for (Packet& p : t) h.push_back(std::move(p));
    pb.add(meta, std::move(h));
  }
  for (std::size_t i = 0;; ++i) {
    const bool with_data = i % 2 == 0;
    if (!pb.fits(with_data ? 4 : 3)) break;
    FlowMeta meta;
    meta.ep = endpoints(i, 11, rng);
    ev::FlowForge f(meta.ep, kStart + i * kSpacing, 20);
    f.handshake();
    if (with_data) {
      ev::Seg s;
      s.data = ev::generate_payload(
          rng, static_cast<std::size_t>(rng.range(16, 64)), 0.5);
      f.client_segment(s);
    }
    pb.add(meta, f.take());  // abandoned: no close
  }
  pb.finish(w);
}

}  // namespace

std::size_t Workload::count(FlowRole r) const {
  return static_cast<std::size_t>(std::count_if(
      flows.begin(), flows.end(), [r](const FlowMeta& m) { return m.role == r; }));
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"clean_bulk", "evasion_mix",
                                                 "flow_flood"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "clean_bulk") {
    build_clean_bulk(w, seed);
  } else if (name == "evasion_mix") {
    build_evasion_mix(w, seed, 150'000);
  } else if (name == "flow_flood") {
    build_flow_flood(w, seed);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

Workload make_small_evasion_mix(std::uint64_t seed, std::size_t pass_packets) {
  Workload w;
  w.name = "evasion_mix";
  build_evasion_mix(w, seed, pass_packets);
  return w;
}

}  // namespace inlinebench
