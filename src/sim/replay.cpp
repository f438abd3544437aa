#include "sim/replay.hpp"

#include <algorithm>
#include <set>

namespace sdt::sim {

namespace {

std::vector<std::uint32_t> unique_ids(const std::vector<core::Alert>& alerts) {
  std::set<std::uint32_t> ids;
  for (const core::Alert& a : alerts) ids.insert(a.signature_id);
  return std::vector<std::uint32_t>(ids.begin(), ids.end());
}

}  // namespace

std::vector<std::uint32_t> SplitDetectDetector::alerted_signatures() const {
  return unique_ids(alerts_);
}

std::vector<std::uint32_t> ConventionalDetector::alerted_signatures() const {
  return unique_ids(alerts_);
}

NaivePerPacketDetector::NaivePerPacketDetector(const core::SignatureSet& sigs)
    : seen_(sigs.size(), false) {
  std::vector<Bytes> patterns;
  for (const core::Signature& s : sigs) patterns.push_back(s.bytes);
  dfa_ = match::FlatDfa(patterns);
}

std::size_t NaivePerPacketDetector::process(const net::PacketView& pv,
                                            std::uint64_t /*now_usec*/) {
  if (!pv.ok() || pv.l4_payload.empty()) return 0;
  std::size_t n = 0;
  dfa_.scan(pv.l4_payload, match::FlatDfa::kRoot, [&](match::FlatDfa::Match m) {
    ++alerts_;
    ++n;
    seen_[m.pattern_id] = true;
  });
  return n;
}

std::vector<std::uint32_t> NaivePerPacketDetector::alerted_signatures() const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < seen_.size(); ++i) {
    if (seen_[i]) out.push_back(i);
  }
  return out;
}

ReplayResult replay(Detector& det, const std::vector<net::Packet>& pkts,
                    net::LinkType lt) {
  ReplayResult r;
  r.detector = det.name();
  const auto t0 = std::chrono::steady_clock::now();
  net::PacketView views[kReplayBatch];
  std::uint64_t ts[kReplayBatch];
  for (std::size_t base = 0; base < pkts.size(); base += kReplayBatch) {
    const std::size_t n = std::min(kReplayBatch, pkts.size() - base);
    for (std::size_t i = 0; i < n; ++i) {
      const net::Packet& p = pkts[base + i];
      views[i] = net::PacketView::parse(p.frame, lt);
      ts[i] = p.ts_usec;
      r.bytes += p.frame.size();
    }
    r.alerts += det.process_batch(views, ts, n);
    r.packets += n;
  }
  const auto t1 = std::chrono::steady_clock::now();
  r.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  r.flow_state_bytes = det.flow_state_bytes();
  return r;
}

}  // namespace sdt::sim
