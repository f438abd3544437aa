#include "oracle.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <stdexcept>

namespace inlinebench {

using sdt::wire::WireVerdict;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// --- StampSink ---------------------------------------------------------------

void StampSink::reset() {
  verdict.assign(w_.pass_packets, kUnreleased);
  release_ns.assign(w_.pass_packets, 0);
  order.clear();
  order.reserve(w_.pass_packets);
  std::fill(std::begin(counts), std::end(counts), 0);
  bad_frames = 0;
}

void StampSink::emit(const sdt::net::Packet& pkt, WireVerdict v) {
  const std::uint64_t t = pkt.ticket;
  ++counts[static_cast<std::size_t>(v)];
  if (t >= verdict.size() || pkt.frame.size() != w_.frame_len[t]) {
    ++bad_frames;
    return;
  }
  release_ns[t] = now_ns();
  verdict[t] = static_cast<std::uint8_t>(v);
  order.push_back(static_cast<std::uint32_t>(t));
}

bool Judgement::failed(const std::string& check) const {
  return std::any_of(failures.begin(), failures.end(), [&](const std::string& f) {
    return f.compare(0, check.size() + 1, check + ":") == 0;
  });
}

// --- independent packet parsing ---------------------------------------------

namespace {

std::uint16_t be16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}
std::uint32_t be32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | p[3];
}

/// Records of a classic little-endian pcap image.
std::vector<ByteView> pcap_frames(const Bytes& img) {
  std::vector<ByteView> out;
  if (img.size() < 24 || img[0] != 0xd4 || img[1] != 0xc3) {
    throw std::runtime_error("oracle: not a little-endian pcap image");
  }
  std::size_t off = 24;
  while (off + 16 <= img.size()) {
    const std::uint8_t* h = img.data() + off + 8;
    const std::uint32_t incl = h[0] | (h[1] << 8) | (h[2] << 16) |
                               (std::uint32_t{h[3]} << 24);
    if (off + 16 + incl > img.size()) throw std::runtime_error("oracle: short pcap");
    out.emplace_back(img.data() + off + 16, incl);
    off += 16 + incl;
  }
  return out;
}

struct Ip {
  std::uint32_t src = 0, dst = 0;
  std::uint16_t id = 0;
  std::uint8_t proto = 0;
  std::uint32_t frag_off = 0;
  bool more = false;
  ByteView payload;
};

bool parse_ip(ByteView d, Ip& ip) {
  if (d.size() < 20 || (d[0] >> 4) != 4) return false;
  const std::size_t ihl = std::size_t{d[0] & 0x0fu} * 4;
  const std::size_t total = be16(&d[2]);
  if (ihl < 20 || total < ihl || total > d.size()) return false;
  ip.id = be16(&d[4]);
  const std::uint16_t ff = be16(&d[6]);
  ip.more = (ff & 0x2000) != 0;
  ip.frag_off = std::uint32_t{ff & 0x1fffu} * 8;
  ip.proto = d[9];
  ip.src = be32(&d[12]);
  ip.dst = be32(&d[16]);
  ip.payload = d.subspan(ihl, total - ihl);
  return true;
}

std::uint64_t endpoint(std::uint32_t ip, std::uint16_t port) {
  return (std::uint64_t{ip} << 16) | port;
}

}  // namespace

// --- Oracle ------------------------------------------------------------------

Oracle::Oracle(const Workload& w) : w_(w), frames_(pcap_frames(w.pcap)) {
  if (frames_.size() != w.pass_packets || w.flow_of.size() != w.pass_packets) {
    throw std::runtime_error("oracle: pcap image and metadata disagree");
  }
  pkts_of_flow_.resize(w.flows.size());
  for (std::size_t i = 0; i < w.flow_of.size(); ++i) {
    pkts_of_flow_[w.flow_of[i]].push_back(static_cast<std::uint32_t>(i));
  }
  for (std::size_t f = 0; f < w.flows.size(); ++f) {
    const auto& ep = w.flows[f].ep;
    const std::uint64_t a = endpoint(ep.client.value(), ep.client_port);
    const std::uint64_t b = endpoint(ep.server.value(), ep.server_port);
    const std::uint64_t key = std::min(a, b) * 0x9E3779B97F4A7C15ull ^ std::max(a, b);
    if (!flow_by_key_.emplace(key, static_cast<std::uint32_t>(f)).second) {
      throw std::runtime_error("oracle: two generated flows share a key");
    }
  }
}

std::int64_t Oracle::flow_of_alert(const sdt::core::Alert& al) const {
  if (!al.flow.a_ip.is_v4() || !al.flow.b_ip.is_v4()) return -1;
  const std::uint64_t a = endpoint(al.flow.a_ip.to_v4().value(), al.flow.a_port);
  const std::uint64_t b = endpoint(al.flow.b_ip.to_v4().value(), al.flow.b_port);
  const auto it =
      flow_by_key_.find(std::min(a, b) * 0x9E3779B97F4A7C15ull ^ std::max(a, b));
  return it == flow_by_key_.end() ? -1 : it->second;
}

Bytes Oracle::in_order_stream(std::uint32_t flow, int dir,
                              const std::vector<std::uint32_t>& pkts) const {
  const auto& ep = w_.flows[flow].ep;
  const std::uint32_t src = dir == 0 ? ep.client.value() : ep.server.value();
  const std::uint32_t base = (dir == 0 ? ep.client_isn : ep.server_isn) + 1;
  Bytes buf;
  std::vector<bool> have;
  const auto place = [&](ByteView seg) {
    if (seg.size() < 20) return;
    const std::size_t doff = static_cast<std::size_t>(seg[12] >> 4) * 4;
    if (doff < 20 || doff > seg.size()) return;
    const std::uint32_t off = be32(&seg[4]) - base;  // modular stream offset
    const ByteView data = seg.subspan(doff);
    if (data.empty() || off > (1u << 24)) return;  // SYN (off = -1) and junk
    if (buf.size() < off + data.size()) {
      buf.resize(off + data.size());
      have.resize(off + data.size());
    }
    for (std::size_t k = 0; k < data.size(); ++k) {
      if (!have[off + k]) {  // first write wins
        buf[off + k] = data[k];
        have[off + k] = true;
      }
    }
  };
  // IPv4 fragments by datagram id: offset → bytes, plus the total length
  // once the last fragment is known.
  struct Frags {
    std::map<std::uint32_t, ByteView> parts;
    std::uint32_t total = 0;
  };
  std::map<std::uint16_t, Frags> frags;
  for (std::uint32_t i : pkts) {
    Ip ip;
    if (!parse_ip(frames_[i], ip) || ip.src != src || ip.proto != 6) continue;
    if (ip.frag_off == 0 && !ip.more) {
      place(ip.payload);
      continue;
    }
    Frags& fr = frags[ip.id];
    fr.parts.emplace(ip.frag_off, ip.payload);
    if (!ip.more) fr.total = ip.frag_off + static_cast<std::uint32_t>(ip.payload.size());
    if (fr.total == 0) continue;
    Bytes dgram(fr.total);
    std::vector<bool> got(fr.total);
    for (const auto& [o, part] : fr.parts) {
      for (std::size_t k = 0; k < part.size() && o + k < fr.total; ++k) {
        if (!got[o + k]) dgram[o + k] = part[k];
        got[o + k] = true;
      }
    }
    if (std::find(got.begin(), got.end(), false) == got.end()) {
      place(dgram);
      frags.erase(ip.id);
    }
  }
  const auto hole = std::find(have.begin(), have.end(), false);
  buf.resize(static_cast<std::size_t>(hole - have.begin()));
  return buf;
}

namespace {

bool contains(const Bytes& hay, ByteView needle) {
  return std::search(hay.begin(), hay.end(), needle.begin(), needle.end()) != hay.end();
}

/// Collects failures per check, keeping a few examples of each.
class Findings {
 public:
  void add(const std::string& check, const std::string& detail) {
    auto& [n, examples] = by_check_[check];
    if (++n <= 3) examples += (examples.empty() ? "" : "; ") + detail;
  }
  std::vector<std::string> list() const {
    std::vector<std::string> out;
    for (const auto& [check, v] : by_check_) {
      out.push_back(check + ": " + std::to_string(v.first) + " case(s): " + v.second);
    }
    return out;
  }

 private:
  std::map<std::string, std::pair<std::uint64_t, std::string>> by_check_;
};

}  // namespace

Judgement Oracle::judge(const StampSink& sink, const sdt::wire::WireStats& ledger,
                        const std::vector<sdt::core::Alert>& alerts) const {
  Findings bad;
  const std::size_t n = w_.pass_packets;
  const auto fwd = [&](std::uint32_t t) {
    return sink.verdict[t] != StampSink::kUnreleased &&
           sdt::wire::forwards(static_cast<WireVerdict>(sink.verdict[t]));
  };

  // release_once + flow_order, from the release sequence alone.
  std::vector<std::uint8_t> seen(n, 0);
  std::vector<std::int64_t> last(w_.flows.size(), -1);
  for (std::uint32_t t : sink.order) {
    if (seen[t]++ != 0) bad.add("release_once", "ticket " + std::to_string(t) + " twice");
    const std::uint32_t f = w_.flow_of[t];
    if (static_cast<std::int64_t>(t) <= last[f]) {
      bad.add("flow_order", "flow " + std::to_string(f) + ": ticket " +
                                std::to_string(t) + " after " + std::to_string(last[f]));
    }
    last[f] = std::max<std::int64_t>(last[f], t);
  }
  for (std::size_t t = 0; t < n; ++t) {
    if (seen[t] == 0) bad.add("release_once", "ticket " + std::to_string(t) + " never released");
  }

  // ledger: the sink's own totals against the router's.
  const auto cnt = [&](WireVerdict v) { return sink.counts[static_cast<std::size_t>(v)]; };
  const std::uint64_t sink_shed = cnt(WireVerdict::shed_forward) + cnt(WireVerdict::shed_block);
  if (cnt(WireVerdict::accept) != ledger.accepted || cnt(WireVerdict::drop) != ledger.dropped ||
      cnt(WireVerdict::divert) != ledger.diverted || sink_shed != ledger.shed) {
    bad.add("ledger", "sink accept/drop/divert/shed " + std::to_string(cnt(WireVerdict::accept)) +
                          "/" + std::to_string(cnt(WireVerdict::drop)) + "/" +
                          std::to_string(cnt(WireVerdict::divert)) + "/" +
                          std::to_string(sink_shed) + " vs router " +
                          std::to_string(ledger.accepted) + "/" + std::to_string(ledger.dropped) +
                          "/" + std::to_string(ledger.diverted) + "/" +
                          std::to_string(ledger.shed));
  }
  if (sink.bad_frames != 0) {
    bad.add("ledger", std::to_string(sink.bad_frames) + " release(s) of unknown or resized frames");
  }
  if (!ledger.conserved() || ledger.captured != n) {
    bad.add("conservation", "captured " + std::to_string(ledger.captured) + " of " +
                                std::to_string(n) + " offered; accepted+dropped+diverted+shed = " +
                                std::to_string(ledger.accepted + ledger.dropped +
                                               ledger.diverted + ledger.shed));
  }

  // Alerts by generated flow.
  std::map<std::uint32_t, std::set<std::uint32_t>> alerted;
  for (const auto& a : alerts) {
    const std::int64_t f = flow_of_alert(a);
    if (f < 0) {
      bad.add("benign_alert", "alert " + std::to_string(a.signature_id) + " on unknown flow " +
                                  a.flow.str());
      continue;
    }
    alerted[static_cast<std::uint32_t>(f)].insert(a.signature_id);
  }
  const auto alerted_with = [&](std::uint32_t f, std::int64_t sig) {
    const auto it = alerted.find(f);
    return it != alerted.end() && it->second.count(static_cast<std::uint32_t>(sig)) != 0;
  };

  for (std::uint32_t f = 0; f < w_.flows.size(); ++f) {
    const FlowMeta& m = w_.flows[f];
    const auto& pkts = pkts_of_flow_[f];
    switch (m.role) {
      case FlowRole::attack: {
        if (!alerted_with(f, m.sig_id)) {
          bad.add("attack_alert", "flow " + std::to_string(f) + " (" +
                                      sdt::evasion::to_string(m.kind) + ") sig " +
                                      std::to_string(m.sig_id));
        }
        std::vector<std::uint32_t> out;
        for (std::uint32_t t : pkts) {
          if (fwd(t)) out.push_back(t);
        }
        const auto& sig = w_.sigs[static_cast<std::uint32_t>(m.sig_id)].bytes;
        if (contains(in_order_stream(f, 0, out), sig)) {
          bad.add("signature_leak", "flow " + std::to_string(f) + " (" +
                                        sdt::evasion::to_string(m.kind) + ") sig " +
                                        std::to_string(m.sig_id));
        }
        break;
      }
      case FlowRole::probe:
        break;  // counted as failed operations below, not as a check
      case FlowRole::benign:
      case FlowRole::filler: {
        const auto it = alerted.find(f);
        bool justified = true;
        if (it != alerted.end()) {
          const Bytes c2s = in_order_stream(f, 0, pkts);
          const Bytes s2c = in_order_stream(f, 1, pkts);
          for (std::uint32_t sid : it->second) {
            if (sid >= w_.sigs.size() ||
                (!contains(c2s, w_.sigs[sid].bytes) && !contains(s2c, w_.sigs[sid].bytes))) {
              justified = false;
              bad.add("benign_alert", "flow " + std::to_string(f) + " alerted " +
                                          std::to_string(sid) + " without carrying it");
            }
          }
        } else {
          justified = false;
        }
        if (!justified) {
          for (std::uint32_t t : pkts) {
            if (sink.verdict[t] == static_cast<std::uint8_t>(WireVerdict::drop)) {
              bad.add("benign_drop", "flow " + std::to_string(f) + " packet " + std::to_string(t));
              break;
            }
          }
        }
        break;
      }
    }
  }
  Judgement j;
  j.failures = bad.list();
  for (std::uint32_t f = 0; f < w_.flows.size(); ++f) {
    const FlowMeta& m = w_.flows[f];
    if (m.role == FlowRole::probe && fwd(m.completing_packet) && !alerted_with(f, m.sig_id)) {
      ++j.probe_failures;
    }
  }
  return j;
}

}  // namespace inlinebench
