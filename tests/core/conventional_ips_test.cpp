#include "core/conventional_ips.hpp"

#include <gtest/gtest.h>

#include "evasion/flow_forge.hpp"
#include "net/builder.hpp"

namespace sdt::core {
namespace {

SignatureSet test_sigs() {
  SignatureSet s;
  s.add("sig-a", std::string_view("MALICIOUS_PAYLOAD_MARKER"));
  s.add("sig-b", std::string_view("ANOTHER_BAD_STRING!!"));
  return s;
}

std::vector<net::Packet> forge_plain_flow(ByteView stream, std::size_t mss,
                                          std::uint16_t sport = 40000) {
  evasion::Endpoints ep;
  ep.client_port = sport;
  evasion::FlowForge f(ep, 1000);
  f.handshake();
  f.client_segments(evasion::plan_plain(stream, mss, false));
  f.close();
  return f.take();
}

std::vector<Alert> run(ConventionalIps& ips,
                       const std::vector<net::Packet>& pkts) {
  std::vector<Alert> alerts;
  for (const auto& p : pkts) {
    ips.process(net::PacketView::parse(p.frame, net::LinkType::raw_ipv4),
                p.ts_usec, alerts);
  }
  return alerts;
}

TEST(ConventionalIps, DetectsSignatureInOneSegment) {
  const SignatureSet sigs = test_sigs();
  ConventionalIps ips(sigs);
  const Bytes stream = to_bytes("hello MALICIOUS_PAYLOAD_MARKER world");
  const auto alerts = run(ips, forge_plain_flow(stream, 1460));
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].signature_id, 0u);
  EXPECT_STREQ(alerts[0].source, "slow-path");
}

TEST(ConventionalIps, DetectsSignatureSplitAcrossSegments) {
  const SignatureSet sigs = test_sigs();
  ConventionalIps ips(sigs);
  const Bytes stream = to_bytes("xxMALICIOUS_PAYLOAD_MARKERxx");
  // 5-byte segments: the signature spans many packets; only stream
  // reassembly + streaming match can see it.
  const auto alerts = run(ips, forge_plain_flow(stream, 5));
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].signature_id, 0u);
}

TEST(ConventionalIps, DetectsSignatureAtEverySegmentSize) {
  // Every segment size from 1 byte up to the whole signature: the stream
  // cursor carries each partial match across every possible boundary.
  const SignatureSet sigs = test_sigs();
  const Bytes stream = to_bytes("xMALICIOUS_PAYLOAD_MARKERx");
  for (std::size_t mss = 1; mss <= stream.size(); ++mss) {
    ConventionalIps ips(sigs);
    const auto alerts = run(ips, forge_plain_flow(stream, mss));
    ASSERT_EQ(alerts.size(), 1u) << "mss " << mss;
    EXPECT_EQ(alerts[0].signature_id, 0u) << "mss " << mss;
    EXPECT_EQ(alerts[0].stream_offset, stream.size() - 1) << "mss " << mss;
  }
}

TEST(ConventionalIps, DetectsSignatureSentByServer) {
  const SignatureSet sigs = test_sigs();
  ConventionalIps ips(sigs);
  evasion::FlowForge f(evasion::Endpoints{}, 1000);
  f.handshake();
  f.server_data(to_bytes("response ANOTHER_BAD_STRING!! body"), 6);
  f.close();
  const auto alerts = run(ips, f.take());
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].signature_id, 1u);
}

TEST(ConventionalIps, DirectionsKeepSeparateCursors) {
  // Client and server bytes are two streams, each with its own cursor: the
  // server's "LOAD_MARKER" does not complete the client's "MALICIOUS_PAY",
  // and it does not reset the client's partial match either.
  const SignatureSet sigs = test_sigs();
  ConventionalIps ips(sigs);
  evasion::FlowForge f(evasion::Endpoints{}, 1000);
  f.handshake();
  evasion::Seg head;
  head.data = to_bytes("MALICIOUS_PAY");
  f.client_segment(head);
  f.server_data(to_bytes("LOAD_MARKER"), 1460);
  std::vector<Alert> alerts = run(ips, f.take());
  EXPECT_TRUE(alerts.empty());

  evasion::Seg tail;
  tail.rel_off = head.data.size();
  tail.data = to_bytes("LOAD_MARKER");
  f.client_segment(tail);
  f.close();
  alerts = run(ips, f.take());
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].signature_id, 0u);
  EXPECT_EQ(alerts[0].stream_offset, head.data.size() + tail.data.size());
}

TEST(ConventionalIps, ReportsStreamOffset) {
  const SignatureSet sigs = test_sigs();
  ConventionalIps ips(sigs);
  const Bytes stream = to_bytes("0123456789MALICIOUS_PAYLOAD_MARKER");
  const auto alerts = run(ips, forge_plain_flow(stream, 7));
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].stream_offset, stream.size());  // match ends at stream end
}

TEST(ConventionalIps, BenignTrafficNoAlerts) {
  const SignatureSet sigs = test_sigs();
  ConventionalIps ips(sigs);
  const Bytes stream = to_bytes("just a normal web page with nothing evil");
  EXPECT_TRUE(run(ips, forge_plain_flow(stream, 8)).empty());
  EXPECT_GT(ips.stats().tcp_segments, 0u);
}

TEST(ConventionalIps, DetectsBothSignaturesAndDeduplicates) {
  const SignatureSet sigs = test_sigs();
  ConventionalIps ips(sigs);
  Bytes stream = to_bytes("ANOTHER_BAD_STRING!! and MALICIOUS_PAYLOAD_MARKER");
  // Occurs twice: second occurrence of sig-b must not re-alert.
  const Bytes tail = to_bytes(" ANOTHER_BAD_STRING!!");
  stream.insert(stream.end(), tail.begin(), tail.end());
  const auto alerts = run(ips, forge_plain_flow(stream, 9));
  ASSERT_EQ(alerts.size(), 2u);
}

TEST(ConventionalIps, SeparateFlowsAlertSeparately) {
  const SignatureSet sigs = test_sigs();
  ConventionalIps ips(sigs);
  const Bytes stream = to_bytes("xxANOTHER_BAD_STRING!!xx");
  auto a1 = run(ips, forge_plain_flow(stream, 6, 40001));
  auto a2 = run(ips, forge_plain_flow(stream, 6, 40002));
  EXPECT_EQ(a1.size(), 1u);
  EXPECT_EQ(a2.size(), 1u);
}

TEST(ConventionalIps, DetectsSignatureInUdpDatagram) {
  const SignatureSet sigs = test_sigs();
  ConventionalIps ips(sigs);
  net::Ipv4Spec ip{.src = net::Ipv4Addr(9, 9, 9, 9),
                   .dst = net::Ipv4Addr(8, 8, 8, 8)};
  const Bytes pkt = net::build_udp_packet(
      ip, 5000, 53, to_bytes("xxANOTHER_BAD_STRING!!xx"));
  std::vector<Alert> alerts;
  ips.process(net::PacketView::parse(pkt, net::LinkType::raw_ipv4), 0, alerts);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_STREQ(alerts[0].source, "udp");
}

TEST(ConventionalIps, DefragmentsThenMatches) {
  const SignatureSet sigs = test_sigs();
  ConventionalIps ips(sigs);
  evasion::Endpoints ep;
  evasion::FlowForge f(ep, 0);
  f.handshake();
  evasion::Seg s;
  s.rel_off = 0;
  s.data = to_bytes("xxxxMALICIOUS_PAYLOAD_MARKERxxxx");
  f.client_segment_fragmented(s, 8);
  f.close();
  const auto alerts = run(ips, f.take());
  ASSERT_EQ(alerts.size(), 1u);
}

TEST(ConventionalIps, AdoptedFlowMatchesFromTakeoverPoint) {
  const SignatureSet sigs = test_sigs();
  ConventionalIpsConfig cfg;
  cfg.takeover_slack = 9;  // tolerate up to 9 missing leading bytes
  ConventionalIps ips(sigs, cfg);

  evasion::Endpoints ep;
  const flow::FlowRef ref = flow::make_flow_ref(
      ep.client, ep.server, ep.client_port, ep.server_port, 6);

  // The fast path already forwarded bytes up to seq base; the slow path
  // sees the stream starting with the signature minus its first 4 bytes.
  const std::uint32_t base = ep.client_isn + 1 + 100;
  std::optional<std::uint32_t> bases[2];
  bases[static_cast<std::size_t>(ref.dir)] = base;
  ips.adopt_flow(ref.key, bases, 0);

  const Signature& sig = sigs[0];
  Bytes tail(sig.bytes.begin() + 4, sig.bytes.end());
  Bytes filler = to_bytes(" trailing stream content to flush the check");
  tail.insert(tail.end(), filler.begin(), filler.end());

  evasion::FlowForge f(ep, 10);
  evasion::Seg s;
  s.rel_off = 100;
  s.data = tail;
  f.client_segment(s);
  const auto alerts = run(ips, f.take());
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_STREQ(alerts[0].source, "takeover-suffix");
  EXPECT_EQ(alerts[0].signature_id, 0u);
}

TEST(ConventionalIps, TakeoverSuffixBeyondSlackNotMatched) {
  const SignatureSet sigs = test_sigs();
  ConventionalIpsConfig cfg;
  cfg.takeover_slack = 3;  // less than the 4 bytes we cut
  ConventionalIps ips(sigs, cfg);

  evasion::Endpoints ep;
  const flow::FlowRef ref = flow::make_flow_ref(
      ep.client, ep.server, ep.client_port, ep.server_port, 6);
  const std::uint32_t base = ep.client_isn + 1;
  std::optional<std::uint32_t> bases[2];
  bases[static_cast<std::size_t>(ref.dir)] = base;
  ips.adopt_flow(ref.key, bases, 0);

  const Signature& sig = sigs[0];
  const Bytes tail(sig.bytes.begin() + 4, sig.bytes.end());
  evasion::FlowForge f(ep, 10);
  evasion::Seg s;
  s.data = tail;
  f.client_segment(s);
  EXPECT_TRUE(run(ips, f.take()).empty());
}

TEST(ConventionalIps, FlowStateShrinksWhenFlowsClose) {
  const SignatureSet sigs = test_sigs();
  ConventionalIps ips(sigs);
  const Bytes stream(5000, 'n');
  run(ips, forge_plain_flow(stream, 1000));
  // Connection closed via FIN exchange: state must be reclaimed.
  EXPECT_EQ(ips.flows(), 0u);
}

TEST(ConventionalIps, ExpireSweepsIdleFlows) {
  const SignatureSet sigs = test_sigs();
  ConventionalIpsConfig cfg;
  cfg.flow_idle_timeout_usec = 1000;
  ConventionalIps ips(sigs, cfg);
  evasion::Endpoints ep;
  evasion::FlowForge f(ep, 0);
  f.handshake();
  evasion::Seg s;
  s.data = Bytes(100, 'x');
  f.client_segment(s);  // no close: flow stays
  run(ips, f.take());
  EXPECT_EQ(ips.flows(), 1u);
  ips.expire(1'000'000);
  EXPECT_EQ(ips.flows(), 0u);
}

TEST(ConventionalIps, MemoryAccountingIncludesBuffers) {
  const SignatureSet sigs = test_sigs();
  ConventionalIps ips(sigs);
  evasion::Endpoints ep;
  evasion::FlowForge f(ep, 0);
  f.handshake();
  // Out-of-order segment: buffered, cannot be delivered.
  evasion::Seg s;
  s.rel_off = 100000;
  s.data = Bytes(50000, 'b');
  f.client_segment(s);
  const std::size_t before = ips.flow_state_bytes();
  run(ips, f.take());
  EXPECT_GT(ips.flow_state_bytes(), before + 40000);
}

}  // namespace
}  // namespace sdt::core
