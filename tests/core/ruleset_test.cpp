#include "core/compiled_ruleset.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/conventional_ips.hpp"
#include "core/engine.hpp"
#include "core/fast_path.hpp"
#include "evasion/flow_forge.hpp"
#include "util/error.hpp"

namespace sdt::core {
namespace {

// Two rules carrying byte-identical content (a real phenomenon in rule
// bases: same exploit string, different metadata) plus one unique rule.
SignatureSet duped_sigs() {
  SignatureSet s;
  s.add("exploit-v1", std::string_view("SHARED_EXPLOIT_CONTENT_BYTES"));
  s.add("exploit-v2", std::string_view("SHARED_EXPLOIT_CONTENT_BYTES"));
  s.add("unique", std::string_view("a_completely_different_sig99"));
  return s;
}

TEST(CompiledRuleSet, CarriesVersionSourceAndReport) {
  CompileOptions opts;
  opts.piece_len = 4;
  const RuleSetHandle rs =
      compile_ruleset(duped_sigs(), opts, 7, "unit-test");
  ASSERT_NE(rs, nullptr);
  EXPECT_EQ(rs->version(), 7u);
  EXPECT_EQ(rs->source(), "unit-test");
  EXPECT_TRUE(rs->report().ok);
  EXPECT_EQ(rs->report().signatures, 3u);
  EXPECT_GT(rs->report().compile_ns, 0u);
  EXPECT_TRUE(rs->has_pieces());
  EXPECT_EQ(rs->piece_len(), 4u);
  EXPECT_GT(rs->memory_bytes(), 0u);
}

TEST(CompiledRuleSet, DedupShrinksFullAutomaton) {
  const RuleSetHandle rs = compile_ruleset(duped_sigs(), CompileOptions{});
  // 3 signatures, 2 distinct byte-strings: the automaton holds each
  // distinct string exactly once.
  EXPECT_EQ(rs->signatures().size(), 3u);
  EXPECT_EQ(rs->full_matcher().pattern_count(), 2u);
  EXPECT_EQ(rs->report().duplicate_signatures, 1u);
  EXPECT_EQ(rs->report().full_patterns, 2u);

  // The shared pattern (first seen, so pattern id 0) maps back to BOTH
  // signature ids; the unique one maps to its single sid.
  const auto shared = rs->sids_for_pattern(0);
  ASSERT_EQ(shared.size(), 2u);
  EXPECT_EQ(shared[0], 0u);
  EXPECT_EQ(shared[1], 1u);
  const auto unique = rs->sids_for_pattern(1);
  ASSERT_EQ(unique.size(), 1u);
  EXPECT_EQ(unique[0], 2u);

  // The automaton genuinely shrinks versus a corpus of distinct strings of
  // the same shape.
  SignatureSet distinct;
  distinct.add("a", std::string_view("SHARED_EXPLOIT_CONTENT_BYTES"));
  distinct.add("b", std::string_view("SHARED_EXPLOIT_CONTENT_BYTEZ"));
  distinct.add("c", std::string_view("a_completely_different_sig99"));
  const RuleSetHandle rs2 = compile_ruleset(std::move(distinct), {});
  EXPECT_LT(rs->full_matcher().memory_bytes(),
            rs2->full_matcher().memory_bytes());
}

TEST(CompiledRuleSet, DedupShrinksPieceAutomaton) {
  CompileOptions opts;
  opts.piece_len = 4;
  const RuleSetHandle rs = compile_ruleset(duped_sigs(), opts);
  const PieceSet& ps = rs->pieces();
  // Duplicated signatures contribute identical pieces at identical
  // offsets: total (signature, offset) mappings exceed the unique piece
  // patterns the automaton stores.
  EXPECT_LT(ps.pattern_count(), ps.piece_count());
  // A piece of the shared bytes maps back to both signatures.
  bool found_shared_piece = false;
  for (std::uint32_t id = 0; id < ps.pattern_count(); ++id) {
    const auto pieces = ps.pieces_for(id);
    if (pieces.size() < 2) continue;
    std::vector<std::uint32_t> sids;
    for (const Piece& p : pieces) sids.push_back(p.signature_id);
    std::sort(sids.begin(), sids.end());
    if (std::find(sids.begin(), sids.end(), 0u) != sids.end() &&
        std::find(sids.begin(), sids.end(), 1u) != sids.end()) {
      found_shared_piece = true;
    }
  }
  EXPECT_TRUE(found_shared_piece);
}

TEST(CompiledRuleSet, AlertsCarryEverySidOfSharedContent) {
  // Deliver the shared exploit string over a plain TCP conversation: the
  // full-reassembly engine must alert once per RULE, not once per unique
  // automaton pattern.
  const RuleSetHandle rs = compile_ruleset(duped_sigs(), CompileOptions{});
  ConventionalIps ips(rs);

  evasion::FlowForge forge(evasion::Endpoints{}, 1000);
  forge.handshake();
  evasion::Seg seg;
  seg.data = to_bytes("padding SHARED_EXPLOIT_CONTENT_BYTES more padding");
  forge.client_segment(seg);
  forge.close();

  std::vector<Alert> alerts;
  for (const net::Packet& p : forge.take()) {
    const auto pv = net::PacketView::parse(p.frame, net::LinkType::raw_ipv4);
    ips.process(pv, p.ts_usec, alerts);
  }
  std::vector<std::uint32_t> sids;
  for (const Alert& a : alerts) sids.push_back(a.signature_id);
  std::sort(sids.begin(), sids.end());
  sids.erase(std::unique(sids.begin(), sids.end()), sids.end());
  EXPECT_EQ(sids, (std::vector<std::uint32_t>{0, 1}));
}

TEST(CompiledRuleSet, CompileOptionsFollowTheFastPathConfig) {
  FastPathConfig cfg;
  cfg.piece_len = 6;
  cfg.piece_phase_sample = to_bytes("benign sample bytes");
  const CompileOptions opts = compile_options(cfg);
  EXPECT_EQ(opts.piece_len, 6u);
  EXPECT_EQ(opts.piece_phase_sample, cfg.piece_phase_sample);
  EXPECT_FALSE(opts.drop_short_signatures);  // startup stays loud
  EXPECT_EQ(compile_ruleset(duped_sigs(), opts)->piece_len(), 6u);
}

TEST(CompiledRuleSet, FullMatcherMapsEverySignatureBackToItsSid) {
  const RuleSetHandle rs = compile_ruleset(duped_sigs(), CompileOptions{});
  const SignatureSet& sigs = rs->signatures();
  for (std::uint32_t sid = 0; sid < sigs.size(); ++sid) {
    const std::int64_t pid = rs->full_matcher().first_match(sigs[sid].bytes);
    ASSERT_GE(pid, 0) << sigs[sid].name;
    const auto sids = rs->sids_for_pattern(static_cast<std::uint32_t>(pid));
    EXPECT_NE(std::find(sids.begin(), sids.end(), sid), sids.end())
        << sigs[sid].name;
  }
  EXPECT_EQ(rs->full_matcher().first_match(to_bytes("nothing to see")), -1);
}

TEST(CompiledRuleSet, ShortSignaturePolicy) {
  SignatureSet sigs;
  sigs.add("long enough", std::string_view("0123456789abcdef"));
  sigs.add("too short", std::string_view("abc"));

  // Startup semantics: loud failure.
  CompileOptions strict;
  strict.piece_len = 4;
  EXPECT_THROW(compile_ruleset(sigs, strict), InvalidArgument);

  // Reload semantics: drop with a diagnostic, keep the rest.
  CompileOptions tolerant;
  tolerant.piece_len = 4;
  tolerant.drop_short_signatures = true;
  const RuleSetHandle rs = compile_ruleset(sigs, tolerant);
  EXPECT_EQ(rs->signatures().size(), 1u);
  EXPECT_EQ(rs->report().dropped_short, 1u);
  EXPECT_GE(rs->report().count(RuleSeverity::skipped), 1u);
}

TEST(SplitDetectEngine, SwapRulesetKeepsDetectingAcrossVersions) {
  SignatureSet sigs;
  sigs.add("marker", std::string_view("INTRUSION_SIGNATURE_MARK_0001"));
  CompileOptions opts;
  opts.piece_len = 5;
  SplitDetectConfig cfg;
  cfg.fast.piece_len = 5;

  SplitDetectEngine engine(compile_ruleset(sigs, opts, 1, "v1"), cfg);
  EXPECT_EQ(engine.ruleset_version(), 1u);

  // Deliver the signature in two tiny-segment halves with a reload between
  // them: the flow was diverted and started scanning under v1, and the
  // version pin must carry it through the v2 swap without losing match
  // state.
  const Bytes payload = to_bytes("INTRUSION_SIGNATURE_MARK_0001");
  evasion::FlowForge forge(evasion::Endpoints{}, 1000);
  forge.handshake();
  std::vector<net::Packet> first_half = forge.take();

  evasion::Seg a;
  a.rel_off = 0;
  a.data = Bytes(payload.begin(), payload.begin() + 11);
  forge.client_segment(a);
  {
    auto pkts = forge.take();
    first_half.insert(first_half.end(), pkts.begin(), pkts.end());
  }

  evasion::Seg b;
  b.rel_off = 11;
  b.data = Bytes(payload.begin() + 11, payload.end());
  forge.client_segment(b);
  forge.close();
  const std::vector<net::Packet> second_half = forge.take();

  std::vector<Alert> alerts;
  for (const net::Packet& p : first_half) {
    engine.process(p, net::LinkType::raw_ipv4, alerts);
  }
  engine.swap_ruleset(compile_ruleset(sigs, opts, 2, "v2"));
  EXPECT_EQ(engine.ruleset_version(), 2u);
  for (const net::Packet& p : second_half) {
    engine.process(p, net::LinkType::raw_ipv4, alerts);
  }

  bool found = false;
  for (const Alert& al : alerts) found |= al.signature_id == 0;
  EXPECT_TRUE(found);
  EXPECT_EQ(engine.stats_snapshot().reloads, 1u);
}

TEST(SplitDetectEngine, SwapRejectsIncompatibleArtifact) {
  SignatureSet sigs;
  sigs.add("marker", std::string_view("INTRUSION_SIGNATURE_MARK_0001"));
  CompileOptions opts;
  opts.piece_len = 5;
  SplitDetectConfig cfg;
  cfg.fast.piece_len = 5;
  SplitDetectEngine engine(compile_ruleset(sigs, opts, 1), cfg);

  // Wrong piece length and slow-only artifacts must be refused before any
  // engine state changes.
  CompileOptions wrong;
  wrong.piece_len = 6;
  EXPECT_THROW(engine.swap_ruleset(compile_ruleset(sigs, wrong, 2)),
               InvalidArgument);
  EXPECT_THROW(engine.swap_ruleset(compile_ruleset(sigs, CompileOptions{}, 3)),
               InvalidArgument);
  EXPECT_THROW(engine.swap_ruleset(nullptr), InvalidArgument);
  EXPECT_EQ(engine.ruleset_version(), 1u);
  EXPECT_EQ(engine.stats_snapshot().reloads, 0u);
}

}  // namespace
}  // namespace sdt::core
