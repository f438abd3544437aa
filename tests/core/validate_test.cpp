#include "core/validate.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/fast_path.hpp"
#include "core/splitter.hpp"
#include "evasion/corpus.hpp"
#include "evasion/traffic_gen.hpp"
#include "flow/flow_table.hpp"
#include "util/rng.hpp"

namespace sdt::core {
namespace {

bool has_issue(const ConfigReport& r, Severity sev, const char* substr) {
  for (const auto& i : r.issues) {
    if (i.severity == sev && i.message.find(substr) != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(Validate, CleanConfigurationPasses) {
  const SignatureSet sigs = evasion::default_corpus(32);
  SplitDetectConfig cfg;
  cfg.fast.piece_len = 8;
  cfg.min_ttl = 2;
  const ConfigReport r = validate_config(sigs, cfg);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.count(Severity::error), 0u);
  EXPECT_FALSE(has_issue(r, Severity::warning, "min_ttl"));
  EXPECT_GT(r.piece_count, sigs.size());
  EXPECT_GT(r.matcher_bytes, 0u);
}

TEST(Validate, FlowStateEstimateIsARealTablesFootprint) {
  SplitDetectConfig cfg;
  cfg.fast.piece_len = 8;
  const ConfigReport r = validate_config(evasion::default_corpus(32), cfg);

  // Fill a real fast-path table and measure it the way E2 does.
  constexpr std::size_t kFlows = 1 << 14;
  const flow::FlowTable<FastFlowState>::Config tc{
      .max_flows = kFlows,
      .idle_timeout_usec = cfg.fast.flow_idle_timeout_usec,
      .linger_usec = cfg.fast.fin_linger_usec};
  flow::FlowTable<FastFlowState> table(tc);
  for (std::uint32_t n = 0; n < kFlows; ++n) {
    flow::FlowKey k;
    k.a_ip = net::Ipv4Addr(0x0a000000u + n);
    k.b_ip = net::Ipv4Addr(0xc0a80001u);
    k.a_port = static_cast<std::uint16_t>(1024 + (n & 0x7fff));
    k.b_port = 80;
    k.proto = 6;
    table.get_or_create(k, 0);
  }
  ASSERT_EQ(table.size(), kFlows);
  EXPECT_EQ(table.memory_bytes(),
            flow::FlowTable<FastFlowState>::footprint_bytes(tc));
  // At 1M flows only the index's power-of-two rounding differs from this
  // table (8.4 vs 8 B/flow), so the estimate per flow is this table's
  // measured bytes_per_flow to within a byte.
  EXPECT_NEAR(r.est_fast_state_bytes_1m / 1e6, table.bytes_per_flow(), 1.0);
}

TEST(Validate, EmptySignatureSetIsError) {
  const SignatureSet sigs;
  const ConfigReport r = validate_config(sigs, {});
  EXPECT_FALSE(r.ok());
}

TEST(Validate, TooShortSignatureIsError) {
  SignatureSet sigs;
  sigs.add("tiny", std::string_view("short"));  // 5 < 2*8
  SplitDetectConfig cfg;
  cfg.fast.piece_len = 8;
  const ConfigReport r = validate_config(sigs, cfg);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_issue(r, Severity::error, "tiny"));
}

TEST(Validate, TolerantLimitsWarn) {
  const SignatureSet sigs = evasion::default_corpus(32);
  SplitDetectConfig cfg;
  cfg.fast.piece_len = 8;
  cfg.fast.ooo_limit = 3;
  const ConfigReport r = validate_config(sigs, cfg);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(has_issue(r, Severity::warning, "free anomalies"));
}

TEST(Validate, DisabledChecksumsWarn) {
  const SignatureSet sigs = evasion::default_corpus(32);
  SplitDetectConfig cfg;
  cfg.fast.piece_len = 8;
  cfg.fast.verify_checksums = false;
  EXPECT_TRUE(has_issue(validate_config(sigs, cfg), Severity::warning,
                        "checksum verification disabled"));
}

TEST(Validate, MissingTtlKnowledgeWarns) {
  const SignatureSet sigs = evasion::default_corpus(32);
  SplitDetectConfig cfg;
  cfg.fast.piece_len = 8;
  EXPECT_TRUE(
      has_issue(validate_config(sigs, cfg), Severity::warning, "min_ttl"));
}

TEST(Validate, ShortSignaturesTriggerSuffixFloorWarning) {
  SignatureSet sigs;
  sigs.add("short-ish", std::string_view("0123456789ABCDEF"));  // 16 = 2p
  SplitDetectConfig cfg;
  cfg.fast.piece_len = 8;  // needs >= 3*8-3+4 = 25 for a closed gap
  EXPECT_TRUE(has_issue(validate_config(sigs, cfg), Severity::warning,
                        "anchored-suffix floor"));
}

TEST(Validate, HugeThresholdWarns) {
  Rng rng(1);
  const SignatureSet sigs = evasion::synthetic_corpus(5, 128, rng);
  SplitDetectConfig cfg;
  cfg.fast.piece_len = 48;  // threshold 95 > 64
  EXPECT_TRUE(has_issue(validate_config(sigs, cfg), Severity::warning,
                        "small-segment threshold"));
}

TEST(Validate, SampleDrivesHitEstimateAndSuggestion) {
  // A signature whose interior piece is hot in the sample: the doctor must
  // measure the hits and suggest phase optimization.
  SignatureSet sigs;
  sigs.add("hot", std::string_view("abcdefghHOTPIECEijklmnopqrstuvwxy"));
  SplitDetectConfig cfg;
  cfg.fast.piece_len = 8;
  Bytes sample;
  for (int i = 0; i < 3000; ++i) {
    const Bytes junk = to_bytes(" xx HOTPIECE yy ");
    sample.insert(sample.end(), junk.begin(), junk.end());
  }
  const ConfigReport r = validate_config(sigs, cfg, sample);
  EXPECT_GT(r.piece_hits_per_mb, 10.0);
  EXPECT_TRUE(has_issue(r, Severity::warning, "phase-optimized"));
}

TEST(Validate, HitEstimateCountsEveryPieceOccurrence) {
  // The doctor scans the sample with the fast path's own piece automaton:
  // three planted copies of one piece are three hits, and the reported
  // matcher size is that PieceSet's footprint.
  SignatureSet sigs;
  sigs.add("hot", std::string_view("abcdefghHOTPIECEijklmnopqrstuvwxy"));
  SplitDetectConfig cfg;
  cfg.fast.piece_len = 8;
  Bytes sample(1000, '.');
  const Bytes piece = to_bytes("HOTPIECE");
  for (const std::size_t at : {100u, 400u, 900u}) {
    std::copy(piece.begin(), piece.end(),
              sample.begin() + static_cast<std::ptrdiff_t>(at));
  }
  const ConfigReport r = validate_config(sigs, cfg, sample);
  EXPECT_DOUBLE_EQ(r.piece_hits_per_mb, 3.0 * 1e6 / 1000.0);
  EXPECT_EQ(r.matcher_bytes, PieceSet(sigs, 8).memory_bytes());
}

TEST(Validate, QuietSampleNoHitWarning) {
  Rng rng(2);
  const SignatureSet sigs = evasion::synthetic_corpus(10, 64, rng);
  SplitDetectConfig cfg;
  cfg.fast.piece_len = 8;
  const Bytes sample = rng.random_bytes(1 << 18);
  const ConfigReport r = validate_config(sigs, cfg, sample);
  EXPECT_EQ(r.piece_hits_per_mb, 0.0);
  EXPECT_FALSE(has_issue(r, Severity::warning, "times/MB"));
}

}  // namespace
}  // namespace sdt::core
