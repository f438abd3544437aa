// CompiledRuleSet — the immutable, versioned rule artifact.
//
// The paper's operating point (inline on a 20 Gbps link, 1M connections)
// forbids restarting the box to pick up a new signature, so the expensive
// step — parse rules, split signatures into pieces, build the two
// automata — happens entirely off the packet path, producing ONE immutable
// object that the engines merely *reference*:
//
//   rules text ──parse──► SignatureSet ──compile──► CompiledRuleSet
//                                                     ├ signatures (owned)
//                                                     ├ PieceSet   (fast path)
//                                                     ├ full-sig automaton
//                                                     │   (slow path, deduped)
//                                                     └ CompileReport
//
// Ownership is `shared_ptr<const CompiledRuleSet>` (RuleSetHandle): the
// registry publishes a new handle, each lane adopts it at a packet
// boundary, and the old artifact is reclaimed automatically when the last
// holder (a lane, or a flow pinned to the version it started under) drops
// its reference. Nothing in here is mutated after compile_ruleset returns,
// so concurrent readers need no locks.
//
// Full-signature dedup mirrors the PieceSet's: identical signature
// byte-strings share one automaton pattern, and sids_for_pattern() maps a
// match back to EVERY signature id that carries those bytes — alerts are
// raised per sid, so operators see all of their rules fire, while the
// automaton holds each distinct string once.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/rules.hpp"
#include "core/signature.hpp"
#include "core/splitter.hpp"
#include "match/flat_dfa.hpp"

namespace sdt::core {

/// Knobs for one compile. Mirrors the per-engine config fields that shape
/// the automata; the artifact records them so a swap can be validated
/// against the running engines' expectations.
struct CompileOptions {
  /// Piece length p for the fast path's PieceSet. 0 = slow-path-only
  /// artifact (no pieces; FastPath refuses such a handle).
  std::size_t piece_len = 0;
  /// Optional benign-payload sample for the rare-piece phase optimization.
  Bytes piece_phase_sample;
  /// Signatures shorter than 2*piece_len cannot be safely split. false:
  /// throw InvalidArgument (the historic constructor behaviour — config
  /// errors at startup should be loud). true: drop them with a skipped
  /// diagnostic (the reload path — a bad rule must not take down the box).
  bool drop_short_signatures = false;
};

/// Everything a reload caller needs to know about one compile: the parse
/// diagnostics, what was kept/dropped/shared, the automata sizes, and how
/// long the offline step took.
struct CompileReport {
  std::vector<RuleDiagnostic> diagnostics;
  std::size_t rules_parsed = 0;     // signatures out of the parser
  std::size_t signatures = 0;       // signatures in the artifact
  std::size_t dropped_short = 0;    // dropped by drop_short_signatures
  std::size_t duplicate_signatures = 0;  // byte-identical to an earlier sig
  std::size_t piece_count = 0;      // (signature, offset) mappings
  std::size_t piece_patterns = 0;   // unique piece automaton patterns
  std::size_t full_patterns = 0;    // unique full-signature patterns
  std::size_t automaton_bytes = 0;  // both automata + mappings
  std::uint64_t compile_ns = 0;
  bool ok = true;

  std::size_t count(RuleSeverity s) const {
    std::size_t n = 0;
    for (const auto& d : diagnostics) n += d.severity == s ? 1 : 0;
    return n;
  }

  /// Render as a JSON object (diagnostics included) — the control plane's
  /// reload response embeds this verbatim.
  std::string to_json() const;
};

/// The immutable artifact. Construct via compile_ruleset(); every accessor
/// is const and data-race-free against concurrent readers.
class CompiledRuleSet {
 public:
  const SignatureSet& signatures() const { return sigs_; }
  std::uint64_t version() const { return version_; }
  const std::string& source() const { return source_; }
  const CompileReport& report() const { return report_; }

  /// Fast-path database. has_pieces() is false for slow-only artifacts
  /// (piece_len 0); pieces() on such an artifact is undefined.
  bool has_pieces() const { return pieces_.has_value(); }
  const PieceSet& pieces() const { return *pieces_; }
  std::size_t piece_len() const { return pieces_ ? pieces_->piece_len() : 0; }

  /// Slow-path full-signature matcher (deduplicated patterns).
  const match::FlatDfa& full_matcher() const { return full_; }

  /// Every signature id carrying the bytes of full-matcher pattern
  /// `pattern_id` (>= 1 entry; > 1 when rules duplicate content).
  std::span<const std::uint32_t> sids_for_pattern(
      std::uint32_t pattern_id) const {
    return std::span<const std::uint32_t>(full_sids_)
        .subspan(full_begin_[pattern_id],
                 full_begin_[pattern_id + 1] - full_begin_[pattern_id]);
  }

  /// Artifact footprint: automata + mappings + signature copies.
  std::size_t memory_bytes() const;

 private:
  friend std::shared_ptr<const CompiledRuleSet> compile_ruleset(
      SignatureSet, const CompileOptions&, std::uint64_t, std::string,
      std::vector<RuleDiagnostic>);

  CompiledRuleSet() = default;

  std::uint64_t version_ = 0;
  std::string source_;
  SignatureSet sigs_;
  std::optional<PieceSet> pieces_;
  match::FlatDfa full_;
  /// CSR: full-matcher pattern id -> full_sids_[begin[id], begin[id+1]).
  std::vector<std::uint32_t> full_sids_;
  std::vector<std::uint32_t> full_begin_;
  CompileReport report_;
};

/// Shared-ownership handle — what the registry publishes, lanes adopt, and
/// in-flight flows pin.
using RuleSetHandle = std::shared_ptr<const CompiledRuleSet>;

struct FastPathConfig;

/// The compile options an engine configured by `cfg` can adopt: its piece
/// length and phase sample. Every "config -> artifact" path derives its
/// options here, so a published artifact always matches the lanes.
CompileOptions compile_options(const FastPathConfig& cfg);

/// The offline compile. Consumes `sigs` (post-parse); `parse_diags` (from
/// RuleParseResult) are folded into the report so the artifact carries the
/// full story of its own construction. Throws InvalidArgument only for
/// configuration errors the options forbid tolerating (short signature
/// with drop_short_signatures=false, piece_len but no usable signatures
/// left); rule-content problems become diagnostics instead.
RuleSetHandle compile_ruleset(SignatureSet sigs, const CompileOptions& opts,
                              std::uint64_t version = 0,
                              std::string source = "inline",
                              std::vector<RuleDiagnostic> parse_diags = {});

}  // namespace sdt::core
