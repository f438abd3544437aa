#include "core/compiled_ruleset.hpp"

#include <chrono>
#include <map>

#include "core/fast_path.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace sdt::core {

std::string CompileReport::to_json() const {
  JsonWriter j;
  j.begin_object();
  j.field("ok", ok);
  j.field("rules_parsed", static_cast<std::uint64_t>(rules_parsed));
  j.field("signatures", static_cast<std::uint64_t>(signatures));
  j.field("dropped_short", static_cast<std::uint64_t>(dropped_short));
  j.field("duplicate_signatures",
          static_cast<std::uint64_t>(duplicate_signatures));
  j.field("piece_count", static_cast<std::uint64_t>(piece_count));
  j.field("piece_patterns", static_cast<std::uint64_t>(piece_patterns));
  j.field("full_patterns", static_cast<std::uint64_t>(full_patterns));
  j.field("automaton_bytes", static_cast<std::uint64_t>(automaton_bytes));
  j.field("compile_ns", compile_ns);
  j.key("diagnostics").begin_array();
  for (const RuleDiagnostic& d : diagnostics) {
    j.begin_object();
    j.field("line", static_cast<std::uint64_t>(d.line));
    j.field("severity", to_string(d.severity));
    j.field("reason", d.reason);
    j.end_object();
  }
  j.end_array();
  j.end_object();
  return j.str();
}

std::size_t CompiledRuleSet::memory_bytes() const {
  std::size_t n = full_.memory_bytes();
  if (pieces_) n += pieces_->memory_bytes();
  n += full_sids_.capacity() * sizeof(std::uint32_t);
  n += full_begin_.capacity() * sizeof(std::uint32_t);
  for (const Signature& s : sigs_) n += s.bytes.capacity() + s.name.capacity();
  return n;
}

CompileOptions compile_options(const FastPathConfig& cfg) {
  CompileOptions opts;
  opts.piece_len = cfg.piece_len;
  opts.piece_phase_sample = cfg.piece_phase_sample;
  return opts;
}

RuleSetHandle compile_ruleset(SignatureSet sigs, const CompileOptions& opts,
                              std::uint64_t version, std::string source,
                              std::vector<RuleDiagnostic> parse_diags) {
  const auto t0 = std::chrono::steady_clock::now();

  auto rs = std::shared_ptr<CompiledRuleSet>(new CompiledRuleSet());
  rs->version_ = version;
  rs->source_ = std::move(source);
  rs->report_.diagnostics = std::move(parse_diags);
  rs->report_.rules_parsed = sigs.size();

  // Splittability screen: a signature shorter than 2p cannot be tiled into
  // whole pieces (splitter.hpp). At startup that is a configuration error
  // worth failing loudly on; on the reload path a bad rule must not take
  // the box down, so it is dropped with a diagnostic instead (ids are
  // re-assigned densely over the survivors, as SignatureSet requires).
  if (opts.piece_len != 0) {
    const std::size_t min_len = 2 * opts.piece_len;
    bool any_short = false;
    for (const Signature& s : sigs) any_short |= s.bytes.size() < min_len;
    if (any_short) {
      if (!opts.drop_short_signatures) {
        // Reproduce the historic loud failure (same condition piece_offsets
        // checks, surfaced before any automaton work).
        for (const Signature& s : sigs) {
          if (s.bytes.size() < min_len) {
            throw InvalidArgument(
                "compile_ruleset: signature '" + s.name + "' of length " +
                std::to_string(s.bytes.size()) +
                " too short to split at piece length " +
                std::to_string(opts.piece_len) + " (need >= 2x)");
          }
        }
      }
      SignatureSet kept;
      for (const Signature& s : sigs) {
        if (s.bytes.size() < min_len) {
          ++rs->report_.dropped_short;
          rs->report_.diagnostics.push_back(
              {0,
               "signature '" + s.name + "' (" +
                   std::to_string(s.bytes.size()) +
                   " bytes) shorter than 2*piece_len=" +
                   std::to_string(min_len) + "; dropped",
               RuleSeverity::skipped});
        } else {
          kept.add(s.name, ByteView(s.bytes));
        }
      }
      sigs = std::move(kept);
    }
  }

  rs->sigs_ = std::move(sigs);
  rs->report_.signatures = rs->sigs_.size();

  // Full-signature automaton with byte-level dedup: rule bases routinely
  // carry the same content under several sids, and the automaton need hold
  // each distinct string once. CSR maps a pattern hit back to every sid.
  {
    std::vector<Bytes> patterns;
    std::map<Bytes, std::uint32_t> seen;  // signature bytes -> pattern id
    std::vector<std::vector<std::uint32_t>> groups;
    for (const Signature& s : rs->sigs_) {
      const auto [it, fresh] =
          seen.emplace(s.bytes, static_cast<std::uint32_t>(groups.size()));
      if (fresh) {
        patterns.push_back(s.bytes);
        groups.emplace_back();
      } else {
        ++rs->report_.duplicate_signatures;
      }
      groups[it->second].push_back(s.id);
    }
    rs->full_begin_.reserve(groups.size() + 1);
    rs->full_begin_.push_back(0);
    for (const auto& g : groups) {
      rs->full_sids_.insert(rs->full_sids_.end(), g.begin(), g.end());
      rs->full_begin_.push_back(
          static_cast<std::uint32_t>(rs->full_sids_.size()));
    }
    rs->full_ = match::FlatDfa(patterns);
    rs->report_.full_patterns = rs->full_.pattern_count();
  }

  if (opts.piece_len != 0) {
    rs->pieces_.emplace(
        opts.piece_phase_sample.empty()
            ? PieceSet(rs->sigs_, opts.piece_len)
            : PieceSet(rs->sigs_, opts.piece_len,
                       ByteView(opts.piece_phase_sample)));
    rs->report_.piece_count = rs->pieces_->piece_count();
    rs->report_.piece_patterns = rs->pieces_->pattern_count();
  }

  rs->report_.automaton_bytes = rs->full_.memory_bytes() +
                                (rs->pieces_ ? rs->pieces_->memory_bytes() : 0);
  rs->report_.compile_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  return rs;
}

}  // namespace sdt::core
