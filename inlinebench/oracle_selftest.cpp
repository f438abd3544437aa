// Oracle self-test: every oracle check can fail.
//
// A small evasion_mix pass runs through the real box once per fault. A
// doctored sink sits between the router and the benchmark's StampSink and
// commits one fault — forward a completing attack packet, drop a benign
// one, duplicate, reorder or lose a release — or the test doctors the
// router ledger or the alert list the oracle is given. Each fault must be
// reported by the check named for it, and the undoctored pass must pass.
//
//   oracle_selftest        exit 0 when every fault was caught
#include <cstdio>
#include <optional>
#include <string>

#include "bench.hpp"

namespace inlinebench {
namespace {

using sdt::net::Packet;
using sdt::wire::WireVerdict;

enum class Fault {
  none,
  forward_completing,
  drop_benign,
  duplicate,
  reorder,
  lose,
  ledger_captured,
  missing_alert,
  spurious_alert,
};

/// Passes releases through to the StampSink, committing `fault` once.
class DoctoredSink final : public sdt::wire::VerdictSink {
 public:
  DoctoredSink(const Workload& w, StampSink& inner, Fault fault)
      : w_(w), inner_(inner), fault_(fault), last_of_flow_(w.flows.size(), 0) {
    for (std::size_t t = 0; t < w.flow_of.size(); ++t) last_of_flow_[w.flow_of[t]] = t;
  }

  void emit(const Packet& pkt, WireVerdict v) override {
    const FlowMeta& m = w_.flows[w_.flow_of[pkt.ticket]];
    ++seen_;
    if (stash_ && w_.flow_of[stash_->pkt.ticket] == w_.flow_of[pkt.ticket]) {
      inner_.emit(pkt, v);  // the later release overtakes the stashed one
      inner_.emit(stash_->pkt, stash_->v);
      stash_.reset();
      return;
    }
    if (!done_) {
      switch (fault_) {
        case Fault::forward_completing:
          if (m.role == FlowRole::attack && v == WireVerdict::drop) {
            done_ = true;
            return inner_.emit(pkt, WireVerdict::accept);
          }
          break;
        case Fault::drop_benign:
          if (m.role == FlowRole::benign && v == WireVerdict::accept) {
            done_ = true;
            return inner_.emit(pkt, WireVerdict::drop);
          }
          break;
        case Fault::duplicate:
          if (seen_ == 100) {
            done_ = true;
            inner_.emit(pkt, v);
            return inner_.emit(pkt, v);
          }
          break;
        case Fault::reorder:
          // Any release whose flow has a later packet to overtake it.
          if (seen_ >= 100 && pkt.ticket < last_of_flow_[w_.flow_of[pkt.ticket]]) {
            done_ = true;
            stash_ = Stashed{pkt, v};
            return;
          }
          break;
        case Fault::lose:
          if (seen_ == 100) {
            done_ = true;
            return;
          }
          break;
        default:
          break;
      }
    }
    inner_.emit(pkt, v);
  }

  bool committed() const { return done_ || fault_ >= Fault::ledger_captured; }

 private:
  struct Stashed {
    Packet pkt;
    WireVerdict v;
  };
  const Workload& w_;
  StampSink& inner_;
  Fault fault_;
  std::uint64_t seen_ = 0;
  bool done_ = false;
  std::optional<Stashed> stash_;
  std::vector<std::size_t> last_of_flow_;
};

struct Case {
  const char* name;
  Fault fault;
  const char* check;  ///< the check that must report it ("" = must pass)
};

int run() {
  const Workload w = make_small_evasion_mix(7, 20'000);
  const Oracle oracle(w);
  const sdt::core::RuleSetHandle rules = compile_rules(w);
  const Case cases[] = {
      {"clean pass", Fault::none, ""},
      {"completing packet forwarded", Fault::forward_completing, "signature_leak"},
      {"benign packet dropped", Fault::drop_benign, "benign_drop"},
      {"release duplicated", Fault::duplicate, "release_once"},
      {"release reordered within a flow", Fault::reorder, "flow_order"},
      {"release lost", Fault::lose, "release_once"},
      {"router ledger off by one", Fault::ledger_captured, "conservation"},
      {"attack alert missing", Fault::missing_alert, "attack_alert"},
      {"benign flow alerts", Fault::spurious_alert, "benign_alert"},
  };
  std::printf("oracle self-test on %zu packets, %zu attack flows\n", w.pass_packets,
              w.count(FlowRole::attack));
  int bad = 0;
  for (const Case& c : cases) {
    StampSink sink(w);
    DoctoredSink doctored(w, sink, c.fault);
    sdt::wire::FileSource src(w.pcap);
    Box box(w, rules, doctored);
    PassTiming t = run_saturation(box, src);
    (void)t;
    sdt::wire::WireStats ledger = box.router().stats();
    box.stop();
    std::vector<sdt::core::Alert> alerts = box.runtime().alerts();
    if (c.fault == Fault::ledger_captured) ++ledger.captured;
    if (c.fault == Fault::missing_alert || c.fault == Fault::spurious_alert) {
      for (std::size_t f = 0; f < w.flows.size(); ++f) {
        const FlowMeta& m = w.flows[f];
        if (c.fault == Fault::missing_alert && m.role == FlowRole::attack) {
          std::erase_if(alerts, [&](const sdt::core::Alert& a) {
            return oracle.flow_of_alert(a) == static_cast<std::int64_t>(f);
          });
          break;
        }
        if (c.fault == Fault::spurious_alert && m.role == FlowRole::benign) {
          sdt::core::Alert a;
          a.flow = sdt::flow::make_flow_ref(m.ep.client, m.ep.server, m.ep.client_port,
                                            m.ep.server_port, 6)
                       .key;
          a.signature_id = 0;
          alerts.push_back(a);
          break;
        }
      }
    }
    const Judgement j = oracle.judge(sink, ledger, alerts);
    const bool ok = *c.check == '\0' ? j.correct() : doctored.committed() && j.failed(c.check);
    std::printf("%-34s %s", c.name, ok ? "ok  " : "FAIL");
    if (*c.check != '\0') std::printf("  (expected %s)", c.check);
    std::printf("\n");
    for (const std::string& f : j.failures) std::printf("    %s\n", f.c_str());
    bad += ok ? 0 : 1;
  }
  std::printf("%s\n", bad == 0 ? "every check can fail: ok" : "SELF-TEST FAILED");
  return bad == 0 ? 0 : 1;
}

}  // namespace
}  // namespace inlinebench

int main() { return inlinebench::run(); }
