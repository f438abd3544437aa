#!/usr/bin/env bash
# Tier-1 gate + concurrency gate + observability gate + fuzz gate, in one
# command:
#
#   1. configure + build + full ctest in ./build        (the tier-1 contract)
#   1b. stress: ctest -L 'runtime|wire' repeated until failure, 20 times
#      at -j4 — the thread-timing tests must hold on a loaded host
#   2. TSan build of the runtime in ./build-tsan and
#      ctest -L 'runtime|telemetry|control|slowpath|wire' under it (the
#      data-race gate: lanes, stats, rule-set hot-reload, the
#      lane-threads → slow-path-worker queue boundary, and the inline
#      VerdictRouter's verdict rings + conservation ledger)
#   2b. wire gates: a no-libpcap configure smoke (./build-nopcap with
#      both live backends forced OFF must still build sdt_wire and
#      ips_gateway — the file backend and VerdictRouter have no optional
#      deps), an inline-vs-tap parity check (ips_gateway on a golden
#      attack trace must emit the identical alert digest in both modes,
#      with the wire ledger conserved and shed == 0), and a
#      bench_inline_soak --quick smoke validated against the schema
#   3. bench_snapshot.sh --quick smoke: the bench suite must produce a
#      snapshot that validates against the documented schema
#      (docs/OBSERVABILITY.md), plus a bench_runtime_scaling --quick
#      smoke (the sharded-runtime conservation/verdict/arena asserts
#      under real threads)
#   4. fuzz-smoke: ASan+UBSan build in ./build-asan, a 10k-schedule
#      differential fuzz campaign (sdt_fuzz --quick --seed 1), a
#      mixed-framing campaign (--framing mixed: v6/vlan/qinq/vxlan/gre
#      re-framing plus the v4-vs-v6 verdict-parity crosscheck), ctest -L
#      fuzz under the sanitizers, the slow-path churn soak under ASan
#      (flow-table lifecycle leaks surface as growth), and the packet
#      arena slab-recycling tests under ASan (use-after-recycle must
#      fail loudly) (docs/TESTING.md)
#   5. match-kernel gate: ctest -L match under ASan+UBSan (the SIMD
#      prefilter and batched flat-DFA walk hit raw pointers and lane
#      gathers — equivalence bugs there must fail loudly, not corrupt),
#      plus a bench_match_kernels --quick --json smoke
#   5b. parse-once gate: ctest -L net under ASan+UBSan (EtherType
#      dispatch, VLAN strip, IPv6 extension walk, tunnel decap — a
#      decoder trusting a lying length field must fail loudly)
#   5c. inlinebench oracle gate: configure inlinebench/ in Release exactly
#      as its run.py does, build oracle_selftest and run it through ctest
#      (the benchmark's independent oracle must still catch every fault it
#      is seeded with)
#   6. docs gate: scripts/check_docs.py validates every intra-repo
#      markdown link and anchor (docs rot fails the build, not review)
#
# The nightly soak is the same fuzzer run open-ended; see docs/TESTING.md:
#   ./build-asan/tools/sdt_fuzz --seconds 3600 --seed "$(date +%s)"
#
# Usage: scripts/check.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

echo "== tier-1: configure + build =="
cmake -B build -S . >/dev/null
cmake --build build -j "${JOBS}"

echo "== tier-1: ctest =="
(cd build && ctest --output-on-failure -j "${JOBS}")

echo "== stress: runtime|wire tests, repeated until failure (x20) =="
ctest --test-dir build --repeat until-fail:20 -L 'runtime|wire' -j4 \
  --output-on-failure

echo "== tsan: configure + build (SDT_SANITIZE=thread) =="
cmake -B build-tsan -S . -DSDT_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "${JOBS}"

echo "== tsan: ctest -L 'runtime|telemetry|control|slowpath|wire' =="
(cd build-tsan && ctest -L 'runtime|telemetry|control|slowpath|wire' \
  --output-on-failure -j "${JOBS}")

echo "== wire: no-libpcap configure smoke (file backend + router only) =="
cmake -B build-nopcap -S . -DSDT_WITH_PCAP=OFF -DSDT_WITH_AFPACKET=OFF \
  >/dev/null
cmake --build build-nopcap -j "${JOBS}" --target sdt_wire ips_gateway \
  >/dev/null

echo "== wire: inline-vs-tap alert-digest parity (ips_gateway) =="
PARITY_PCAP=tests/data/inorder_attack.pcap
# The gateway prints a human preamble line before the JSON and exits 1
# when it alerts (which this attack trace must), hence tail -1 and ||.
(./build/examples/ips_gateway "${PARITY_PCAP}" --json || true) \
  | tail -1 > /tmp/sdt_parity_tap.json
(./build/examples/ips_gateway "${PARITY_PCAP}" --inline --json || true) \
  | tail -1 > /tmp/sdt_parity_inline.json
python3 - <<'EOF'
import json
tap = json.load(open('/tmp/sdt_parity_tap.json'))
inl = json.load(open('/tmp/sdt_parity_inline.json'))
def digest(doc):
    return sorted((a.get('signature_id', a.get('signature')),
                   a['ts_usec'], a['stream_offset']) for a in doc['alerts'])
assert digest(tap), 'parity trace produced no alerts'
assert digest(tap) == digest(inl), \
    f'inline alert digest diverges from tap: {digest(tap)} vs {digest(inl)}'
w = inl['wire']
assert w['conserved'], f'inline run not conserved: {w}'
assert w['shed'] == 0, f'inline parity run shed packets: {w}'
print(f"parity ok: {len(digest(tap))} alert(s), "
      f"{w['captured']} captured, conserved")
EOF
rm -f /tmp/sdt_parity_tap.json /tmp/sdt_parity_inline.json

echo "== wire: bench_inline_soak --quick smoke =="
SOAK_JSON="$(mktemp /tmp/sdt_soak_smoke.XXXXXX.json)"
./build/bench/bench_inline_soak --quick --json "${SOAK_JSON}" >/dev/null
python3 scripts/validate_bench_json.py "${SOAK_JSON}"
rm -f "${SOAK_JSON}"

echo "== bench snapshot smoke (--quick) =="
SMOKE="$(mktemp /tmp/sdt_bench_smoke.XXXXXX.json)"
trap 'rm -f "${SMOKE}"' EXIT
scripts/bench_snapshot.sh --quick --out "${SMOKE}" >/dev/null
python3 scripts/validate_bench_json.py "${SMOKE}"

echo "== runtime-scaling smoke (--quick) =="
./build/bench/bench_runtime_scaling --quick >/dev/null

echo "== asan+ubsan: configure + build (SDT_SANITIZE=address,undefined) =="
cmake -B build-asan -S . -DSDT_SANITIZE=address,undefined >/dev/null
cmake --build build-asan -j "${JOBS}"

echo "== fuzz-smoke: sdt_fuzz --schedules 10000 --quick --seed 1 =="
./build-asan/tools/sdt_fuzz --schedules 10000 --quick --seed 1 \
  --repro-dir /tmp/sdt_fuzz_smoke_repros >/dev/null

echo "== fuzz-smoke: sdt_fuzz --framing mixed (encap + verdict parity) =="
./build-asan/tools/sdt_fuzz --schedules 2500 --quick --seed 2 \
  --framing mixed \
  --repro-dir /tmp/sdt_fuzz_smoke_repros >/dev/null

echo "== fuzz-smoke: ctest -L fuzz (asan+ubsan) =="
(cd build-asan && ctest -L fuzz --output-on-failure -j "${JOBS}")

echo "== churn-soak smoke: slowpath lifecycle under asan =="
./build-asan/tests/slowpath_churn_soak_test >/dev/null

echo "== arena smoke: packet-arena slab recycling under asan =="
./build-asan/tests/runtime_packet_arena_test >/dev/null

echo "== match-kernel gate: ctest -L match (asan+ubsan) =="
(cd build-asan && ctest -L match --output-on-failure -j "${JOBS}")

echo "== parse-once gate: ctest -L net (asan+ubsan) =="
(cd build-asan && ctest -L net --output-on-failure -j "${JOBS}")

echo "== match-kernel gate: bench_match_kernels --quick smoke =="
MATCH_JSON="$(mktemp /tmp/sdt_match_smoke.XXXXXX.json)"
./build/bench/bench_match_kernels --quick --json "${MATCH_JSON}" >/dev/null
rm -f "${MATCH_JSON}"

echo "== inlinebench: oracle_selftest =="
cmake -S inlinebench -B .bench_build/inlinebench -DCMAKE_BUILD_TYPE=Release \
  >/dev/null
cmake --build .bench_build/inlinebench -j "${JOBS}" --target oracle_selftest
ctest --test-dir .bench_build/inlinebench --output-on-failure

echo "== docs gate: markdown link/anchor check =="
python3 scripts/check_docs.py

echo "== all checks passed =="
