#!/usr/bin/env bash
# Run the experiment bench suite and merge the per-bench machine-readable
# reports (schema sdt-bench/1, one per binary via --json) into a single
# snapshot file (schema sdt-bench-snapshot/2, documented in
# docs/OBSERVABILITY.md), then validate it. The snapshot records the host it
# ran on: core count, CPU model and the CMake build type of the binaries.
#
#   scripts/bench_snapshot.sh              # full suite -> BENCH_<date>.json
#   scripts/bench_snapshot.sh --quick      # CI smoke sizing, same schema
#   scripts/bench_snapshot.sh --out x.json # explicit output path
#
# Every timed metric in the snapshot is a median over repeated runs with its
# MAD (median absolute deviation) and run count alongside — never a single
# hot measurement.
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=""
OUT=""
BUILD=build
JOBS="$(nproc)"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --quick) QUICK="--quick"; shift ;;
    --out)   OUT="$2"; shift 2 ;;
    --build) BUILD="$2"; shift 2 ;;
    *) echo "usage: $0 [--quick] [--out FILE] [--build DIR]" >&2; exit 2 ;;
  esac
done

DATE="$(date +%F)"
[[ -n "${OUT}" ]] || OUT="BENCH_${DATE}.json"

BENCHES=(
  evasion_matrix    # E1
  state_memory      # E2
  throughput        # E3
  diversion_rate    # E4
  piece_fp          # E5
  ac_memory         # E6
  anomaly_census    # E7
  slowpath_load     # E8
  overlap_policies  # E9
  diversion_flood   # E10
  inline_soak       # E11
  match_kernels     # A1
  phase_ablation    # A2
  lane_scaling      # A3
  runtime_scaling   # A4
  reload            # A5
)

echo "== build bench binaries (${BUILD}) =="
cmake -B "${BUILD}" -S . >/dev/null
cmake --build "${BUILD}" -j "${JOBS}" \
  $(printf -- '--target bench_%s ' "${BENCHES[@]}") >/dev/null

TMP="$(mktemp -d)"
trap 'rm -rf "${TMP}"' EXIT

for b in "${BENCHES[@]}"; do
  echo "== bench_${b} ${QUICK} =="
  "${BUILD}/bench/bench_${b}" ${QUICK} --json "${TMP}/${b}.json" \
    > "${TMP}/${b}.log" \
    || { echo "bench_${b} failed:" >&2; cat "${TMP}/${b}.log" >&2; exit 1; }
done

# Provenance. An empty cached build type means CMakeLists.txt's default.
BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:STRING=//p' "${BUILD}/CMakeCache.txt")"
BUILD_TYPE="${BUILD_TYPE:-RelWithDebInfo}"
CPU_MODEL="$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -1)"
CPU_MODEL="${CPU_MODEL:-unknown}"

# Merge: benches keyed by their bench id, plus run provenance.
jq -n \
   --arg date "${DATE}" \
   --arg host "$(hostname)" \
   --argjson cores "$(nproc)" \
   --arg cpu_model "${CPU_MODEL}" \
   --arg build_type "${BUILD_TYPE}" \
   --argjson quick "$([[ -n "${QUICK}" ]] && echo true || echo false)" \
   '{schema: "sdt-bench-snapshot/2", date: $date, host: $host,
     cores: $cores, cpu_model: $cpu_model, build_type: $build_type,
     quick: $quick, benches: ([inputs | {(.bench): .}] | add)}' \
   "${TMP}"/*.json > "${OUT}"

python3 scripts/validate_bench_json.py "${OUT}"
echo "== snapshot written: ${OUT} ($(jq '.benches | length' "${OUT}") benches) =="
