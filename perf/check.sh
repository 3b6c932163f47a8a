#!/usr/bin/env bash
# Self-check of the benchmark: runs every workload twice with the same
# seed and prints, per end-to-end metric, how far the two runs differ.
# Fails if a host-time metric differs by more than its bound in
# BENCHMARK.json, if a simulated metric differs at all, if a run
# reports a failed check, or if the clock probe that every host time is
# scaled by no longer reads what perf/BASELINE.json recorded (another
# machine or toolchain: every host-time metric has shifted by that
# factor). Then runs one workload with another seed to show that
# nothing depends on seed 7.
#
#   perf/check.sh [seconds-per-run]      (default: BENCHMARK.json's run_seconds)
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --quiet --manifest-path perf/Cargo.toml
export VIP_PERF_BIN="${CARGO_TARGET_DIR:-perf/target}/release/vip-perf"

python3 - "${1:-}" <<'EOF'
import json, os, re, subprocess, sys

spec = json.load(open("BENCHMARK.json"))
seconds = sys.argv[1] or str(spec["run_seconds"])
# Simulated metrics carry the smallest bound and must repeat exactly;
# everything else is host time or memory and is held to its bound.
bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
exact = {name for name, b in bound.items() if b <= 0.001}
probes = []

def run(workload, seed):
    out = subprocess.run(
        [os.environ["VIP_PERF_BIN"], "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", "0"],
        capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(out.stdout.splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: a check failed\n{out.stderr}")
    probes.append(float(re.search(r"^clock probe: fastest ([0-9.]+) ns", out.stdout, re.M).group(1)))
    return {name: m["value"] for name, m in result["metrics"].items()}

bad = 0
for workload in (w["name"] for w in spec["workloads"]):
    first, second = run(workload, 7), run(workload, 7)
    print(workload)
    for name, a in first.items():
        b = second[name]
        diff = abs(b - a) / abs(a)
        limit = 0.0 if name in exact else bound[name]
        verdict = "ok" if diff <= limit else "DIFFERS"
        bad += diff > limit
        print(f"  {name:<26} {a:>16.6f} {b:>16.6f}  {diff * 100:7.3f} %  (limit {limit * 100:g} %)  {verdict}")

other = run("tile_functional", 11)
print("tile_functional --seed 11:", ", ".join(f"{k} {v:.6g}" for k, v in other.items()))

# The fastest probe of all these runs is the machine's reference clock
# state; the baseline's was taken the same way.
recorded = json.load(open("perf/BASELINE.json"))["machine"]["clock_probe_ns_per_step"]
drift = min(probes) / recorded - 1
verdict = "ok" if abs(drift) <= 0.03 else "DRIFTED"
bad += abs(drift) > 0.03
print(f"clock probe: {min(probes):.4f} ns per step, baseline {recorded:.4f}  {drift * 100:+.2f} %  (limit 3 %)  {verdict}")
sys.exit(f"{bad} value(s) outside their limit" if bad else 0)
EOF
