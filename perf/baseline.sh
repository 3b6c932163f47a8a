#!/usr/bin/env bash
# Measures every workload untraced (three runs; the one with the best
# host_s_per_iter is kept, so that a bad stretch of the host does not
# become the record) and traced with seed 7, and writes the numbers,
# with the machine they came from, to perf/BASELINE.json.
#
#   perf/baseline.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --quiet --manifest-path perf/Cargo.toml
export VIP_PERF_BIN="${CARGO_TARGET_DIR:-perf/target}/release/vip-perf"

python3 - <<'EOF'
import json, os, re, subprocess, sys

spec = json.load(open("BENCHMARK.json"))
seed, seconds = 7, spec["run_seconds"]

def sh(*cmd):
    return subprocess.run(cmd, capture_output=True, text=True).stdout.strip()

probes = []

def run(workload, trace):
    out = subprocess.run(
        [os.environ["VIP_PERF_BIN"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} trace {trace}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(out.stdout.splitlines()[-1])
    iterations = re.search(r"^untraced iteration wall: n (\d+)", out.stdout, re.M)
    probes.append(float(re.search(r"^clock probe: fastest ([0-9.]+) ns", out.stdout, re.M).group(1)))
    return result, int(iterations.group(1))

cpu = next(l.split(":", 1)[1].strip() for l in open("/proc/cpuinfo") if l.startswith("model name"))
baseline = {
    "machine": {"nproc": os.cpu_count(), "cpu": cpu, "kernel": sh("uname", "-r"),
                "rustc": sh("rustc", "--version")},
    "seed": seed,
    "run_seconds": seconds,
    "workloads": {},
}
for workload in (w["name"] for w in spec["workloads"]):
    untraced, iterations = min(
        (run(workload, 0) for _ in range(3)),
        key=lambda r: r[0]["metrics"]["host_s_per_iter"]["value"])
    traced, _ = run(workload, 1)
    baseline["workloads"][workload] = {
        "attempted": untraced["attempted"],
        "failed": untraced["failed"],
        "untraced_iterations": iterations,
        "end_to_end": untraced["metrics"],
        "per_layer": traced["metrics"],
    }
    print(workload, "done", file=sys.stderr)
# The fastest clock probe of all the runs: the machine's reference
# clock state, which every host time above is scaled to. check.sh fails
# when it moves.
baseline["machine"]["clock_probe_ns_per_step"] = min(probes)
json.dump(baseline, open("perf/BASELINE.json", "w"), indent=1)
open("perf/BASELINE.json", "a").write("\n")
EOF
