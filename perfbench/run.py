#!/usr/bin/env python3
"""Repository benchmark: builds the simulator from source and runs one workload.

    python3 perfbench/run.py --workload clean_scale --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds
perfbench/CMakeLists.txt (the gcube library plus the gcube_perfbench binary)
into .bench_build/perfbench; later calls rebuild only what changed. The last
line of stdout is the result object {"correct", "attempted", "failed",
"metrics"}: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1. Two lines before it carry the run's provenance and the digest of
its deterministic simulation metrics. perfbench/README.md documents the
workloads and metrics.

--self-test runs every workload at GC(10, 4) in both modes and checks that
each metric named in BENCHMARK.json is emitted with its unit, that ratios lie
in [0, 1], and that the threads=1 workload spends no time outside the cycle
phases.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "gcube_perfbench"
WORKLOADS = ("clean_scale", "static_faults", "churn_recovery")
# Claims are tuned on DEFAULT_SEED and re-checked on HELD_OUT_SEED.
DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds gcube_perfbench; output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no library sources under {ROOT / 'src'}; cannot build")
        return False
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return BINARY.is_file()


def git_commit():
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_binary(args):
    """Runs gcube_perfbench; returns (exit code, stdout lines)."""
    try:
        out = subprocess.run([str(BINARY)] + args, cwd=ROOT, text=True,
                             stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"gcube_perfbench exceeded {RUN_TIMEOUT_S} s")
        return 1, []
    return out.returncode, out.stdout.splitlines()


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


# Metrics that are shares of a whole. sim.tracing_overhead is a relative
# difference of two timings and may fall below 0.
RATIOS = {"delivery_ratio", "routing.plan_cache_hit_ratio",
          "routing.hop_cache_hit_ratio", "routing.plan_time_share",
          "sim.outside_phase_share"}
# At threads=1 nothing waits at a barrier; what remains outside the four
# phases is loop overhead.
SINGLE_THREAD_OUTSIDE_MAX = 0.05


def self_test():
    problems = []
    for workload in WORKLOADS:
        digests = set()
        for trace in (0, 1):
            code, lines = run_binary(["--workload", workload, "--seed",
                                      str(DEFAULT_SEED), "--seconds", "0.5",
                                      "--trace", str(trace), "--tiny"])
            tag = f"{workload} trace={trace}"
            if code != 0 or len(lines) < 3:
                problems.append(f"{tag}: exit {code}")
                continue
            result = json.loads(lines[-1])
            digests.add(lines[-2])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if result["correct"] is not True or result["attempted"] < 1:
                problems.append(f"{tag}: not correct or nothing attempted")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected_metrics(trace):
                problems.append(f"{tag}: metrics/units differ from "
                                f"BENCHMARK.json: {got}")
            for name, m in result["metrics"].items():
                if name in RATIOS and not 0.0 <= m["value"] <= 1.0:
                    problems.append(f"{tag}: {name}={m['value']} not in [0, 1]")
            outside = result["metrics"].get("sim.outside_phase_share")
            if (workload == "static_faults" and outside is not None
                    and outside["value"] > SINGLE_THREAD_OUTSIDE_MAX):
                problems.append(f"{tag}: sim.outside_phase_share="
                                f"{outside['value']} at threads=1")
        if len(digests) != 1:
            problems.append(f"{workload}: traced and untraced digests differ")
        log(f"self-test {workload}: done")
    for p in problems:
        log("self-test: " + p)
    log("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if not build():
        return 1
    if args.self_test:
        return self_test()
    code, lines = run_binary(["--workload", args.workload,
                              "--seed", str(args.seed),
                              "--seconds", str(args.seconds),
                              "--trace", str(args.trace),
                              "--commit", git_commit()])
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
