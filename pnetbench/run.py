#!/usr/bin/env python3
"""The repository benchmark: builds pnetbench from source, then runs it.

One workload, as BENCHMARK.json's command runs it (the last stdout line is
the result JSON):

    python3 pnetbench/run.py --workload packet_grid --seed 1 --seconds 20 --trace 0

Every workload, RUNS seeds each, plus one traced run per workload; prints
each end-to-end metric as a median with quartiles and writes them, with
their provenance, to pnetbench/baseline.json:

    python3 pnetbench/run.py --workload all --seconds 20

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) and is incremental; reports and Chrome traces go to
<build>/out.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["packet_grid", "flow_sweep", "fault_control", "serve_mix"]
# Seeds per workload with --workload all.
RUNS = 10
# A run must end within 180 s; leave room for start-up and the build
# check.
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build():
    """Configures (once) and builds pnetbench; returns the binary path."""
    out = os.path.join(build_dir(), "pnetbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("pnetbench: build failed:", " ".join(step))
            sys.exit(1)
    return os.path.join(out, "pnetbench")


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout text)."""
    out_dir = os.path.join(build_dir(), "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", out_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"pnetbench: {workload} seed {seed} timed out")
        return 1, ""
    return done.returncode, done.stdout


def result_of(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def printed_value(stdout, name):
    """A `name = value ...` line of the human-readable summary."""
    for line in stdout.splitlines():
        key, _, rest = line.strip().partition(" = ")
        if key == name:
            return rest.split()[0]
    return None


def digest_of(stdout):
    return printed_value(stdout, "report_digest")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def provenance(seeds, runs, seconds):
    cache = os.path.join(build_dir(), "pnetbench", "CMakeCache.txt")
    compiler, build_type = "unknown", "unknown"
    if os.path.exists(cache):
        for line in open(cache):
            if line.startswith("CMAKE_CXX_COMPILER:"):
                compiler = line.split("=", 1)[1].strip()
            elif line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
        compiler = f"{compiler} ({version})"
    except (OSError, IndexError):
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                               capture_output=True, text=True).stdout.strip()
        if commit and dirty:
            commit += " plus uncommitted changes"
    except OSError:
        commit = ""
    return {
        "commit": commit or "unknown",
        "compiler": compiler,
        "build_type": build_type,
        "host_cpus": os.cpu_count(),
        "machine": platform.machine(),
        "seeds": seeds,
        "runs": runs,
        "seconds_per_run": seconds,
    }


def run_all(binary, seconds, first_seed, baseline):
    seeds = list(range(first_seed, first_seed + RUNS))
    summary = {}
    ok = True
    for workload in WORKLOADS:
        per_metric, attempted, failed, digests = {}, 0, 0, {}
        for seed in seeds:
            code, stdout = run_one(binary, workload, seed, seconds, 0)
            result = result_of(stdout)
            if code != 0 or result is None or not result["correct"]:
                log(f"pnetbench: {workload} seed {seed} failed (exit {code})")
                ok = False
                continue
            attempted += result["attempted"]
            failed += result["failed"]
            digests[seed] = digest_of(stdout)
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, (m["unit"], []))[1].append(
                    m["value"])
            # Printed but not gated by BENCHMARK.json (see README.md).
            for name, unit in (("p50_ms", "ms"), ("p99_ms", "ms"),
                               ("max_qps_in_slo", "1/s")):
                per_metric.setdefault(f"{name} (not gated)", (unit, []))[
                    1].append(float(printed_value(stdout, name)))
        code, stdout = run_one(binary, workload, seeds[0], seconds, 1)
        traced = result_of(stdout)
        if code != 0 or traced is None or not traced["correct"]:
            log(f"pnetbench: traced {workload} failed (exit {code})")
            ok = False
        # Two processes of one commit, one seed: the same report bytes.
        if seeds[0] in digests and digest_of(stdout) != digests[seeds[0]]:
            log(f"pnetbench: {workload} seed {seeds[0]}: traced run's "
                f"report digest differs from the untraced run's")
            ok = False
        row = {"fail_ratio": failed / attempted if attempted else None,
               "ops": attempted, "report_digests": digests, "metrics": {}}
        print(f"{workload}: fail_ratio {row['fail_ratio']} "
              f"(failed {failed} / ops {attempted})")
        for name, (unit, values) in per_metric.items():
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("nan")
            row["metrics"][name] = {"unit": unit, "median": med, "q1": q1,
                                    "q3": q3, "iqr_over_median": spread,
                                    "values": values}
            print(f"  {name:16s} {med:12.6g} {unit:4s}  "
                  f"[q1 {q1:.6g}, q3 {q3:.6g}, iqr/median {spread:.3f}]")
        if traced is not None:
            row["per_layer_seed"] = seeds[0]
            row["per_layer"] = {k: v["value"]
                                for k, v in traced["metrics"].items()}
        summary[workload] = row
    doc = {"provenance": provenance(seeds, RUNS, seconds),
           "workloads": summary}
    with open(baseline, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    log(f"pnetbench: wrote {baseline}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--baseline",
                        default=os.path.join(HERE, "baseline.json"),
                        help="summary written with --workload all")
    args = parser.parse_args()
    binary = build()
    if args.workload == "all":
        return run_all(binary, args.seconds, args.seed, args.baseline)
    code, stdout = run_one(binary, args.workload, args.seed, args.seconds,
                           args.trace)
    sys.stdout.write(stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
