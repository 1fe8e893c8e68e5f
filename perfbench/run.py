#!/usr/bin/env python3
"""Build and run the perfbench benchmark.

One measured run:
    python3 perfbench/run.py --workload solve_zp --seed 1 --seconds 20 --trace 0

Smoke mode (every workload, untraced and traced, two seconds each):
    python3 perfbench/run.py --smoke

Run from the root of a checkout. The first call configures and builds the
perfbench binary (and the library it links, from ../src) under .bench_build/;
later calls rebuild incrementally. The binary's stdout is passed through; its last
line is the result object, checked here against BENCHMARK.json: with
--trace 0 it carries every end_to_end metric, with --trace 1 every per_layer
metric (metrics that do not apply to the workload are reported as 0 and
listed in a note). Exits nonzero if the build fails, any output was wrong,
or the result does not match BENCHMARK.json.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170
WORKLOADS = ("solve_zp", "serve_mix")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure (once) and build the binary; False with a log tail on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("perfbench: build failed:\n" + "".join(f.readlines()[-30:]))
                return False
    return True


def check_result(result, spec, trace):
    """Validate the binary's result against BENCHMARK.json and fill in the
    per-layer metrics the workload does not exercise. Returns (result, errors,
    not_applicable)."""
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("result keys are %s" % sorted(result))
        return result, errors, []
    want = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in want}
    metrics = result["metrics"]
    for name, m in metrics.items():
        if name not in units:
            errors.append("metric %s is not a %s metric in BENCHMARK.json"
                          % (name, "per_layer" if trace else "end_to_end"))
        elif m.get("unit") != units[name]:
            errors.append("metric %s has unit %r, BENCHMARK.json says %r"
                          % (name, m.get("unit"), units[name]))
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            errors.append("metric %s has a non-finite value" % name)
    missing = [n for n in units if n not in metrics]
    if trace:
        for name in missing:
            metrics[name] = {"value": 0, "unit": units[name]}
    elif missing:
        errors.append("end-to-end metrics missing: %s" % ", ".join(missing))
    result["metrics"] = {n: metrics[n] for n in units if n in metrics}
    return result, errors, (missing if trace else [])


def run_once(workload, seed, seconds, trace, spec, echo=True):
    """Run the binary once. Returns (exit code, result or None, names of the
    per-layer metrics reported as 0 because they do not apply)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0",
           "--reference", os.path.join(HERE, "reference.txt")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1, None, []
    lines = proc.stdout.splitlines()
    if not lines:
        sys.stderr.write("perfbench: the binary printed nothing (exit %d)\n" % proc.returncode)
        return 1, None, []
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write("perfbench: last line is not a result (exit %d)\n" % proc.returncode)
        return 1, None, []
    result, errors, not_applicable = check_result(result, spec, trace)
    if echo:
        for line in lines[:-1]:
            print(line)
        if not_applicable:
            print("not applicable on %s (reported as 0): %s"
                  % (workload, ", ".join(not_applicable)))
    if errors:
        for e in errors:
            sys.stderr.write("perfbench: %s\n" % e)
        return 1, None, []
    if proc.returncode == 0 and not result["correct"]:
        return 1, result, not_applicable
    return proc.returncode, result, not_applicable


def smoke(spec):
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            code, result, _ = run_once(workload, 1, 2, trace, spec, echo=False)
            status = "ok" if code == 0 and result is not None else "FAILED"
            ok = ok and status == "ok"
            print("smoke %-12s trace=%d  %s  (%s metrics)"
                  % (workload, trace, status, len(result["metrics"]) if result else 0))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required (or --smoke)")

    spec = load_spec()
    if not build():
        return 1
    if args.smoke:
        return smoke(spec)
    code, result, _ = run_once(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    if result is not None:
        print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
