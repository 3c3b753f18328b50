#!/usr/bin/env python3
"""ODNET end-to-end benchmark.

Builds the odnet library and the workload runner (perfbench/odnet_bench.cc)
from the checkout's sources, runs one workload, checks its outputs, prints a
report, and prints one JSON result object as the last line of stdout:

  python3 perfbench/run.py --workload serve_uniform_open --seed 1 \\
      --seconds 15 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json from an untraced
run. --trace 1 runs the workload's fixed traced phase instead and reports
the per-layer metrics (perfbench/trace_summary.py), each listed in
perfbench/design.json with the end-to-end metric and workload it should
move.

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build) under
the checkout. Exits non-zero when the build fails, when any output check
fails, or when a metric is missing.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))

import trace_summary  # noqa: E402

WORKLOADS = ("serve_uniform_open", "serve_zipf_open", "train_single",
             "train_ps")
# Per-thread trace ring size for traced runs: large enough that the traced
# phase's spans are never overwritten.
TRACE_BUFFER_EVENTS = "1000000"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and builds odnet_bench; returns its path or None."""
    out = build_dir()
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: odnet sources (src/) not found in the checkout")
        return None
    out.mkdir(parents=True, exist_ok=True)
    cmds = []
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        cmds.append(configure)
    cmds.append(["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1)])
    for cmd in cmds:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              check=False)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return None
    binary = out / "odnet_bench"
    return binary if binary.is_file() else None


def run_bench(binary, args, extra, env=None):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)] + extra
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, check=False, env=env)
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    return proc.returncode, result


def load_json(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report_fingerprint(result):
    fp = result["fingerprint"]
    print("fingerprint: " + ", ".join(f"{k}={v}" for k, v in fp.items()))


def report_run(result, units):
    """Human-readable end-to-end report with the workload's detail figures."""
    print(f"workload {result['workload']}")
    report_fingerprint(result)
    e2e = result["e2e"]
    for name, value in e2e.items():
        print(f"  {name:24s} {fmt(value):>14s} {units.get(name, '')}")
    detail = result.get("serve") or result.get("train") or {}
    for name, value in detail.items():
        print(f"    {name:30s} {fmt(value)}")
    print(f"  output checks: {result['check_failures']} failed"
          + (f" ({result['check_summary']})" if result["check_failures"] else ""))


def report_trace(result, metrics, layers):
    """Per-layer report: each metric with the end-to-end metric it moves."""
    print(f"workload {result['workload']} (traced)")
    report_fingerprint(result)
    for name, (value, unit) in metrics.items():
        moves = layers.get(name, {}).get("moves", "")
        print(f"  {name:46s} {fmt(value):>14s} {unit:6s} -> {moves}")
    print(f"  output checks: {result['check_failures']} failed"
          + (f" ({result['check_summary']})" if result["check_failures"] else ""))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench = load_json(ROOT / "BENCHMARK.json")
    binary = build()
    if binary is None:
        return 1

    if args.trace:
        out_dir = build_dir() / "trace" / args.workload
        out_dir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ, ODNET_TRACE_BUFFER_EVENTS=TRACE_BUFFER_EVENTS)
        code, result = run_bench(binary, args,
                                  ["--mode", "trace", "--out-dir", str(out_dir)],
                                  env)
        if result is None:
            log(f"perfbench: odnet_bench exited {code} without a result")
            return 1
        summary = trace_summary.summarize(
            out_dir / "trace.json", load_json(out_dir / "registry_before.json"),
            load_json(out_dir / "registry_after.json"), result)
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        wanted = list(units)
        metrics = {name: (summary[name], units[name])
                   for name in wanted if name in summary}
        report_trace(result, metrics,
                     load_json(HERE / "design.json")["per_layer"])
    else:
        code, result = run_bench(binary, args, ["--mode", "run"])
        if result is None:
            log(f"perfbench: odnet_bench exited {code} without a result")
            return 1
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        report_run(result, units)
        wanted = list(units)
        metrics = {name: (result["e2e"][name], units[name])
                   for name in wanted if name in result["e2e"]}

    missing = [name for name in wanted if name not in metrics]
    bad = [name for name, (value, _) in metrics.items()
           if value is None or not math.isfinite(value)]
    if not args.trace:
        bad += [name for name, (value, _) in metrics.items() if value == 0]
    correct = (code == 0 and result["check_failures"] == 0 and not missing
               and not bad)
    if missing or bad:
        log(f"perfbench: missing metrics {missing}, invalid metrics {bad}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, int(result["attempted"])),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 2


if __name__ == "__main__":
    sys.exit(main())
