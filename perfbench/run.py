#!/usr/bin/env python3
"""End-to-end benchmark of HiFIND: packets in -> alerts out.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench_e2e (Release) under
.bench_build/, runs one workload, checks that every repetition and the
traced replay detect the same thing, prints each metric with its unit and,
as the last line, one JSON object: {"correct", "attempted", "failed",
"metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones. README.md describes the workloads and metrics.

    python3 perfbench/run.py --self-test

builds and runs the benchmark's own tests instead.
"""

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spec  # noqa: E402
import stats  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DATA_DIR = os.path.join(ROOT, ".bench_build", "data")
RAW_DIR = os.path.join(ROOT, ".bench_build", "raw")

# A detector that stops detecting fails the run, not just its metrics.
QUALITY_FLOOR = {"event_recall": 0.5, "precision": 0.5}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(targets):
    """Configures (once) and builds the benchmark's targets in Release."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"error: HiFIND sources not found under {ROOT}/src; run from a "
            "full checkout")
        sys.exit(2)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            log(proc.stdout + proc.stderr)
            sys.exit(2)
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    from bench_common import check_release_build
    check_release_build(BUILD_DIR, allow_non_release=False)
    cmd = ["cmake", "--build", BUILD_DIR, "-j", str(min(4, os.cpu_count() or 1)),
           "--target", *targets]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        log(proc.stdout + proc.stderr)
        sys.exit(2)


def _read(path, default=""):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return default


def _source_digest():
    """sha256 over the tree's sources, for checkouts that are not git
    repositories."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for pattern in ("src/**/*", "perfbench/*"):
        files += glob.glob(os.path.join(ROOT, pattern), recursive=True)
    for path in sorted(p for p in files if os.path.isfile(p)):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def fingerprint(raw):
    """Host and build identity; results are compared only within one."""
    mhz = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("cpu MHz"):
            mhz = line.split(":", 1)[1].strip()
            break
    thp = _read("/sys/kernel/mm/transparent_hugepage/enabled").strip()
    if "[" in thp:
        thp = thp.split("[", 1)[1].split("]", 1)[0]
    commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                            capture_output=True, text=True)
    return {
        "nproc": os.cpu_count(),
        "cpu_mhz": mhz,
        "machine": platform.machine(),
        "simd_backend": raw.get("simd_backend"),
        "thp": thp or "unavailable",
        "numa_nodes": len(glob.glob("/sys/devices/system/node/node[0-9]*")),
        "build_type": raw.get("build_type"),
        "commit": commit.stdout.strip() if commit.returncode == 0 else "none",
        "source_sha256": _source_digest(),
    }


def format_value(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def run(args):
    build(["perfbench_e2e"])
    os.makedirs(RAW_DIR, exist_ok=True)
    out = os.path.join(RAW_DIR,
                       f"{args.workload}-{args.seed}-{args.trace}.json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [os.path.join(BUILD_DIR, "perfbench_e2e"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", DATA_DIR, "--out", out]
    proc = subprocess.run(cmd)
    if not os.path.exists(out):
        log(f"error: perfbench_e2e exited {proc.returncode} without results")
        return 1
    with open(out) as f:
        raw = json.load(f)

    attempted, failed = stats.digest_failures(raw)
    e2e = stats.end_to_end(raw)
    correct = (proc.returncode == 0 and raw["consistent"] == 1 and failed == 0
               and all(e2e[k] >= v for k, v in QUALITY_FLOOR.items()))
    values = e2e if args.trace == 0 else stats.per_layer(raw)
    names = [n for n, *_ in spec.END_TO_END] if args.trace == 0 else \
        [n for n, _ in spec.PER_LAYER]
    metrics = {}
    for name in names:
        value = values[name]
        if isinstance(value, float) and not math.isfinite(value):
            correct = False
            value = 0.0
        metrics[name] = (value, spec.UNITS[name])

    print(f"fingerprint: {json.dumps(fingerprint(raw), sort_keys=True)}")
    tail = stats.tail_percentile(raw["min_intervals"])
    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(raw['passes'])} passes in {raw['measured_s']:.1f} s, "
          f"{sum(len(p['seal_s']) for p in raw['passes'])} intervals, "
          f"tails at p{tail * 100:g}, {attempted} results, {failed} failed")
    if args.trace:
        wall_ms = raw["trace"]["wall_s"] * 1e3
        print(f"traced pass: {wall_ms:.1f} ms wall, excluding set-up")
        for layer, ms in stats.span_table(raw):
            print(f"  span {layer:<14} {ms:12.2f} ms  {ms / wall_ms:7.2%}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {format_value(value)} {unit}")
    print(stats.result_line(correct, attempted, failed, metrics))
    return 0


def self_test():
    build(["perfbench_digest_test"])
    proc = subprocess.run([os.path.join(BUILD_DIR, "perfbench_digest_test")])
    if proc.returncode != 0:
        return proc.returncode
    proc = subprocess.run([sys.executable, "-m", "unittest", "-q",
                           "test_perfbench"], cwd=HERE)
    return proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=[n for n, _ in spec.WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
