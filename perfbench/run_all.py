#!/usr/bin/env python3
"""Runs every workload, untraced and traced, and writes BENCHMARK.json.

    python3 perfbench/run_all.py [--seed N] [--seconds S]

Run from the repository root. Prints every metric by name with its unit,
writes BENCHMARK.json from spec.py, and keeps the collected result lines,
tagged with the host fingerprint, in .bench_build/results.json. Exits
non-zero if any run fails or reports incorrect output.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spec  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
        json.dump(spec.benchmark_json(), f, indent=2)
        f.write("\n")

    results, ok = [], True
    for workload, _ in spec.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            lines = proc.stdout.strip().splitlines()
            sys.stderr.write(proc.stderr)
            print(f"== {workload} (trace {trace})")
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(f"   run failed with exit code {proc.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= result["correct"]
            fp = next(json.loads(l.split(":", 1)[1]) for l in lines
                      if l.startswith("fingerprint:"))
            results.append({"workload": workload, "trace": trace,
                            "seed": args.seed, "fingerprint": fp,
                            "result": result})

    fingerprints = {json.dumps(r["fingerprint"], sort_keys=True)
                    for r in results}
    if len(fingerprints) > 1:
        print("error: runs came from more than one host/build fingerprint")
        ok = False
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_build", "results.json"), "w") as f:
        json.dump(results, f, indent=2)
    print("wrote BENCHMARK.json and .bench_build/results.json")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
