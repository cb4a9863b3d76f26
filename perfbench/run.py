#!/usr/bin/env python3
"""Build and run the SigRec benchmark described in BENCHMARK.json.

One run (what BENCHMARK.json's "command" invokes, from the checkout root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds perfbench/bench.exe from the checkout with dune, into .bench_build,
then runs it with the same arguments. The executable's standard output is
passed through; its last line is the JSON result. If the build fails (for
instance because the sources of the program are missing) this script exits
with code 2 and prints no result.

Spread mode, for setting and checking the bounds in BENCHMARK.json:

    python3 perfbench/run.py --spread RUNS [--seconds S] [--first-seed N]
                             [--workload NAME ...]

runs every named workload (default: all) RUNS times with consecutive seeds
and prints, for every end-to-end metric, the median, the first and third
quartiles (statistics.quantiles, n=4) and their distance as a share of the
median, next to a third of the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")


def build():
    env = dict(os.environ)
    # Keep dune's artifacts, cache included, inside the checkout.
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.join(BUILD_DIR, "xdg-cache")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "-j", "2", "./perfbench/bench.exe"]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except FileNotFoundError:
        print("perfbench: dune not found", file=sys.stderr)
        return False
    if done.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return False
    return True


def run_once(workload, seed, seconds, trace, capture=False):
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if not capture:
        return subprocess.run(cmd).returncode
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: {workload} seed {seed} failed "
                         f"(exit {done.returncode})\n{done.stdout}")
    return json.loads(lines[-1])


def spread(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    worst = 0.0
    for workload in names:
        values = {}
        for k in range(args.spread):
            result = run_once(workload, args.first_seed + k, args.seconds, 0,
                              capture=True)
            if not result["correct"]:
                raise SystemExit(f"perfbench: {workload} output check failed")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"  seed {args.first_seed + k}: " + ", ".join(
                f"{name} {m['value']:.6g}" for name, m in result["metrics"].items()),
                flush=True)
        print(f"{workload}: {args.spread} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.spread - 1}")
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            share = (q3 - q1) / med if med else float("inf")
            limit = bounds.get(name, float("nan")) / 3
            flag = "" if share < limit else "  WIDE"
            worst = max(worst, share / limit if limit else 0.0)
            print(f"  {name:26s} median {med:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  spread {share:7.4f}  (bound/3 {limit:.4f}){flag}")
        sys.stdout.flush()
    print(f"widest spread / (bound/3): {worst:.3f}")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", action="append")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--spread", type=int, default=0, metavar="RUNS")
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()
    if not build():
        return 2
    if args.spread:
        spread(args)
        return 0
    if not args.workload or len(args.workload) != 1:
        p.error("exactly one --workload is required")
    return run_once(args.workload[0], args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
