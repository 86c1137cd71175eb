#!/usr/bin/env python3
"""Run the benchmark several times with different seeds and report, per
metric, the median and the spread (first-to-third quartile distance as a
share of the median, as `statistics.quantiles(values, n=4)` gives the
quartiles), next to the bound in BENCHMARK.json.

Run from the repository root, after one build:

    python3 vbench/stability.py --workload http_multitenant --runs 10

Each run is the command in BENCHMARK.json with `--seed <501 + i>`,
`--seconds <run_seconds>` and `--trace 0`; runs are sequential, one
process at a time.
"""

import argparse
import json
import statistics
import subprocess
import sys

# The seeds of the reference figures in vbench/README.md.
FIRST_SEED = 501


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    shares = []
    for i in range(args.runs):
        seed = FIRST_SEED + i
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        shares.append(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    print(f"failed share per run: {sorted(set(shares))}")
    for name, xs in values.items():
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = f" bound {bound} {'ok' if spread < bound / 3 else 'WIDE'}"
        print(f"{name:32s} median {med:14.6g} spread {spread:7.4f}{verdict}")


if __name__ == "__main__":
    main()
