#!/usr/bin/env python3
"""Steadiness check for the benchmark defined in BENCHMARK.json.

Runs two sets of runs of the BENCHMARK.json command at its run_seconds.
Each set runs every workload once per seed, interleaving the workloads
(seed 1 on each workload, then seed 2, ...) so a slow phase of the host
lands on all of them rather than on one. For every workload and
end-to-end metric it prints, per set, the median over the seeds and the
spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. It also
prints how much worse the second set's median is than the first's, as a
share of the first. Every run's metrics are printed as it ends.

Run from the repository root (two sets of ten seeds take about 45 min):

    python3 perfbench/steady.py --seeds 1-10
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run_set(bench, seeds, label):
    workloads = [w["name"] for w in bench["workloads"]]
    runs = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            argv = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(argv, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"{w} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stdout}\n{proc.stderr}")
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{w} seed {seed}: incorrect run\n{proc.stdout}")
            values = {k: m["value"] for k, m in result["metrics"].items()}
            runs[w].append(values)
            print(f"set {label} {w:<11} seed {seed:<4} "
                  f"attempted {result['attempted']} {json.dumps(values)}",
                  flush=True)
    return runs


def median_and_spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    args = ap.parse_args()
    seeds = seed_list(args.seeds)
    if len(seeds) < 2:
        sys.exit("--seeds: need at least two seeds for quartiles")

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    sets = [run_set(bench, seeds, label) for label in ("1", "2")]

    print()
    print(f"{'workload':<11} {'metric':<15} {'median 1':>12} {'spread 1':>9} "
          f"{'median 2':>12} {'spread 2':>9} {'worse':>7} {'bound':>6}  verdict")
    worst = 0.0
    for w in sets[0]:
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            (med1, sp1), (med2, sp2) = (
                median_and_spread([r[name] for r in s[w]]) for s in sets)
            drop = med1 - med2 if m["better"] == "higher" else med2 - med1
            worse = drop / med1
            ratio = max(sp1, sp2, worse) / bound
            worst = max(worst, ratio)
            verdict = "ok" if ratio <= 1 / 3 else "WIDE"
            print(f"{w:<11} {name:<15} {med1:>12.6g} {sp1:>9.4f} {med2:>12.6g} "
                  f"{sp2:>9.4f} {worse:>7.4f} {bound:>6}  {verdict}")
    print(f"\nworst of spread and median change, over bound: {worst:.3f}")


if __name__ == "__main__":
    main()
