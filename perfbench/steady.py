#!/usr/bin/env python3
"""Steadiness report: run each workload several times and compare every
end-to-end metric's spread with its bound in ``BENCHMARK.json``.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads served-explore --save a.json
    python3 perfbench/steady.py --runs 10 --seed 101 --baseline a.json

Run ``i`` of a workload uses seed ``--seed + i``; workloads are interleaved
run by run, so slow host periods hit all of them alike.  For each metric the
report prints the median, quartiles, min and max over the runs and the
spread: the distance between the quartiles, as ``statistics.quantiles(values,
n=4)`` gives them, as a share of the median.  A spread above the bound is
flagged ``OVER``.  With ``--baseline`` it also prints how far each median
moved from a saved report, in the metric's worse direction, and flags a move
beyond the bound.  The host-speed probe's range is printed beside each
workload so drift between two sets of runs can be told from a code change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent


def run_once(command: List[str], workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    """One benchmark process; its result line plus the host-probe readings
    and the process's wall time."""
    start = time.perf_counter()
    done = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    probe = next(line for line in lines if line.startswith("host-probe-ms "))
    result["host_probe_ms"] = json.loads(probe.split(" ", 1)[1])
    result["wall_s"] = time.perf_counter() - start
    return result


def spread(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "spread": (q3 - q1) / median if median else float("inf"),
    }


def report(
    config: Dict[str, Any], results: Dict[str, List[Dict[str, Any]]], baseline: Optional[Dict[str, Any]]
) -> bool:
    """Print the table; returns whether every metric stayed within bounds."""
    steady = True
    for workload, runs in results.items():
        probes = [value for run in runs for value in run["host_probe_ms"].values()]
        failed = sum(run["failed"] for run in runs)
        attempted = sum(run["attempted"] for run in runs)
        walls = [run["wall_s"] for run in runs]
        print(f"\n{workload}: {len(runs)} runs of {min(walls):.0f}-{max(walls):.0f} s, "
              f"error_rate {failed / attempted:.4g} ({failed} of {attempted}), "
              f"host probe {min(probes):.1f}-{max(probes):.1f} ms")
        header = f"{'metric':24} {'unit':6} {'median':>11} {'q1':>11} {'q3':>11} {'min':>11} {'max':>11} {'spread':>7} {'bound':>6}"
        print(header + ("  base-move" if baseline else ""))
        for metric in config["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [run["metrics"][name]["value"] for run in runs]
            stats = spread(values)
            flag = "OVER" if stats["spread"] > bound else "ok"
            steady &= flag == "ok"
            line = (f"{name:24} {metric['unit']:6} {stats['median']:11.5g} {stats['q1']:11.5g} "
                    f"{stats['q3']:11.5g} {stats['min']:11.5g} {stats['max']:11.5g} "
                    f"{stats['spread']:7.3f} {bound:6.3f} {flag:4}")
            if baseline and workload in baseline:
                before = spread([run["metrics"][name]["value"] for run in baseline[workload]])["median"]
                move = (stats["median"] - before) / before
                worse = move if metric["better"] == "lower" else -move
                line += f" {worse:+8.3f} {'OVER' if worse > bound else 'ok'}"
                steady &= worse <= bound
            print(line)
    return steady


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first run")
    parser.add_argument("--workloads", help="comma-separated subset (default: all)")
    parser.add_argument("--save", type=Path, help="write the raw results here as JSON")
    parser.add_argument("--baseline", type=Path, help="a file written by --save to compare with")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to have quartiles")
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in config["workloads"]]
    if args.workloads:
        names = [name for name in args.workloads.split(",") if name]
    results: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    for index in range(args.runs):
        for name in names:
            run = run_once(config["command"], name, args.seed + index, config["run_seconds"])
            results[name].append(run)
            print(f"{name} seed {args.seed + index}: " + ", ".join(
                f"{key}={metric['value']:.5g}" for key, metric in run["metrics"].items()
            ), flush=True)
    if args.save:
        args.save.write_text(json.dumps(results, indent=1), encoding="utf-8")
    baseline = json.loads(args.baseline.read_text(encoding="utf-8")) if args.baseline else None
    return 0 if report(config, results, baseline) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
