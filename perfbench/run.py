#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload dew-family --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout: the program is imported from ``src/``
next to this directory.  The seed fixes every input.  Rounds repeat for
about ``--seconds``; a round sets up and then replays every timed unit (a
sweep, or a served request) once.  A unit's time, and each set-up item's,
comes from all its readings, with the CPU-bound part scaled to
reference-host seconds by the host probes around each reading (see
``hostspeed.py``).  Metric names and units come from ``BENCHMARK.json``.
With ``--trace 0`` the result line holds the end-to-end metrics; with
``--trace 1`` odd rounds are traced, the line holds the per-layer metrics
plus tracing overhead, and the spans are written to
``.perfbench/spans-<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.hostspeed import HostClock, Reading, host_probe_ms, reference_seconds  # noqa: E402

#: Fewest rounds a run makes, so every unit has at least three readings.
#: A traced run makes an even number, at least four, so that traced and
#: untraced rounds are as many.
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 4
#: Per-layer metrics named ``tracing.delta.<metric>`` report the traced
#: minus the untraced value of the end-to-end ``<metric>``.
TRACING_DELTA = "tracing.delta."

_IMPORT_CODE = (
    "import time; start = time.perf_counter(); import repro.cli; "
    "print(time.perf_counter() - start)"
)


@dataclass
class Round:
    traced: bool
    setup: Dict[str, List[Reading]] = field(default_factory=dict)
    outcomes: List[Any] = field(default_factory=list)


def import_seconds(env: Dict[str, str]) -> float:
    """``import repro.cli`` in a fresh interpreter, timed inside it."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_CODE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.split()[-1])


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def end_to_end(
    rounds: List[Tuple[int, Round]], failed: Set[Tuple[int, int]], peak_rss_mb: float
) -> Dict[str, float]:
    """End-to-end metrics from each unit's and set-up item's time over its
    readings, in reference-host seconds."""
    readings: Dict[str, List[Reading]] = {}
    work: Dict[str, int] = {}
    setup: Dict[str, List[Reading]] = {}
    for index, record in rounds:
        for item, values in record.setup.items():
            setup.setdefault(item, []).extend(values)
        for position, outcome in enumerate(record.outcomes):
            if (index, position) in failed:
                continue
            readings.setdefault(outcome.unit, []).append(outcome.reading)
            work[outcome.unit] = outcome.config_accesses
    latencies = [reference_seconds(values) for values in readings.values()]
    total = sum(latencies)
    return {
        "setup_s": sum(reference_seconds(values) for values in setup.values()),
        "config_accesses_per_s": sum(work.values()) / total,
        "req_p50_s": percentile(latencies, 50),
        "req_p90_s": percentile(latencies, 90),
        "requests_per_s": len(latencies) / total,
        "peak_rss_mb": peak_rss_mb,
    }


def check_replays(
    rounds: List[Round], reference_errors: Dict[str, str]
) -> Tuple[Set[Tuple[int, int]], List[str]]:
    """Operations, as ``(round, position in round)``, that raised, disagree
    with the reference, or whose answer differs from the unit's first replay
    (output digest and DEW counters)."""
    failed: Set[Tuple[int, int]] = set()
    messages = [f"{unit}: {error}" for unit, error in sorted(reference_errors.items())]
    first: Dict[str, Tuple[str, Tuple[Any, ...]]] = {}
    for index, record in enumerate(rounds):
        for position, outcome in enumerate(record.outcomes):
            key = (index, position)
            if outcome.error is not None:
                failed.add(key)
                messages.append(f"round {index} {outcome.unit}: {outcome.error}")
            elif outcome.unit in reference_errors:
                failed.add(key)
            elif first.setdefault(outcome.unit, (outcome.output, outcome.counters)) != (
                outcome.output,
                outcome.counters,
            ):
                failed.add(key)
                messages.append(f"round {index} {outcome.unit}: replay differs from the first")
    return failed, messages


def another_round(done: int, elapsed: float, seconds: float, traced: bool) -> bool:
    """Whether to start another round: while the next one would likely end
    within ``seconds``, and until the minimum count is reached."""
    if traced and (done < MIN_TRACED_ROUNDS or done % 2):
        return True
    return done < MIN_ROUNDS or elapsed * (done + 1) / done <= seconds


def _parse_args(argv: List[str], workloads: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = _parse_args(argv, [workload["name"] for workload in config["workloads"]])
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench import corpus, layers, workloads
    from perfbench.spans import Tracer
    from repro.trace.files import load_trace_file

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if part
    )
    # Relative, so socket paths under it stay short wherever the checkout is.
    work = Path(".perfbench") / f"run-{os.getpid()}"
    tracer = Tracer(False)
    rounds: List[Round] = []
    outputs: Dict[str, str] = {}
    cpus = sorted(os.sched_getaffinity(0))
    try:
        probe_before = host_probe_ms()
        paths = corpus.write_corpus(args.seed, work / "corpus")
        workload = workloads.WORKLOADS[args.workload](args.seed, paths, work, tracer)
        started = time.perf_counter()
        while not rounds or another_round(
            len(rounds), time.perf_counter() - started, args.seconds, bool(args.trace)
        ):
            replay = len(rounds)
            tracer.enabled = bool(args.trace) and replay % 2 == 1
            # Each round runs on one CPU, and pairs of rounds take the CPUs
            # in turn, so a traced round runs on the same CPU as the
            # untraced round before it.  On one CPU the served path's thread
            # hand-offs never pay a cross-CPU wake-up, whose cost depends on
            # where the scheduler put the threads.
            os.sched_setaffinity(0, {cpus[(replay // 2) % len(cpus)]})
            record = Round(tracer.enabled)
            clock = HostClock()
            try:
                for setup in range(workload.setups_per_round):
                    if setup:
                        workload.finish_round()
                    times = {}
                    with tracer.span("import") as span:
                        seconds = import_seconds(env)
                    if span is not None:
                        span["seconds"] = seconds
                    times["import"] = clock.reading(seconds)
                    traces = {}
                    for path in paths:
                        with tracer.span("load_trace_file", unit=path.stem):
                            start = time.perf_counter()
                            traces[path] = load_trace_file(path)
                            seconds = time.perf_counter() - start
                        times[f"parse:{path.stem}"] = clock.reading(seconds)
                    times.update(workload.setup_round(traces, clock))
                    for item, reading in times.items():
                        record.setup.setdefault(item, []).append(reading)
                record.outcomes = workload.run_round(traces, clock)
            finally:
                workload.finish_round()
            rounds.append(record)
            # Each unit's first answer is kept for the reference check, and
            # replays are compared by digest, so memory does not grow with
            # the number of rounds.
            for outcome in record.outcomes:
                if outcome.error is None:
                    outputs.setdefault(outcome.unit, outcome.output)
                    outcome.output = hashlib.sha256(outcome.output.encode()).hexdigest()

        os.sched_setaffinity(0, cpus)
        tracer.enabled = bool(args.trace)
        failed, messages = check_replays(rounds, workload.verify(traces, outputs))
        attempted = sum(len(record.outcomes) for record in rounds)
        if args.trace:
            census = workloads.census(args.workload, args.seed, paths, work, tracer, traces)
            attempted += len(census)
            for position, outcome in enumerate(census):
                if outcome.error is not None:
                    failed.add((-1, position))
                    messages.append(f"census {outcome.unit}: {outcome.error}")
        probe_after = host_probe_ms()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    untraced = [(i, r) for i, r in enumerate(rounds) if not r.traced]
    values = end_to_end(untraced, failed, peak_rss_mb)
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{attempted} operations")
    print("host-probe-ms " + json.dumps({"before": probe_before, "after": probe_after}))
    for metric in config["end_to_end"]:
        print(f"{metric['name']} {values[metric['name']]:.6g} {metric['unit']}")
    print(f"error_rate {len(failed) / attempted:.6g} ratio ({len(failed)} of {attempted} failed)")
    for message in messages:
        print(f"perfbench: {message}", file=sys.stderr)

    if args.trace:
        traced = end_to_end([(i, r) for i, r in enumerate(rounds) if r.traced], failed, peak_rss_mb)
        per_layer = layers.layer_metrics(tracer.spans)
        metrics = {}
        for metric in config["per_layer"]:
            name = metric["name"]
            if name.startswith(TRACING_DELTA):
                base = name[len(TRACING_DELTA):]
                value = traced[base] - values[base]
            else:
                value = per_layer[name]
            metrics[name] = {"value": value, "unit": metric["unit"]}
            print(f"{name} {value:.6g} {metric['unit']}")
        tracer.write_jsonl(Path(".perfbench") / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in config["end_to_end"]
        }
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
