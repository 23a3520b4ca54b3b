"""Layered host-speed benchmark of the repro cache-simulation toolkit.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root; ``perfbench/steady.py``
repeats every workload over several seeds and reports how steady each
end-to-end metric is against its bound in ``BENCHMARK.json``.
"""
