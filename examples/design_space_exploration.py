#!/usr/bin/env python3
"""Design-space exploration: pick an embedded L1 cache for a workload.

This example is the use case that motivates the paper: an embedded processor
runs one application (or a small class of them) forever, so the L1 cache can
be tuned to it.  The flow is:

1. build the application trace,
2. sweep a realistic embedded configuration space with DEW — one single pass
   per (block size, associativity) family instead of one pass per
   configuration,
3. attach an analytic energy model,
4. extract the (size, miss-rate) Pareto front and let the tuner pick the
   best configuration under area and performance constraints.

Run with:  python examples/design_space_exploration.py
"""

from repro import CacheTuner, DewSimulator, ResultsFrame, TuningConstraints, mediabench_trace
from repro.core.config import ConfigSpace
from repro.explore.energy import EnergyModel
from repro.explore.pareto import pareto_front_frame

SET_SIZES = tuple(2**i for i in range(10))      # 1 .. 512 sets
BLOCK_SIZES = (16, 32, 64)
ASSOCIATIVITIES = (2, 4, 8)


def main() -> None:
    trace = mediabench_trace("mpeg2_dec", 120_000, seed=3)
    print(f"workload: {trace.name}, {len(trace):,} requests")

    # Sweep the whole space: one DEW pass per (B, A) family.  Direct-mapped
    # configurations are produced as a by-product of each pass.
    families = [
        DewSimulator(block_size, associativity, SET_SIZES).run(trace)
        for block_size in BLOCK_SIZES
        for associativity in ASSOCIATIVITIES
    ]
    # The same configuration can appear in two families (direct-mapped caches
    # are shared); the merge checks that they agree and keeps one row each.
    results = ResultsFrame.merge(families, trace_name=trace.name)
    space_size = len(ConfigSpace(SET_SIZES, (1,) + ASSOCIATIVITIES, BLOCK_SIZES))
    print(f"{len(results)} distinct configurations (space of {space_size}) "
          f"from {len(families)} single-pass simulations\n")

    # Pareto front over (capacity, miss rate), smallest cache first.
    sizes = results.total_sizes()
    rates = results.miss_rate_column()
    front = sorted(pareto_front_frame(results), key=lambda row: sizes[row])
    print("capacity vs miss-rate Pareto front:")
    for row in front[:12]:
        print(f"  {results.config_at(row).label():>22}  {int(sizes[row]):>8,} B   "
              f"miss rate {rates[row]:.4f}")
    if len(front) > 12:
        print(f"  ... ({len(front) - 12} more points)")

    # Constraint-driven selection: at most 16 KB of data array, a miss rate
    # within 25% of the best achievable at that budget, minimise energy.
    budget = 16 << 10
    best_rate = float(rates[sizes <= budget].min())
    constraints = TuningConstraints(max_total_size=budget, max_miss_rate=best_rate * 1.25)
    tuner = CacheTuner(energy_model=EnergyModel(), objective="energy")
    outcome = tuner.tune_frame(results, constraints)
    print(f"\ntuner decision (<=16KB, miss rate <= {best_rate * 1.25:.4f}, minimise energy):")
    for key, value in outcome.as_dict().items():
        print(f"  {key:>24}: {value}")

    # Compare against the pure performance objective.
    fastest = CacheTuner(objective="misses").tune_frame(results, constraints)
    print(f"\nfewest-misses choice under the same constraints: "
          f"{fastest.best.config.label()} ({fastest.best.misses:,} misses)")


if __name__ == "__main__":
    main()
