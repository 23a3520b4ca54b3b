"""Single-pass LRU simulation baseline.

The DEW paper positions itself against the LRU-only single-pass simulator of
Janapsatya et al. (ASP-DAC 2006).  :mod:`repro.lru.janapsatya` reimplements
it, so the paper's limitation statement ("DEW can simulate LRU caches, but
will typically be slower than Janapsatya's method") can be measured: a
binomial-tree, single-pass, multi-configuration LRU simulator that produces
exact hit/miss counts for every (set size, associativity) pair at a fixed
block size.  It consumes run-length collapsed chunks, which is how it skips
consecutive same-block accesses (the rule of Tojo et al.'s CRCB, ASP-DAC
2009).
"""

from repro.lru.janapsatya import JanapsatyaSimulator

__all__ = [
    "JanapsatyaSimulator",
]
