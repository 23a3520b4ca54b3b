"""Single-pass LRU simulation baseline.

The DEW paper positions itself against the LRU-only single-pass simulator of
Janapsatya et al. (ASP-DAC 2006).  :mod:`repro.lru.janapsatya` reimplements
it, so the paper's limitation statement ("DEW can simulate LRU caches, but
will typically be slower than Janapsatya's method") can be measured: a
binomial-tree, single-pass, multi-configuration LRU simulator that produces
exact hit/miss counts for every (set size, associativity) pair at a fixed
block size.  Its walk is compiled (``repro/kernels/lru.c``) wherever a C
compiler runs, with the Python walk as fallback and oracle.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__, {".janapsatya": ("JanapsatyaSimulator",)}
)
