"""Cross-checking DEW against the reference simulator.

The paper states: "We have verified hit and miss rates of DEW by comparing
with Dinero IV and found that they are exactly the same."  This package makes
the same verification a first-class, reusable operation.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__, {".crosscheck": ("CrossCheckReport", "cross_check", "cross_check_space")}
)
