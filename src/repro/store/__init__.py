"""Persistent, content-addressed storage for simulation results.

``open_store(path)`` opens (or creates) a directory of result artifacts
keyed by ``(trace fingerprint, engine key, canonicalized options)``; the
sweep orchestrator (:func:`repro.engine.sweep.run_sweep`) consults it to
skip every cell that has already been simulated.  See
:mod:`repro.store.resultstore` for the on-disk layout and durability rules,
and :mod:`repro.store.manage` for the operator surface (inventory,
verification, garbage collection and manifest-based export/import) behind
the ``repro-dew store`` CLI family.
"""

from repro._lazy import lazy_exports

#: Default manifest filename of ``store export`` when none is given.  It
#: lives here, not in :mod:`repro.store.manage`, so the CLI's parser reads
#: it without importing the store.
DEFAULT_MANIFEST_NAME = "MANIFEST.json"

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".manage": (
            "MANIFEST_SCHEMA_VERSION",
            "ArtifactRecord",
            "GcReport",
            "ImportReport",
            "VerifyReport",
            "export_store",
            "gc_store",
            "import_store",
            "scan_store",
            "verify_store",
        ),
        ".resultstore": (
            "STORE_SCHEMA_VERSION",
            "ResultStore",
            "StoreKey",
            "canonical_options_json",
            "open_store",
        ),
    },
)
__all__.append("DEFAULT_MANIFEST_NAME")
