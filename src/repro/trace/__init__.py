"""Memory-trace substrate: records, containers, file formats and statistics.

A *trace* is the sequence of memory addresses issued by an application run.
Every simulator in this package (DEW, the Dinero-style baseline and the LRU
single-pass simulators) consumes a :class:`~repro.trace.trace.Trace`.

The sub-modules are:

``record``
    :class:`MemoryAccess`, a single reference (address, type, size).
``trace``
    :class:`Trace`, a numpy-backed immutable sequence of accesses.
``din``
    Reader/writer for the Dinero IV ``.din`` text format the paper's
    baseline consumes.
``textio``
    Plain hexadecimal / CSV trace files.
``files``
    Format- and compression-aware file loading (the CLI/service entry
    point over ``din`` and ``textio``).
``stats``
    Working-set, reuse-distance and block-reuse statistics.
``filters``
    Splitting and filtering (instruction vs data, reads vs writes, windows).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".record": ("MemoryAccess",),
        ".trace": ("Trace", "TraceBuilder"),
        ".din": ("read_din", "write_din"),
        ".files": ("load_trace_file",),
        ".textio": ("read_text_trace", "write_text_trace"),
        ".stats": ("TraceStatistics", "compute_trace_statistics"),
        ".filters": (
            "filter_by_type",
            "split_instruction_data",
            "window",
            "unique_block_trace",
        ),
    },
)
