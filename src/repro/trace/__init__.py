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

from repro.trace.record import MemoryAccess
from repro.trace.trace import Trace, TraceBuilder
from repro.trace.din import read_din, write_din
from repro.trace.files import load_trace_file
from repro.trace.textio import read_text_trace, write_text_trace
from repro.trace.stats import TraceStatistics, compute_trace_statistics
from repro.trace.filters import (
    filter_by_type,
    split_instruction_data,
    window,
    unique_block_trace,
)

__all__ = [
    "MemoryAccess",
    "Trace",
    "TraceBuilder",
    "read_din",
    "write_din",
    "load_trace_file",
    "read_text_trace",
    "write_text_trace",
    "TraceStatistics",
    "compute_trace_statistics",
    "filter_by_type",
    "split_instruction_data",
    "window",
    "unique_block_trace",
]
