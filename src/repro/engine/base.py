"""The :class:`Engine` protocol and the string-keyed engine registry.

Every simulator in this package — DEW, the Dinero-style single-configuration
reference, the LRU family and the mechanism engines — is an :class:`Engine`
subclass registered under a key.  Build one with :func:`get_engine` (a
registry key and keyword options) or through the class itself, then:

* :meth:`Engine.run` a whole trace through it: the one whole-trace driver,
  which the sweep executor (:mod:`repro.engine.sweep`) runs every job
  through.  It checks the trace once (memoized on the trace), feeds each
  chunk of pre-shifted block addresses to :meth:`Engine.run_checked` (with
  the chunk's first-touch marks to an engine that
  :attr:`~Engine.wants_first_touches`: only ``dew``), hands
  over the trace's distinct-block count (:meth:`Engine.set_compulsory`) and
  returns :meth:`Engine.finalize`'s
  :class:`~repro.core.results.ResultsFrame`;
* or feed chunks by hand to :meth:`Engine.run_blocks`, the checked entry
  point, and :meth:`Engine.finalize` when done.

Each engine implements :meth:`Engine.run_checked`; the checks and the
driver are written once, here.

The registry is a table, :data:`ENGINES`, like
:data:`repro.kernels.KERNELS`: each key names the module that defines its
engine and the class.  :func:`available_engines` lists the table without
importing anything, and :func:`get_engine_class` imports an engine's module
on its first lookup.  :mod:`repro.engine.sweep` looks every engine up when
it is imported, so no sweep imports a module mid-run.
"""

from __future__ import annotations

import abc
import importlib
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Type, Union

import numpy as np

from repro import kernels
from repro.core.results import ResultsFrame
from repro.errors import EngineError, SimulationError, TraceError
from repro.trace.trace import DEFAULT_CHUNK_SIZE, Trace, as_trace


class Engine(abc.ABC):
    """Uniform chunked-pipeline interface over every simulator.

    Subclasses are the simulators themselves: they turn block-address chunks
    into simulator state updates and report accumulated outcomes as a
    :class:`~repro.core.results.ResultsFrame`.  Engines are cheap,
    single-use objects — build one per run via :func:`get_engine`.
    """

    #: Registry key: the engine's key in :data:`ENGINES`.
    family: str = "engine"

    #: When true, :meth:`run` feeds per-access type codes to
    #: :meth:`run_checked` alongside the block addresses.
    wants_access_types: bool = False

    #: When true, :meth:`run` also feeds :meth:`run_checked` the trace's
    #: first-touch marks at the engine's block size
    #: (:meth:`~repro.trace.trace.Trace.first_touches`), as
    #: ``first_touches``.  Chunks fed by hand carry none.
    wants_first_touches: bool = False

    #: When true, the engine takes a ``recycled`` construction flag: it then
    #: reuses storage a finished engine of its family and shape released
    #: (:data:`repro.core.tree.STORAGE_POOL`), and :meth:`release` hands its
    #: own back.  The sweep executor builds engines so, and the harness its
    #: timed DEW cells.
    recycles_storage: bool = False

    #: Bumped when the engine's rows change for the same options, so that
    #: the result store never serves rows an older build stored (see
    #: :meth:`repro.engine.sweep.SweepJob.store_key`).
    result_version: int = 1

    def __init__(self) -> None:
        #: Every row's compulsory misses, set by :meth:`set_compulsory`.
        self.compulsory_misses = 0

    # -- required surface ------------------------------------------------------

    @property
    @abc.abstractmethod
    def offset_bits(self) -> int:
        """Block-offset width used to pre-shift byte addresses."""

    @property
    @abc.abstractmethod
    def accesses(self) -> int:
        """Accesses simulated since construction or the last :meth:`reset`."""

    def run_blocks(
        self,
        blocks: Union[Sequence[int], np.ndarray],
        access_types: Optional[Union[Sequence[int], np.ndarray]] = None,
    ) -> None:
        """Simulate one chunk of pre-shifted block addresses fed by hand.

        The checked entry point: raises
        :class:`~repro.errors.SimulationError`, changing nothing, for a
        block outside ``[0, 2**63 - 1)``, or for access types of another
        length or with an unknown code (:func:`repro.kernels.block_chunk`,
        :func:`repro.kernels.type_chunk`); then :meth:`run_checked`.
        """
        chunk = kernels.block_chunk(blocks)
        self.run_checked(chunk, kernels.type_chunk(access_types, chunk.size))

    @abc.abstractmethod
    def run_checked(
        self, blocks: np.ndarray, access_types: Optional[np.ndarray] = None
    ) -> None:
        """Simulate one chunk its caller already checked.

        ``blocks`` is a C-contiguous int64 array of blocks in ``[0, 2**63 -
        1)``, and ``access_types`` ``None`` (every access a read) or a
        C-contiguous int8 array of as many valid type codes.  :meth:`run`
        checks a whole trace once and feeds every chunk through here, and
        :meth:`run_blocks` checks each chunk it is handed.  An engine that
        sets :attr:`wants_first_touches` also takes a ``first_touches``
        argument: ``None`` (a chunk fed by hand), or, from :meth:`run`, the
        chunk's slice of the trace's first-touch marks, a C-contiguous
        ``bool`` array.
        """

    @abc.abstractmethod
    def finalize(self, trace_name: str = "trace") -> ResultsFrame:
        """Per-configuration results accumulated so far, as one frame.

        The frame carries the engine's own work counters (``counters``)
        when it keeps any, and the walk that ran (``walk``).
        """

    @abc.abstractmethod
    def reset(self) -> None:
        """Clear all simulation state so the engine can be reused."""

    def set_compulsory(self, distinct_blocks: int) -> None:
        """Report ``distinct_blocks`` as every row's compulsory misses.

        A first touch misses in every cache and no other miss is
        compulsory, so a row's compulsory misses are the trace's distinct
        blocks at the engine's block size.  :meth:`run` counts them once
        per (trace, block size), memoized on the trace, and calls this
        before :meth:`finalize`.
        """
        self.compulsory_misses = int(distinct_blocks)

    def release(self) -> None:
        """Hand recycled storage back once the engine is finalized (see
        :attr:`recycles_storage`); a recycling engine then simulates no more
        until :meth:`reset`.  A no-op for engines that recycle nothing."""

    # -- shared driver ---------------------------------------------------------

    def run(
        self,
        trace: Union[Trace, Iterable[int]],
        trace_name: Optional[str] = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> ResultsFrame:
        """Drive a whole trace (or any iterable of byte addresses, read once
        into a :class:`Trace`) through the engine, then hand it the trace's
        distinct-block count and finalize.

        The trace is checked once (:meth:`Trace.checked_range`, memoized on
        the trace), so every chunk goes straight to :meth:`run_checked`,
        with its slice of the trace's first-touch marks when the engine
        :attr:`wants_first_touches` (the DEW kernel then walks a marked
        access as a miss at every level, with no decision to make; the
        Python walk, the oracle, ignores them), and the frame's
        ``elapsed_seconds`` is the time spent in those calls.
        The engine must not have simulated anything yet: its rows'
        compulsory misses are this trace's distinct blocks, which would not
        count what it simulated before.  Raises
        :class:`~repro.errors.SimulationError` otherwise (:meth:`reset`
        first to run another trace), :class:`~repro.errors.TraceError` for a
        malformed trace or a ``chunk_size`` below 1.
        """
        if self.accesses:
            raise SimulationError(
                f"this {self.family} engine already simulated {self.accesses} accesses; "
                "reset() it before running a trace"
            )
        chunk_size = check_chunk_size(chunk_size)
        trace = as_trace(trace)
        low, high = trace.checked_range()
        shift = self.offset_bits
        kernels.check_block_range(low >> shift, high >> shift)
        addresses = trace.addresses
        types = firsts = None
        if self.wants_access_types:
            types = np.ascontiguousarray(trace.access_types, dtype=np.int8)
        if self.wants_first_touches:
            firsts = trace.first_touches(1 << shift)
        elapsed = 0.0
        for start in range(0, addresses.size, chunk_size):
            stop = start + chunk_size
            blocks = addresses[start:stop] >> shift
            chunk_types = None if types is None else types[start:stop]
            begin = time.perf_counter()
            if firsts is None:
                self.run_checked(blocks, chunk_types)
            else:
                self.run_checked(blocks, chunk_types, firsts[start:stop])
            elapsed += time.perf_counter() - begin
        self.set_compulsory(trace.unique_blocks(1 << shift))
        results = self.finalize(trace_name=trace_name or trace.name)
        results.elapsed_seconds = elapsed
        return results

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(family={self.family!r})"


def check_chunk_size(chunk_size: int) -> int:
    """``chunk_size`` as an ``int``; raises :class:`~repro.errors.TraceError`
    below 1."""
    chunk_size = int(chunk_size)
    if chunk_size < 1:
        raise TraceError(f"chunk size must be positive, got {chunk_size}")
    return chunk_size


# -- registry ------------------------------------------------------------------

#: The package's engines, by registry key: the module that defines each and
#: its class, whose :attr:`Engine.family` is the key.
ENGINES: Dict[str, Tuple[str, str]] = {
    "dew": ("repro.core.dew", "DewSimulator"),
    "single": ("repro.cache.simulator", "SingleConfigSimulator"),
    "janapsatya": ("repro.lru.janapsatya", "JanapsatyaSimulator"),
    "victim-cache": ("repro.mechanisms.engines", "VictimCacheEngine"),
    "miss-cache": ("repro.mechanisms.engines", "MissCacheEngine"),
    "stream-buffer": ("repro.mechanisms.engines", "StreamBufferEngine"),
}

#: Engine classes looked up so far.
_ENGINE_CLASSES: Dict[str, Type[Engine]] = {}


def get_engine(name: str, **options) -> Engine:
    """Construct a registered engine by key, forwarding keyword options."""
    return get_engine_class(name)(**options)


def get_engine_class(name: str) -> Type[Engine]:
    """Look up a registered engine class by key without constructing it.

    The first lookup of a key in :data:`ENGINES` imports its module.  The
    class-level capability flags (:attr:`Engine.wants_access_types`,
    :attr:`Engine.wants_first_touches`) are
    meaningful on the class itself, so callers can interrogate a whole job
    list without instantiating (and paying the state allocation of) any
    engine.
    """
    key = str(name).strip().lower()
    cls = _ENGINE_CLASSES.get(key)
    if cls is None:
        try:
            module, class_name = ENGINES[key]
        except KeyError:
            available = ", ".join(available_engines()) or "<none>"
            raise EngineError(f"unknown engine {name!r}; available: {available}") from None
        cls = _ENGINE_CLASSES[key] = getattr(importlib.import_module(module), class_name)
    return cls


def available_engines() -> List[str]:
    """Sorted list of registered engine keys."""
    return sorted(ENGINES)
