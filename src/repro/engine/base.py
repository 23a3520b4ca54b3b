"""The :class:`Engine` protocol and the string-keyed engine registry.

Every simulator in this package — DEW, the Dinero-style single-configuration
reference, the LRU family and the mechanism engines — is an :class:`Engine`
subclass registered under a key, and is driven through the same three-step
API:

1. construct via :func:`get_engine` with a registry key and keyword options
   (or through the class itself);
2. feed pre-shifted block-address chunks to :meth:`Engine.run_blocks`
   (produced by :meth:`repro.trace.trace.Trace.iter_block_chunks`);
3. hand over the trace's distinct-block count with
   :meth:`Engine.set_compulsory`, and collect a
   :class:`~repro.core.results.ResultsFrame` from :meth:`Engine.finalize`.

:meth:`Engine.run` bundles the three steps for whole traces and is the one
whole-trace driver; the sweep executor (:mod:`repro.engine.sweep`) uses the
same API to fan a grid of engines out over worker processes.

The registry is a table, :data:`ENGINES`, like
:data:`repro.kernels.KERNELS`: each key names the module that defines its
engine and the class.  :func:`available_engines` lists the table without
importing anything, and :func:`get_engine_class` imports an engine's module
on its first lookup.  :mod:`repro.engine.sweep` looks every engine up when
it is imported, so no sweep imports a module mid-run.  An engine defined
outside the package joins with a :func:`register_engine`-decorated
:class:`Engine` subclass.
"""

from __future__ import annotations

import abc
import importlib
import time
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Type, Union

import numpy as np

from repro.core.results import ResultsFrame
from repro.errors import EngineError, SimulationError
from repro.trace.trace import DEFAULT_CHUNK_SIZE, Trace


class Engine(abc.ABC):
    """Uniform chunked-pipeline interface over every simulator.

    Subclasses are the simulators themselves: they turn block-address chunks
    into simulator state updates and report accumulated outcomes as a
    :class:`~repro.core.results.ResultsFrame`.  Engines are cheap,
    single-use objects — build one per run via :func:`get_engine`.
    """

    #: Registry key: the engine's key in :data:`ENGINES`, or the one
    #: :func:`register_engine` gave it.
    family: str = "engine"

    #: When true, :meth:`run` feeds per-access type codes to
    #: :meth:`run_blocks` alongside the block addresses.
    wants_access_types: bool = False

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
        self._elapsed = 0.0
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

    @abc.abstractmethod
    def run_blocks(
        self,
        blocks: Union[Sequence[int], np.ndarray],
        access_types: Optional[Union[Sequence[int], np.ndarray]] = None,
    ) -> None:
        """Simulate one chunk of pre-shifted block addresses."""

    def run_checked(
        self, blocks: np.ndarray, access_types: Optional[np.ndarray] = None
    ) -> None:
        """:meth:`run_blocks` over a chunk its caller already checked.

        ``blocks`` is a C-contiguous int64 array of blocks in ``[0, 2**63 -
        1)``, and ``access_types`` ``None`` or a C-contiguous int8 array of
        as many valid type codes (see :func:`repro.kernels.block_chunk` and
        :func:`repro.kernels.type_chunk`).  The sweep executor checks a
        pass's trace once and feeds every engine through here.  The
        package's engines skip their own checks; by default this is
        :meth:`run_blocks`.
        """
        if self.wants_access_types:
            self.run_blocks(blocks, access_types)
        else:
            self.run_blocks(blocks)

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
        blocks at the engine's block size.  :meth:`run` and the sweep
        executor count them once per (trace, block size) and call
        this before :meth:`finalize`.
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
        """Drive a whole trace (or bare iterable of byte addresses) through
        the engine, then hand it the trace's distinct-block count.

        The engine must not have simulated anything yet: its rows'
        compulsory misses are this trace's distinct blocks, which would not
        count what it simulated before.  Raises
        :class:`~repro.errors.SimulationError` otherwise; :meth:`reset`
        first to run another trace.
        """
        if self.accesses:
            raise SimulationError(
                f"this {self.family} engine already simulated {self.accesses} accesses; "
                "reset() it before running a trace"
            )
        start = time.perf_counter()
        if isinstance(trace, Trace):
            name = trace_name or trace.name
            if self.wants_access_types:
                for blocks, types in trace.iter_block_chunks(
                    self.offset_bits, chunk_size, with_types=True
                ):
                    self.run_blocks(blocks, types)
            else:
                for blocks in trace.iter_block_chunks(self.offset_bits, chunk_size):
                    self.run_blocks(blocks)
            distinct = trace.unique_blocks(1 << self.offset_bits)
        else:
            name = trace_name or "trace"
            offset_bits = self.offset_bits
            seen: Set[int] = set()
            buffer: List[int] = []
            for address in trace:
                address = int(address)
                if address < 0:
                    raise SimulationError(f"negative address: {address}")
                buffer.append(address >> offset_bits)
                if len(buffer) >= chunk_size:
                    self.run_blocks(buffer)
                    seen.update(buffer)
                    buffer = []
            if buffer:
                self.run_blocks(buffer)
                seen.update(buffer)
            distinct = len(seen)
        self.set_compulsory(distinct)
        self._elapsed += time.perf_counter() - start
        results = self.finalize(trace_name=name)
        results.elapsed_seconds = self._elapsed
        return results

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(family={self.family!r})"


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

#: Engine classes looked up so far, and those :func:`register_engine` added.
_ENGINE_CLASSES: Dict[str, Type[Engine]] = {}


def register_engine(name: str):
    """Class decorator registering an :class:`Engine` under ``name``.

    A key that :data:`ENGINES` or an earlier registration holds is refused.
    """

    def decorator(cls: Type[Engine]) -> Type[Engine]:
        key = name.strip().lower()
        if not key:
            raise EngineError("engine name must be non-empty")
        if key in ENGINES or key in _ENGINE_CLASSES:
            raise EngineError(f"engine {key!r} is already registered")
        if not (isinstance(cls, type) and issubclass(cls, Engine)):
            raise EngineError(f"{cls!r} is not an Engine subclass")
        cls.family = key
        _ENGINE_CLASSES[key] = cls
        return cls

    return decorator


def get_engine(name: str, **options) -> Engine:
    """Construct a registered engine by key, forwarding keyword options."""
    return get_engine_class(name)(**options)


def get_engine_class(name: str) -> Type[Engine]:
    """Look up a registered engine class by key without constructing it.

    The first lookup of a key in :data:`ENGINES` imports its module.  The
    class-level capability flag :attr:`Engine.wants_access_types` is
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
    return sorted({*ENGINES, *_ENGINE_CLASSES})
