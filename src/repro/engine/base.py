"""The :class:`Engine` protocol and the string-keyed engine registry.

Every simulator in this package — DEW, the Dinero-style single-configuration
reference, the LRU family and the mechanism engines — is an :class:`Engine`
subclass registered under a key, and is driven through the same three-step
API:

1. construct via :func:`get_engine` with a registry key and keyword options
   (or through the class itself);
2. feed pre-shifted block-address chunks to :meth:`Engine.run_blocks`
   (produced by :meth:`repro.trace.trace.Trace.iter_block_chunks`);
3. collect a :class:`~repro.core.results.ResultsFrame` from
   :meth:`Engine.finalize`.

:meth:`Engine.run` bundles the three steps for whole traces and is the one
whole-trace driver; the sweep executor (:mod:`repro.engine.sweep`) uses the
same API to fan a grid of engines out over worker processes.  Adding a
policy or simulator to the system is one :func:`register_engine`-decorated
:class:`Engine` subclass.
"""

from __future__ import annotations

import abc
import time
from typing import Dict, Iterable, List, Optional, Sequence, Type, Union

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

    #: Registry key, filled in by :func:`register_engine`.
    family: str = "engine"

    #: When true, :meth:`run` feeds per-access type codes to
    #: :meth:`run_blocks` alongside the block addresses.
    wants_access_types: bool = False

    def __init__(self) -> None:
        self._elapsed = 0.0

    # -- required surface ------------------------------------------------------

    @property
    @abc.abstractmethod
    def offset_bits(self) -> int:
        """Block-offset width used to pre-shift byte addresses."""

    @abc.abstractmethod
    def run_blocks(
        self,
        blocks: Union[Sequence[int], np.ndarray],
        access_types: Optional[Union[Sequence[int], np.ndarray]] = None,
    ) -> None:
        """Simulate one chunk of pre-shifted block addresses."""

    @abc.abstractmethod
    def finalize(self, trace_name: str = "trace") -> ResultsFrame:
        """Per-configuration results accumulated so far, as one frame.

        The frame carries the engine's own work counters (``counters``)
        when it keeps any, and the walk that ran (``walk``).
        """

    @abc.abstractmethod
    def reset(self) -> None:
        """Clear all simulation state so the engine can be reused."""

    # -- shared driver ---------------------------------------------------------

    def run(
        self,
        trace: Union[Trace, Iterable[int]],
        trace_name: Optional[str] = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> ResultsFrame:
        """Drive a whole trace (or bare iterable of byte addresses) through the engine."""
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
        else:
            name = trace_name or "trace"
            offset_bits = self.offset_bits
            buffer: List[int] = []
            for address in trace:
                address = int(address)
                if address < 0:
                    raise SimulationError(f"negative address: {address}")
                buffer.append(address >> offset_bits)
                if len(buffer) >= chunk_size:
                    self.run_blocks(buffer)
                    buffer = []
            if buffer:
                self.run_blocks(buffer)
        self._elapsed += time.perf_counter() - start
        results = self.finalize(trace_name=name)
        results.elapsed_seconds = self._elapsed
        return results

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(family={self.family!r})"


# -- registry ------------------------------------------------------------------

_ENGINE_REGISTRY: Dict[str, Type[Engine]] = {}


def register_engine(name: str):
    """Class decorator registering an :class:`Engine` under ``name``."""

    def decorator(cls: Type[Engine]) -> Type[Engine]:
        key = name.strip().lower()
        if not key:
            raise EngineError("engine name must be non-empty")
        if key in _ENGINE_REGISTRY:
            raise EngineError(f"engine {key!r} is already registered")
        if not (isinstance(cls, type) and issubclass(cls, Engine)):
            raise EngineError(f"{cls!r} is not an Engine subclass")
        cls.family = key
        _ENGINE_REGISTRY[key] = cls
        return cls

    return decorator


def get_engine(name: str, **options) -> Engine:
    """Construct a registered engine by key, forwarding keyword options."""
    return get_engine_class(name)(**options)


def get_engine_class(name: str) -> Type[Engine]:
    """Look up a registered engine class by key without constructing it.

    The class-level capability flag :attr:`Engine.wants_access_types` is
    meaningful on the class itself, so callers can interrogate a whole job
    list without instantiating (and paying the state allocation of) any
    engine.
    """
    key = str(name).strip().lower()
    try:
        return _ENGINE_REGISTRY[key]
    except KeyError:
        available = ", ".join(available_engines()) or "<none>"
        raise EngineError(f"unknown engine {name!r}; available: {available}") from None


def available_engines() -> List[str]:
    """Sorted list of registered engine keys."""
    return sorted(_ENGINE_REGISTRY)
