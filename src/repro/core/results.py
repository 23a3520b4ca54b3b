"""The one results container of a simulation run: :class:`ResultsFrame`.

A frame holds parallel numpy arrays keyed by the configuration tuple
``(num_sets, associativity, block_size, policy)`` plus the mechanism
identity, with accesses/misses/compulsory columns (hits are derived), in
canonical sorted order.  Every engine's ``finalize`` returns one; the sweep
executor merges them, the persistent result store serialises them, and the
exploration layer runs on their columns.  Iterating a frame yields one
:class:`ConfigResult` per row, and ``frame[config]`` looks a row up.

Besides its rows a frame carries two observational fields that stay out of
the rows and out of equality: ``counters`` (the producing engine's own work
counters, or ``None``) and ``walk`` (which walk produced it: compiled or
Python).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import (
    Any,
    BinaryIO,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.config import CacheConfig
from repro.errors import SimulationError, VerificationError
from repro.types import ReplacementPolicy

#: Version of the columnar payload written by :meth:`ResultsFrame.to_npz`.
#: Bump whenever the column set, dtypes or metadata layout changes.
#: Version 2 added the mechanism key columns (``mechanism_codes``,
#: ``mechanism_entries``) and counter columns (``mechanism_hits``,
#: ``mechanism_swaps``, ``mechanism_allocations``); version-1 payloads are
#: still readable (the new columns zero-fill).
FRAME_SCHEMA_VERSION = 2

#: Schema versions :meth:`ResultsFrame.read_npz` accepts.
_READABLE_SCHEMAS = (1, 2)

#: Fixed policy-code table.  Codes index this tuple; it is alphabetical by
#: policy value, so code order equals the sort order used by
#: :class:`~repro.core.config.CacheConfig` comparisons.
POLICY_TABLE: Tuple[str, ...] = tuple(sorted(p.value for p in ReplacementPolicy))
_POLICY_CODES: Dict[str, int] = {value: code for code, value in enumerate(POLICY_TABLE)}

#: Fixed mechanism-code table: ``none`` (a bare cache, code 0 so zero-filled
#: columns mean "no mechanism") followed by the miss-path mechanisms in
#: alphabetical order.  Codes index this tuple; frames sort mechanism rows
#: by code, so ``none`` rows come first for any one configuration.
MECHANISM_TABLE: Tuple[str, ...] = ("none", "miss-cache", "stream-buffer", "victim-cache")
_MECHANISM_CODES: Dict[str, int] = {
    value: code for code, value in enumerate(MECHANISM_TABLE)
}


def mechanism_code(mechanism: str) -> int:
    """The frame mechanism code of a mechanism name (index into MECHANISM_TABLE)."""
    try:
        return _MECHANISM_CODES[str(mechanism)]
    except KeyError:
        raise SimulationError(
            f"unknown mechanism {mechanism!r}; expected one of {MECHANISM_TABLE}"
        ) from None


@dataclass(frozen=True)
class ConfigResult:
    """Exact hit/miss outcome for one cache configuration.

    A result is keyed by ``(config, mechanism, mechanism_entries)``: a bare
    cache keeps the defaults (``mechanism="none"``, zero counters) and a
    mechanism-augmented run — victim cache, miss cache, stream buffers —
    reports the same DL1 geometry with its mechanism identity and counters
    filled in.  ``misses`` is the count of trips to the next memory level
    *after* the mechanism (so mechanism rows compare directly against a
    bigger L1's miss column).
    """

    config: CacheConfig
    accesses: int
    misses: int
    compulsory_misses: int = 0
    mechanism: str = "none"
    mechanism_entries: int = 0
    mechanism_hits: int = 0
    mechanism_swaps: int = 0
    mechanism_allocations: int = 0

    @property
    def hits(self) -> int:
        """Number of hits (accesses minus misses)."""
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        """Misses per access; 0 for an empty trace."""
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def hit_rate(self) -> float:
        """Hits per access; 0 for an empty trace."""
        return 1.0 - self.miss_rate if self.accesses else 0.0

    def as_dict(self) -> Dict[str, object]:
        """Plain-dictionary view for reporting.

        The mechanism keys appear only on mechanism rows, so bare-cache
        output (and its JSON serialisation) is unchanged by the mechanism
        columns' existence.
        """
        row: Dict[str, object] = {
            "num_sets": self.config.num_sets,
            "associativity": self.config.associativity,
            "block_size": self.config.block_size,
            "policy": self.config.policy.value,
            "total_size": self.config.total_size,
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "miss_rate": self.miss_rate,
            "compulsory_misses": self.compulsory_misses,
        }
        if self.mechanism != "none":
            row["mechanism"] = self.mechanism
            row["mechanism_entries"] = self.mechanism_entries
            row["mechanism_hits"] = self.mechanism_hits
            row["mechanism_swaps"] = self.mechanism_swaps
            row["mechanism_allocations"] = self.mechanism_allocations
        return row


def policy_code(policy: Union[str, ReplacementPolicy]) -> int:
    """The frame policy code of a replacement policy (index into POLICY_TABLE)."""
    if isinstance(policy, ReplacementPolicy):
        value = policy.value
    else:
        value = ReplacementPolicy.parse(policy).value
    return _POLICY_CODES[value]


def _policy_code(policy: ReplacementPolicy) -> int:
    return _POLICY_CODES[policy.value]


#: Every array column of a :class:`ResultsFrame`, in constructor order.  The
#: first six are the row key (configuration tuple + mechanism identity).
_FRAME_COLUMNS: Tuple[str, ...] = (
    "num_sets",
    "associativities",
    "block_sizes",
    "policy_codes",
    "accesses",
    "misses",
    "compulsory",
    "mechanism_codes",
    "mechanism_entries",
    "mechanism_hits",
    "mechanism_swaps",
    "mechanism_allocations",
)


class ResultsFrame:
    """Columnar per-configuration results: parallel numpy arrays.

    Rows are keyed by the configuration tuple ``(num_sets, associativity,
    block_size, policy)`` and always held in canonical order — sorted by that
    tuple, policies alphabetically by value — so two frames covering the same
    cells compare array-wise and iterate identically no matter how they were
    produced.  Duplicate keys are rejected at construction; use
    :meth:`merge` to combine frames that may share cells.

    Columns
    -------
    ``num_sets``, ``associativities``, ``block_sizes`` (``int64``),
    ``policy_codes`` (``int8``, indices into :data:`POLICY_TABLE`),
    ``accesses``, ``misses``, ``compulsory`` (``int64``),
    ``mechanism_codes`` (``int8``, indices into :data:`MECHANISM_TABLE`) and
    ``mechanism_entries``/``mechanism_hits``/``mechanism_swaps``/
    ``mechanism_allocations`` (``int64``).  Hits are derived (:attr:`hits`);
    the direct-mapped by-products of a DEW run are ordinary rows with
    associativity 1; bare-cache rows carry mechanism code 0 (``none``) with
    zero entries and counters.  The row key is ``(num_sets, associativity,
    block_size, policy, mechanism, mechanism_entries)``, so one DL1 geometry
    can coexist with every mechanism/entry-count variant of itself.
    ``elapsed_seconds`` plus the simulator/trace names ride along as scalar
    metadata, and take part in equality.  ``counters`` (the producing
    engine's work counters, or ``None``) and ``walk`` (``kernel`` or
    ``python (<reason>)`` for a fresh engine frame, else ``None``) are
    observational: they take no part in equality, and only the store
    persists counters.
    """

    __slots__ = _FRAME_COLUMNS + (
        "elapsed_seconds",
        "simulator_name",
        "trace_name",
        "counters",
        "walk",
        "_key_index",
    )

    def __init__(
        self,
        num_sets: Union[Sequence[int], np.ndarray],
        associativities: Union[Sequence[int], np.ndarray],
        block_sizes: Union[Sequence[int], np.ndarray],
        policy_codes: Union[Sequence[int], np.ndarray],
        accesses: Union[Sequence[int], np.ndarray],
        misses: Union[Sequence[int], np.ndarray],
        compulsory: Union[Sequence[int], np.ndarray],
        elapsed_seconds: float = 0.0,
        simulator_name: str = "dew",
        trace_name: str = "trace",
        mechanism_codes: Optional[Union[Sequence[int], np.ndarray]] = None,
        mechanism_entries: Optional[Union[Sequence[int], np.ndarray]] = None,
        mechanism_hits: Optional[Union[Sequence[int], np.ndarray]] = None,
        mechanism_swaps: Optional[Union[Sequence[int], np.ndarray]] = None,
        mechanism_allocations: Optional[Union[Sequence[int], np.ndarray]] = None,
        counters: Any = None,
        walk: Optional[str] = None,
    ) -> None:
        columns = {
            "num_sets": np.asarray(num_sets, dtype=np.int64),
            "associativities": np.asarray(associativities, dtype=np.int64),
            "block_sizes": np.asarray(block_sizes, dtype=np.int64),
            "policy_codes": np.asarray(policy_codes, dtype=np.int8),
            "accesses": np.asarray(accesses, dtype=np.int64),
            "misses": np.asarray(misses, dtype=np.int64),
            "compulsory": np.asarray(compulsory, dtype=np.int64),
        }
        length = columns["num_sets"].size
        for name, values, dtype in (
            ("mechanism_codes", mechanism_codes, np.int8),
            ("mechanism_entries", mechanism_entries, np.int64),
            ("mechanism_hits", mechanism_hits, np.int64),
            ("mechanism_swaps", mechanism_swaps, np.int64),
            ("mechanism_allocations", mechanism_allocations, np.int64),
        ):
            columns[name] = (
                np.zeros(length, dtype=dtype)
                if values is None
                else np.asarray(values, dtype=dtype)
            )
        for name, column in columns.items():
            if column.ndim != 1:
                raise SimulationError(f"frame column {name} must be one-dimensional")
            if column.size != length:
                raise SimulationError(
                    f"frame column {name} has {column.size} rows, expected {length}"
                )
        codes = columns["policy_codes"]
        if length and (codes.min() < 0 or codes.max() >= len(POLICY_TABLE)):
            raise SimulationError("frame contains an unknown policy code")
        mech_codes = columns["mechanism_codes"]
        if length and (mech_codes.min() < 0 or mech_codes.max() >= len(MECHANISM_TABLE)):
            raise SimulationError("frame contains an unknown mechanism code")
        order = self._canonical_order(columns)
        for name, column in columns.items():
            canonical = np.ascontiguousarray(column[order])
            canonical.setflags(write=False)
            setattr(self, name, canonical)
        self._reject_duplicate_keys()
        self.elapsed_seconds = float(elapsed_seconds)
        self.simulator_name = simulator_name
        self.trace_name = trace_name
        self.counters = counters
        self.walk = walk
        self._key_index: Optional[Dict[Tuple[int, int, int, int], int]] = None

    @staticmethod
    def _canonical_order(columns: Mapping[str, np.ndarray]) -> np.ndarray:
        # lexsort: last key is primary.  Policy codes index an alphabetical
        # table, so sorting by code matches CacheConfig's dataclass order
        # (num_sets, associativity, block_size, policy value).  Mechanism
        # identity sorts by CODE, not name — code 0 is ``none``, so bare-cache
        # rows always precede mechanism variants of the same configuration.
        return np.lexsort(
            (
                columns["mechanism_entries"],
                columns["mechanism_codes"],
                columns["policy_codes"],
                columns["block_sizes"],
                columns["associativities"],
                columns["num_sets"],
            )
        )

    def _key_matrix(self) -> np.ndarray:
        return np.stack(
            [
                self.num_sets,
                self.associativities,
                self.block_sizes,
                self.policy_codes.astype(np.int64),
                self.mechanism_codes.astype(np.int64),
                self.mechanism_entries,
            ],
            axis=1,
        )

    def _reject_duplicate_keys(self) -> None:
        if len(self) < 2:
            return
        keys = self._key_matrix()
        same = np.all(keys[1:] == keys[:-1], axis=1)
        if same.any():
            row = int(np.flatnonzero(same)[0]) + 1
            label = self.config_at(row).label()
            if int(self.mechanism_codes[row]):
                label += (
                    f"+{self.mechanism_at(row)}x{int(self.mechanism_entries[row])}"
                )
            raise SimulationError(f"duplicate result for configuration {label}")

    # -- container protocol ---------------------------------------------------

    def __len__(self) -> int:
        return int(self.num_sets.size)

    def __iter__(self) -> Iterator[ConfigResult]:
        for row in range(len(self)):
            yield self.result_at(row)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResultsFrame):
            return NotImplemented
        return (
            all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in _FRAME_COLUMNS
            )
            and self.elapsed_seconds == other.elapsed_seconds
            and self.simulator_name == other.simulator_name
            and self.trace_name == other.trace_name
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ResultsFrame({self.simulator_name!r}, {len(self)} rows, "
            f"trace={self.trace_name!r}, {self.elapsed_seconds:.3f}s)"
        )

    # -- row access -----------------------------------------------------------

    def config_at(self, row: int) -> CacheConfig:
        """The configuration keying the given row."""
        return CacheConfig(
            int(self.num_sets[row]),
            int(self.associativities[row]),
            int(self.block_sizes[row]),
            ReplacementPolicy(POLICY_TABLE[int(self.policy_codes[row])]),
        )

    def mechanism_at(self, row: int) -> str:
        """The mechanism name keying the given row (``"none"`` for bare rows)."""
        return MECHANISM_TABLE[int(self.mechanism_codes[row])]

    def result_at(self, row: int) -> ConfigResult:
        """The given row as an object-level :class:`ConfigResult`."""
        return ConfigResult(
            config=self.config_at(row),
            accesses=int(self.accesses[row]),
            misses=int(self.misses[row]),
            compulsory_misses=int(self.compulsory[row]),
            mechanism=self.mechanism_at(row),
            mechanism_entries=int(self.mechanism_entries[row]),
            mechanism_hits=int(self.mechanism_hits[row]),
            mechanism_swaps=int(self.mechanism_swaps[row]),
            mechanism_allocations=int(self.mechanism_allocations[row]),
        )

    def index_of(
        self,
        config: CacheConfig,
        mechanism: str = "none",
        mechanism_entries: int = 0,
    ) -> Optional[int]:
        """Row index of ``(config, mechanism, entries)``, or ``None`` when absent."""
        if self._key_index is None:
            self._key_index = {
                (
                    int(self.num_sets[row]),
                    int(self.associativities[row]),
                    int(self.block_sizes[row]),
                    int(self.policy_codes[row]),
                    int(self.mechanism_codes[row]),
                    int(self.mechanism_entries[row]),
                ): row
                for row in range(len(self))
            }
        key = (
            config.num_sets,
            config.associativity,
            config.block_size,
            _policy_code(config.policy),
            mechanism_code(mechanism),
            int(mechanism_entries),
        )
        return self._key_index.get(key)

    def get(
        self,
        config: CacheConfig,
        mechanism: str = "none",
        mechanism_entries: int = 0,
    ) -> Optional[ConfigResult]:
        """The row of ``(config, mechanism, entries)``, or ``None`` when absent."""
        row = self.index_of(config, mechanism, mechanism_entries)
        return None if row is None else self.result_at(row)

    def __getitem__(self, config: CacheConfig) -> ConfigResult:
        """The bare-cache row of ``config``; :class:`KeyError` when absent."""
        result = self.get(config)
        if result is None:
            raise KeyError(f"no result for configuration {config.label()}")
        return result

    def __contains__(self, config: CacheConfig) -> bool:
        return self.index_of(config) is not None

    def configs(self) -> List[CacheConfig]:
        """The configuration of every row, in row order (a configuration
        repeats once per mechanism variant)."""
        return [self.config_at(row) for row in range(len(self))]

    # -- derived columns ------------------------------------------------------

    @property
    def hits(self) -> np.ndarray:
        """Per-row hit counts (accesses minus misses)."""
        return self.accesses - self.misses

    def miss_rate_column(self) -> np.ndarray:
        """Per-row miss rates (0 for empty-trace rows)."""
        rates = np.zeros(len(self), dtype=np.float64)
        populated = self.accesses > 0
        np.divide(self.misses, self.accesses, out=rates, where=populated)
        return rates

    def total_sizes(self) -> np.ndarray:
        """Per-row total capacity in bytes (``S * A * B``)."""
        return self.num_sets * self.associativities * self.block_sizes

    #: Metric names accepted by :meth:`metric_column`.
    METRIC_NAMES: Tuple[str, ...] = (
        "num_sets",
        "associativity",
        "block_size",
        "total_size",
        "accesses",
        "misses",
        "hits",
        "compulsory_misses",
        "miss_rate",
        "hit_rate",
        "mechanism_entries",
        "mechanism_hits",
        "mechanism_swaps",
        "mechanism_allocations",
        "mechanism_hit_rate",
    )

    def metric_column(self, name: str) -> np.ndarray:
        """A named per-row metric as one numpy column.

        This is the accessor the frame-native exploration layer (Pareto
        fronts, energy model, tuner) builds its metric matrices from, so no
        per-row :class:`ConfigResult` objects appear on those hot paths.
        Supported names are listed in :attr:`METRIC_NAMES`; unknown names
        raise :class:`~repro.errors.SimulationError`.
        """
        if name == "num_sets":
            return self.num_sets
        if name == "associativity":
            return self.associativities
        if name == "block_size":
            return self.block_sizes
        if name == "total_size":
            return self.total_sizes()
        if name == "accesses":
            return self.accesses
        if name == "misses":
            return self.misses
        if name == "hits":
            return self.hits
        if name == "compulsory_misses":
            return self.compulsory
        if name == "miss_rate":
            return self.miss_rate_column()
        if name == "hit_rate":
            rates = np.zeros(len(self), dtype=np.float64)
            populated = self.accesses > 0
            np.subtract(1.0, self.miss_rate_column(), out=rates, where=populated)
            return rates
        if name == "mechanism_entries":
            return self.mechanism_entries
        if name == "mechanism_hits":
            return self.mechanism_hits
        if name == "mechanism_swaps":
            return self.mechanism_swaps
        if name == "mechanism_allocations":
            return self.mechanism_allocations
        if name == "mechanism_hit_rate":
            # Fraction of would-be DL1 misses the mechanism served: hits over
            # (hits + remaining misses).  0 for bare rows / empty traces.
            rates = np.zeros(len(self), dtype=np.float64)
            probes = self.mechanism_hits + self.misses
            np.divide(self.mechanism_hits, probes, out=rates, where=probes > 0)
            return rates
        raise SimulationError(
            f"unknown metric column {name!r}; expected one of {self.METRIC_NAMES}"
        )

    def select(self, mask: np.ndarray) -> "ResultsFrame":
        """A new frame containing only the rows where ``mask`` is true."""
        return ResultsFrame(
            self.num_sets[mask],
            self.associativities[mask],
            self.block_sizes[mask],
            self.policy_codes[mask],
            self.accesses[mask],
            self.misses[mask],
            self.compulsory[mask],
            elapsed_seconds=self.elapsed_seconds,
            simulator_name=self.simulator_name,
            trace_name=self.trace_name,
            mechanism_codes=self.mechanism_codes[mask],
            mechanism_entries=self.mechanism_entries[mask],
            mechanism_hits=self.mechanism_hits[mask],
            mechanism_swaps=self.mechanism_swaps[mask],
            mechanism_allocations=self.mechanism_allocations[mask],
        )

    # -- construction ---------------------------------------------------------

    @classmethod
    def _from_canonical(
        cls,
        num_sets: np.ndarray,
        associativities: np.ndarray,
        block_sizes: np.ndarray,
        policy_codes: np.ndarray,
        accesses: np.ndarray,
        misses: np.ndarray,
        compulsory: np.ndarray,
        elapsed_seconds: float,
        simulator_name: str,
        trace_name: str,
        mechanism_codes: np.ndarray,
        mechanism_entries: np.ndarray,
        mechanism_hits: np.ndarray,
        mechanism_swaps: np.ndarray,
        mechanism_allocations: np.ndarray,
    ) -> "ResultsFrame":
        """Internal fast path: columns already sorted canonically and unique.

        Skips the public constructor's re-sort and duplicate scan; callers
        (:meth:`merge`) guarantee both invariants.
        """
        frame = object.__new__(cls)
        columns = {
            "num_sets": np.ascontiguousarray(num_sets, dtype=np.int64),
            "associativities": np.ascontiguousarray(associativities, dtype=np.int64),
            "block_sizes": np.ascontiguousarray(block_sizes, dtype=np.int64),
            "policy_codes": np.ascontiguousarray(policy_codes, dtype=np.int8),
            "accesses": np.ascontiguousarray(accesses, dtype=np.int64),
            "misses": np.ascontiguousarray(misses, dtype=np.int64),
            "compulsory": np.ascontiguousarray(compulsory, dtype=np.int64),
            "mechanism_codes": np.ascontiguousarray(mechanism_codes, dtype=np.int8),
            "mechanism_entries": np.ascontiguousarray(mechanism_entries, dtype=np.int64),
            "mechanism_hits": np.ascontiguousarray(mechanism_hits, dtype=np.int64),
            "mechanism_swaps": np.ascontiguousarray(mechanism_swaps, dtype=np.int64),
            "mechanism_allocations": np.ascontiguousarray(
                mechanism_allocations, dtype=np.int64
            ),
        }
        for name, column in columns.items():
            column.setflags(write=False)
            setattr(frame, name, column)
        frame.elapsed_seconds = float(elapsed_seconds)
        frame.simulator_name = simulator_name
        frame.trace_name = trace_name
        frame.counters = None
        frame.walk = None
        frame._key_index = None
        return frame

    @classmethod
    def from_results(
        cls,
        results: Iterable[ConfigResult],
        elapsed_seconds: float = 0.0,
        simulator_name: str = "dew",
        trace_name: str = "trace",
    ) -> "ResultsFrame":
        """Build a frame from object-level results (any order; must be unique)."""
        rows = list(results)
        return cls(
            [r.config.num_sets for r in rows],
            [r.config.associativity for r in rows],
            [r.config.block_size for r in rows],
            [_policy_code(r.config.policy) for r in rows],
            [r.accesses for r in rows],
            [r.misses for r in rows],
            [r.compulsory_misses for r in rows],
            elapsed_seconds=elapsed_seconds,
            simulator_name=simulator_name,
            trace_name=trace_name,
            mechanism_codes=[mechanism_code(r.mechanism) for r in rows],
            mechanism_entries=[r.mechanism_entries for r in rows],
            mechanism_hits=[r.mechanism_hits for r in rows],
            mechanism_swaps=[r.mechanism_swaps for r in rows],
            mechanism_allocations=[r.mechanism_allocations for r in rows],
        )

    @classmethod
    def from_rows(
        cls,
        rows: Iterable[Mapping[str, Any]],
        elapsed_seconds: float = 0.0,
        simulator_name: str = "sweep",
        trace_name: str = "trace",
    ) -> "ResultsFrame":
        """Build a frame from ``as_rows()``-style dictionaries.

        This is the inverse of :meth:`as_rows` / :meth:`to_json` for the
        key and count fields (derived fields like
        ``hits`` and ``miss_rate`` are ignored), so a sweep's JSON output
        round-trips back into columnar form — e.g. for the ``repro-dew
        explore`` CLI.  Missing keys raise
        :class:`~repro.errors.SimulationError`.
        """
        row_list = list(rows)
        try:
            return cls(
                [int(row["num_sets"]) for row in row_list],
                [int(row["associativity"]) for row in row_list],
                [int(row["block_size"]) for row in row_list],
                [policy_code(str(row["policy"])) for row in row_list],
                [int(row["accesses"]) for row in row_list],
                [int(row["misses"]) for row in row_list],
                [int(row.get("compulsory_misses", 0)) for row in row_list],
                elapsed_seconds=elapsed_seconds,
                simulator_name=simulator_name,
                trace_name=trace_name,
                mechanism_codes=[
                    mechanism_code(str(row.get("mechanism", "none")))
                    for row in row_list
                ],
                mechanism_entries=[
                    int(row.get("mechanism_entries", 0)) for row in row_list
                ],
                mechanism_hits=[
                    int(row.get("mechanism_hits", 0)) for row in row_list
                ],
                mechanism_swaps=[
                    int(row.get("mechanism_swaps", 0)) for row in row_list
                ],
                mechanism_allocations=[
                    int(row.get("mechanism_allocations", 0)) for row in row_list
                ],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SimulationError(f"malformed result row: {exc}") from exc

    @classmethod
    def merge(
        cls,
        frames: Sequence["ResultsFrame"],
        simulator_name: str = "sweep",
        trace_name: str = "trace",
    ) -> "ResultsFrame":
        """Vectorised conflict-checked merge of several frames.

        Cells reported by more than one frame must agree exactly on
        ``(misses, accesses)`` — a disagreement raises
        :class:`~repro.errors.VerificationError`; agreeing duplicates keep
        the row from the earliest frame.  Elapsed times are summed; the
        merged frame carries no counters.
        """
        frames = list(frames)
        if not frames:
            return cls([], [], [], [], [], [], [],
                       simulator_name=simulator_name, trace_name=trace_name)
        keys = np.concatenate([f._key_matrix() for f in frames])
        accesses = np.concatenate([f.accesses for f in frames])
        misses = np.concatenate([f.misses for f in frames])
        compulsory = np.concatenate([f.compulsory for f in frames])
        mech_hits = np.concatenate([f.mechanism_hits for f in frames])
        mech_swaps = np.concatenate([f.mechanism_swaps for f in frames])
        mech_allocs = np.concatenate([f.mechanism_allocations for f in frames])
        # Stable sort by key keeps the earliest frame's row first among
        # duplicates, preserving job-order merge semantics.
        order = np.lexsort(
            (keys[:, 5], keys[:, 4], keys[:, 3], keys[:, 2], keys[:, 1], keys[:, 0])
        )
        keys = keys[order]
        accesses = accesses[order]
        misses = misses[order]
        compulsory = compulsory[order]
        mech_hits = mech_hits[order]
        mech_swaps = mech_swaps[order]
        mech_allocs = mech_allocs[order]
        if keys.shape[0] > 1:
            same = np.all(keys[1:] == keys[:-1], axis=1)
            conflict = same & (
                (misses[1:] != misses[:-1]) | (accesses[1:] != accesses[:-1])
            )
            if conflict.any():
                row = int(np.flatnonzero(conflict)[0])
                config = CacheConfig(
                    int(keys[row, 0]),
                    int(keys[row, 1]),
                    int(keys[row, 2]),
                    ReplacementPolicy(POLICY_TABLE[int(keys[row, 3])]),
                )
                label = config.label()
                if keys[row, 4]:
                    label += (
                        f"+{MECHANISM_TABLE[int(keys[row, 4])]}x{int(keys[row, 5])}"
                    )
                raise VerificationError(
                    f"sweep jobs disagree on {label}: "
                    f"{misses[row]}/{accesses[row]} vs {misses[row + 1]}/{accesses[row + 1]}"
                )
            keep = np.ones(keys.shape[0], dtype=bool)
            keep[1:] = ~same
            keys = keys[keep]
            accesses = accesses[keep]
            misses = misses[keep]
            compulsory = compulsory[keep]
            mech_hits = mech_hits[keep]
            mech_swaps = mech_swaps[keep]
            mech_allocs = mech_allocs[keep]
        # Already sorted and deduplicated above: take the fast path instead
        # of paying the constructor's re-sort and duplicate scan again.
        return cls._from_canonical(
            keys[:, 0],
            keys[:, 1],
            keys[:, 2],
            keys[:, 3],
            accesses,
            misses,
            compulsory,
            elapsed_seconds=sum(f.elapsed_seconds for f in frames),
            simulator_name=simulator_name,
            trace_name=trace_name,
            mechanism_codes=keys[:, 4],
            mechanism_entries=keys[:, 5],
            mechanism_hits=mech_hits,
            mechanism_swaps=mech_swaps,
            mechanism_allocations=mech_allocs,
        )

    # -- serialization --------------------------------------------------------

    def to_npz(self, file: Union[str, "os.PathLike[str]", BinaryIO],
               extra_metadata: Optional[Dict[str, Any]] = None) -> None:
        """Write the frame as a compressed ``.npz`` payload.

        ``extra_metadata`` (JSON-able) is embedded alongside the frame's own
        metadata; the result store uses it to tie an artifact to its key.
        """
        metadata = {
            "schema": FRAME_SCHEMA_VERSION,
            "elapsed_seconds": self.elapsed_seconds,
            "simulator_name": self.simulator_name,
            "trace_name": self.trace_name,
            "policy_table": list(POLICY_TABLE),
            "mechanism_table": list(MECHANISM_TABLE),
        }
        if extra_metadata:
            metadata["extra"] = extra_metadata
        np.savez_compressed(
            file,
            num_sets=self.num_sets,
            associativities=self.associativities,
            block_sizes=self.block_sizes,
            policy_codes=self.policy_codes,
            accesses=self.accesses,
            misses=self.misses,
            compulsory=self.compulsory,
            mechanism_codes=self.mechanism_codes,
            mechanism_entries=self.mechanism_entries,
            mechanism_hits=self.mechanism_hits,
            mechanism_swaps=self.mechanism_swaps,
            mechanism_allocations=self.mechanism_allocations,
            metadata=np.asarray(json.dumps(metadata, sort_keys=True)),
        )

    @classmethod
    def read_npz(
        cls, file: Union[str, "os.PathLike[str]", BinaryIO]
    ) -> Tuple["ResultsFrame", Dict[str, Any]]:
        """Load a frame plus its embedded extra metadata from ``.npz``.

        Raises :class:`~repro.errors.SimulationError` for unknown schema
        versions or malformed payloads.
        """
        with np.load(file, allow_pickle=False) as payload:
            try:
                metadata = json.loads(str(payload["metadata"][()]))
            except (KeyError, ValueError) as exc:
                raise SimulationError(f"results payload has no readable metadata: {exc}") from exc
            if metadata.get("schema") not in _READABLE_SCHEMAS:
                raise SimulationError(
                    f"unsupported results schema {metadata.get('schema')!r} "
                    f"(this build reads versions {_READABLE_SCHEMAS})"
                )
            stored_table = metadata.get("policy_table", list(POLICY_TABLE))
            codes = payload["policy_codes"]
            if list(stored_table) != list(POLICY_TABLE):
                # Remap codes written under a different policy table.
                try:
                    remap = np.asarray(
                        [_POLICY_CODES[value] for value in stored_table], dtype=np.int8
                    )
                except KeyError as exc:
                    raise SimulationError(f"results payload uses unknown policy {exc}") from exc
                codes = remap[codes]
            mechanism_columns: Dict[str, Optional[np.ndarray]] = {
                "mechanism_codes": None,
                "mechanism_entries": None,
                "mechanism_hits": None,
                "mechanism_swaps": None,
                "mechanism_allocations": None,
            }
            if "mechanism_codes" in payload:
                for name in mechanism_columns:
                    mechanism_columns[name] = payload[name]
                stored_mechs = metadata.get("mechanism_table", list(MECHANISM_TABLE))
                if list(stored_mechs) != list(MECHANISM_TABLE):
                    # Remap codes written under a different mechanism table.
                    try:
                        remap = np.asarray(
                            [_MECHANISM_CODES[value] for value in stored_mechs],
                            dtype=np.int8,
                        )
                    except KeyError as exc:
                        raise SimulationError(
                            f"results payload uses unknown mechanism {exc}"
                        ) from exc
                    mechanism_columns["mechanism_codes"] = remap[
                        mechanism_columns["mechanism_codes"]
                    ]
            frame = cls(
                payload["num_sets"],
                payload["associativities"],
                payload["block_sizes"],
                codes,
                payload["accesses"],
                payload["misses"],
                payload["compulsory"],
                elapsed_seconds=float(metadata.get("elapsed_seconds", 0.0)),
                simulator_name=str(metadata.get("simulator_name", "dew")),
                trace_name=str(metadata.get("trace_name", "trace")),
                **mechanism_columns,
            )
        return frame, metadata.get("extra", {})

    # -- reporting ------------------------------------------------------------

    def as_rows(self) -> List[Dict[str, object]]:
        """One :meth:`ConfigResult.as_dict` per row, in canonical order."""
        return [result.as_dict() for result in self]

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Machine-readable JSON with a stable (canonical) row order.

        Rows are sorted by the configuration tuple and keys keep a fixed
        order, so the output of two runs over the same cells is
        byte-identical.
        """
        payload = {
            "schema": FRAME_SCHEMA_VERSION,
            "simulator": self.simulator_name,
            "trace": self.trace_name,
            "configurations": self.as_rows(),
        }
        return json.dumps(payload, indent=indent)
