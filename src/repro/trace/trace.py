"""The :class:`Trace` container.

A trace is stored as parallel numpy arrays (addresses, access types, sizes)
so that multi-hundred-thousand-entry traces are cheap to hold, slice and
feed to simulators.  The preferred consumption path is
:meth:`Trace.iter_block_chunks`, which shifts addresses to block addresses
with one vectorised numpy operation per chunk instead of one Python ``>>``
per access; :meth:`Trace.address_list` remains for per-address drivers and
is memoized so repeated runs stop re-converting the ndarray.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import TraceError
from repro.trace.record import MemoryAccess
from repro.types import AccessType

#: Chunk length used by the block pipeline when the caller does not choose one.
DEFAULT_CHUNK_SIZE = 65_536


class Trace:
    """An immutable sequence of memory accesses.

    Parameters
    ----------
    addresses:
        Byte addresses, one per access.
    access_types:
        Optional per-access types; defaults to all reads.
    sizes:
        Optional per-access sizes in bytes; defaults to 4.
    name:
        Human-readable label (e.g. the workload name) used in reports.
    """

    def __init__(
        self,
        addresses: Union[Sequence[int], np.ndarray],
        access_types: Optional[Union[Sequence[int], np.ndarray]] = None,
        sizes: Optional[Union[Sequence[int], np.ndarray]] = None,
        name: str = "trace",
    ) -> None:
        addr = np.asarray(addresses, dtype=np.int64)
        if addr.ndim != 1:
            raise TraceError("addresses must be a one-dimensional sequence")
        if addr.size and addr.min() < 0:
            raise TraceError("trace contains a negative address")
        if access_types is None:
            types = np.full(addr.shape, int(AccessType.READ), dtype=np.int8)
        else:
            types = np.asarray(access_types, dtype=np.int8)
            if types.shape != addr.shape:
                raise TraceError("access_types length does not match addresses")
        if sizes is None:
            size_arr = np.full(addr.shape, 4, dtype=np.int16)
        else:
            size_arr = np.asarray(sizes, dtype=np.int16)
            if size_arr.shape != addr.shape:
                raise TraceError("sizes length does not match addresses")
            if size_arr.size and size_arr.min() <= 0:
                raise TraceError("trace contains a non-positive access size")
        self._install(addr, types, size_arr, name)

    def _install(
        self, addresses: np.ndarray, types: np.ndarray, sizes: np.ndarray, name: str
    ) -> None:
        """Adopt already-typed columns (``int64``/``int8``/``int16``) as-is.

        Skips :meth:`__init__`'s validation, which walks every column; the
        cache-attached :class:`~repro.trace.planecache.CachedPlane` installs
        its mmap views through here so attaching touches no page.
        """
        self._addresses = addresses
        self._types = types
        self._sizes = sizes
        self.name = name
        self._addresses.setflags(write=False)
        self._types.setflags(write=False)
        self._sizes.setflags(write=False)
        self._address_list_cache: Optional[List[int]] = None
        self._block_address_cache: Dict[int, np.ndarray] = {}
        self._unique_block_cache: Dict[int, int] = {}
        self._fingerprint_cache: Optional[str] = None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_accesses(cls, accesses: Iterable[MemoryAccess], name: str = "trace") -> "Trace":
        """Build a trace from an iterable of :class:`MemoryAccess` records."""
        records = list(accesses)
        return cls(
            [record.address for record in records],
            [int(record.access_type) for record in records],
            [record.size for record in records],
            name=name,
        )

    @classmethod
    def empty(cls, name: str = "empty") -> "Trace":
        """Return a zero-length trace."""
        return cls(np.empty(0, dtype=np.int64), name=name)

    # -- basic protocol -------------------------------------------------------

    def __len__(self) -> int:
        return int(self._addresses.size)

    def __iter__(self) -> Iterator[MemoryAccess]:
        for address, access_type, size in zip(self._addresses, self._types, self._sizes):
            yield MemoryAccess(int(address), AccessType(int(access_type)), int(size))

    def __getitem__(self, index: Union[int, slice]) -> Union[MemoryAccess, "Trace"]:
        if isinstance(index, slice):
            return Trace(
                self._addresses[index],
                self._types[index],
                self._sizes[index],
                name=self.name,
            )
        return MemoryAccess(
            int(self._addresses[index]),
            AccessType(int(self._types[index])),
            int(self._sizes[index]),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            np.array_equal(self._addresses, other._addresses)
            and np.array_equal(self._types, other._types)
            and np.array_equal(self._sizes, other._sizes)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Trace(name={self.name!r}, length={len(self)})"

    def __getstate__(self) -> Dict[str, object]:
        # Caches are cheap to rebuild and can dwarf the arrays themselves;
        # keep worker pickles (multiprocessing sweeps) lean.
        state = dict(self.__dict__)
        state["_address_list_cache"] = None
        state["_block_address_cache"] = {}
        return state

    # -- array views ----------------------------------------------------------

    @property
    def addresses(self) -> np.ndarray:
        """Byte addresses as a read-only ``int64`` array."""
        return self._addresses

    @property
    def access_types(self) -> np.ndarray:
        """Per-access :class:`~repro.types.AccessType` values (as ``int8``)."""
        return self._types

    @property
    def sizes(self) -> np.ndarray:
        """Per-access sizes in bytes."""
        return self._sizes

    def address_list(self) -> List[int]:
        """Addresses as a plain Python list (fastest form for simulator loops).

        The conversion is memoized: repeated simulator runs over the same
        trace reuse one list instead of re-converting the ndarray each time.
        The returned list is shared — treat it as read-only and copy before
        mutating (``list(trace.address_list())``).
        """
        if self._address_list_cache is None:
            self._address_list_cache = self._addresses.tolist()
        return self._address_list_cache

    def block_addresses(self, block_size: int) -> np.ndarray:
        """Block addresses of every access for the given block size (memoized)."""
        if block_size <= 0 or block_size & (block_size - 1):
            raise TraceError(f"block size must be a power of two, got {block_size}")
        offset_bits = block_size.bit_length() - 1
        cached = self._block_address_cache.get(offset_bits)
        if cached is None:
            cached = self._addresses >> offset_bits
            cached.setflags(write=False)
            self._block_address_cache[offset_bits] = cached
        return cached

    def iter_block_chunks(
        self,
        offset_bits: int,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        with_types: bool = False,
    ) -> Iterator[Union[np.ndarray, Tuple[np.ndarray, np.ndarray]]]:
        """Yield pre-shifted block-address chunks for the engine pipeline.

        Each chunk is an ``int64`` ndarray of ``chunk_size`` block addresses
        (the final chunk may be shorter), produced with one vectorised shift
        instead of one Python-level ``>>`` per access.  With ``with_types``
        the per-access :class:`~repro.types.AccessType` codes ride along as a
        second array.
        """
        if offset_bits < 0:
            raise TraceError(f"offset_bits must be non-negative, got {offset_bits}")
        if chunk_size < 1:
            raise TraceError(f"chunk size must be positive, got {chunk_size}")
        length = self._addresses.size
        for start in range(0, length, chunk_size):
            stop = min(start + chunk_size, length)
            blocks = self._addresses[start:stop] >> offset_bits
            if with_types:
                yield blocks, self._types[start:stop]
            else:
                yield blocks

    def fingerprint(self, chunk_size: int = DEFAULT_CHUNK_SIZE) -> str:
        """Content digest of the trace (addresses, types and sizes).

        A streaming SHA-256 over the packed arrays, fed ``chunk_size``
        entries at a time so multi-hundred-million-access traces never need
        a monolithic byte copy.  The digest covers content only — not the
        trace's name — so renamed copies of the same access stream share one
        fingerprint, which is what makes the persistent result store
        content-addressed.  Memoized per instance (and kept through
        pickling, so sweep workers inherit it for free).
        """
        if self._fingerprint_cache is None:
            digest = hashlib.sha256()
            digest.update(b"repro-trace-v1:")
            digest.update(str(len(self)).encode("ascii"))
            for array in (self._addresses, self._types, self._sizes):
                digest.update(b"|" + array.dtype.str.encode("ascii") + b":")
                for start in range(0, array.size, chunk_size):
                    chunk = np.ascontiguousarray(array[start:start + chunk_size])
                    digest.update(chunk.tobytes())
            self._fingerprint_cache = digest.hexdigest()
        return self._fingerprint_cache

    def seed_fingerprint(self, fingerprint: str) -> None:
        """Install an externally-known content digest into the memo.

        Used by :func:`~repro.trace.files.load_trace_file` when a validated
        ``(path, mtime, size)`` sidecar already knows the file's fingerprint,
        so a warm load skips the full-array hash.  Only seed digests that
        were originally computed by :meth:`fingerprint` over this same
        content; an already-computed memo is never overwritten.
        """
        if self._fingerprint_cache is None:
            self._fingerprint_cache = str(fingerprint)

    def unique_blocks(self, block_size: int) -> int:
        """Number of distinct blocks touched at the given block size (memoized).

        This is every cache's compulsory misses at that block size, which
        ``Engine.run`` and the sweep executor hand to the engines.
        """
        if block_size <= 0 or block_size & (block_size - 1):
            raise TraceError(f"block size must be a power of two, got {block_size}")
        offset_bits = block_size.bit_length() - 1
        cached = self._unique_block_cache.get(offset_bits)
        if cached is None:
            # A sort and a count of the changes: several times faster than
            # np.unique, which also builds the distinct array.
            blocks = self._addresses >> offset_bits
            blocks.sort()
            cached = int(blocks.size and 1 + np.count_nonzero(blocks[1:] != blocks[:-1]))
            self._unique_block_cache[offset_bits] = cached
        return cached

    # -- simple transformations ----------------------------------------------

    def concatenate(self, other: "Trace", name: Optional[str] = None) -> "Trace":
        """Return a new trace consisting of this trace followed by ``other``."""
        return Trace(
            np.concatenate([self._addresses, other._addresses]),
            np.concatenate([self._types, other._types]),
            np.concatenate([self._sizes, other._sizes]),
            name=name or f"{self.name}+{other.name}",
        )

    def repeat(self, count: int, name: Optional[str] = None) -> "Trace":
        """Return this trace repeated ``count`` times back to back."""
        if count < 0:
            raise TraceError("repeat count must be non-negative")
        return Trace(
            np.tile(self._addresses, count),
            np.tile(self._types, count),
            np.tile(self._sizes, count),
            name=name or f"{self.name}x{count}",
        )

    def with_name(self, name: str) -> "Trace":
        """Return a shallow copy of this trace under a different name."""
        return Trace(self._addresses, self._types, self._sizes, name=name)


class TraceBuilder:
    """Bounded-memory trace assembly for parsers and generators.

    Accesses are buffered in plain Python lists only up to
    :data:`DEFAULT_CHUNK_SIZE` entries; each full buffer is flushed to packed
    numpy arrays, so parsing a multi-million-line trace file never holds the
    whole file's worth of Python objects at once.
    """

    def __init__(self, name: str = "trace") -> None:
        self.name = name
        self._addresses: List[int] = []
        self._types: List[int] = []
        self._sizes: List[int] = []
        self._address_chunks: List[np.ndarray] = []
        self._type_chunks: List[np.ndarray] = []
        self._size_chunks: List[np.ndarray] = []
        self._flushed = 0

    def __len__(self) -> int:
        return self._flushed + len(self._addresses)

    def add(self, address: int, access_type: int = int(AccessType.READ), size: int = 4) -> None:
        """Append one access; flushes the buffer when it reaches the chunk size."""
        if address < 0:
            raise TraceError(f"negative address in trace: {address}")
        self._addresses.append(int(address))
        self._types.append(int(access_type))
        self._sizes.append(int(size))
        if len(self._addresses) >= DEFAULT_CHUNK_SIZE:
            self._flush()

    def add_access(self, access: MemoryAccess) -> None:
        """Append a pre-built :class:`MemoryAccess`."""
        self.add(access.address, access.access_type, access.size)

    def extend_addresses(
        self,
        addresses: Iterable[int],
        access_type: AccessType = AccessType.READ,
        size: int = 4,
    ) -> None:
        """Append many addresses sharing one access type and size."""
        for address in addresses:
            self.add(address, access_type, size)

    def _flush(self) -> None:
        if not self._addresses:
            return
        self._address_chunks.append(np.asarray(self._addresses, dtype=np.int64))
        self._type_chunks.append(np.asarray(self._types, dtype=np.int8))
        self._size_chunks.append(np.asarray(self._sizes, dtype=np.int16))
        self._flushed += len(self._addresses)
        self._addresses = []
        self._types = []
        self._sizes = []

    def build(self) -> Trace:
        """Concatenate the flushed chunks into an immutable :class:`Trace`."""
        self._flush()
        if not self._address_chunks:
            return Trace.empty(name=self.name)
        return Trace(
            np.concatenate(self._address_chunks),
            np.concatenate(self._type_chunks),
            np.concatenate(self._size_chunks),
            name=self.name,
        )
