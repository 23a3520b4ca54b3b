"""The :class:`Trace` container.

A trace is stored as parallel numpy arrays (addresses, access types, sizes)
so that multi-hundred-thousand-entry traces are cheap to hold, slice and
feed to simulators.  ``Engine.run`` drives a trace through an engine,
shifting each chunk of addresses to block addresses with one vectorised
numpy operation; :meth:`Trace.address_list` remains for per-address
drivers and is memoized so repeated runs stop re-converting the ndarray.
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

#: The highest byte address a trace holds: addresses are ``int64``.
ADDRESS_MAX = 2**63 - 1


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
        try:
            if isinstance(addresses, np.ndarray) and addresses.dtype.kind == "u":
                # Casting an unsigned array wraps 2**63 and above to negative.
                if addresses.size and int(addresses.max()) > ADDRESS_MAX:
                    raise OverflowError
            addr = np.asarray(addresses, dtype=np.int64)
        except OverflowError:
            raise TraceError("trace contains an address outside [0, 2**63)") from None
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
        self._first_touch_cache: Dict[int, np.ndarray] = {}
        self._range_cache: Optional[Tuple[int, int]] = None
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
        state["_first_touch_cache"] = {}
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
        offset_bits = _offset_bits(block_size)
        cached = self._block_address_cache.get(offset_bits)
        if cached is None:
            cached = self._addresses >> offset_bits
            cached.setflags(write=False)
            self._block_address_cache[offset_bits] = cached
        return cached

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
        ``Engine.run`` hands to the engine.  :meth:`first_touches` memoizes
        it too, from its own sort.
        """
        offset_bits = _offset_bits(block_size)
        cached = self._unique_block_cache.get(offset_bits)
        if cached is None:
            # A sort and a count of the changes: several times faster than
            # np.unique, which also builds the distinct array.
            blocks = self._addresses >> offset_bits
            blocks.sort()
            cached = int(blocks.size and 1 + np.count_nonzero(blocks[1:] != blocks[:-1]))
            self._unique_block_cache[offset_bits] = cached
        return cached

    def first_touches(self, block_size: int) -> np.ndarray:
        """A read-only ``bool`` per access, true where the access is its
        block's first touch at the given block size (memoized).

        Its count is :meth:`unique_blocks`, which this memoizes as well:
        both come from one sort.  ``Engine.run`` hands the marks to the
        engines that take them (:attr:`~repro.engine.base.Engine.wants_first_touches`);
        they hold one byte per access per block size, and pickling drops
        them.  Raises :class:`~repro.errors.TraceError` as
        :meth:`checked_range` does.
        """
        offset_bits = _offset_bits(block_size)
        marks = self._first_touch_cache.get(offset_bits)
        if marks is None:
            low, high = (address >> offset_bits for address in self.checked_range())
            blocks = self._addresses >> offset_bits
            position_bits = max(blocks.size - 1, 0).bit_length()
            if (high - low).bit_length() + position_bits <= 63:
                # One sort of int64 keys packing (block - lowest, position),
                # built in place: a block's first key holds the position of
                # its first touch.
                keys = blocks
                keys -= low
                keys <<= position_bits
                keys |= np.arange(keys.size)
                keys.sort()
                sorted_blocks = keys >> position_bits
                new = np.empty(keys.size, dtype=bool)
                new[:1] = True
                np.not_equal(sorted_blocks[1:], sorted_blocks[:-1], out=new[1:])
                first = keys[new] & ((1 << position_bits) - 1)
            else:
                first = np.unique(blocks, return_index=True)[1]
            marks = np.zeros(blocks.size, dtype=bool)
            marks[first] = True
            marks.setflags(write=False)
            self._first_touch_cache[offset_bits] = marks
            self._unique_block_cache[offset_bits] = int(first.size)
        return marks

    def checked_range(self) -> Tuple[int, int]:
        """The lowest and the highest address (``(0, 0)`` when empty), once
        the whole trace is checked (memoized).

        Raises :class:`~repro.errors.TraceError` for a negative address or
        an unknown access type code.  The constructor refuses the first but
        not the second, and a cache-attached plane skips the constructor
        (:meth:`_install`), so ``Engine.run`` checks every trace here before
        any walk reads it; each block size's range follows from this one.
        """
        if self._range_cache is None:
            low = high = lowest = highest = 0
            if self._addresses.size:
                low, high = int(self._addresses.min()), int(self._addresses.max())
                lowest, highest = int(self._types.min()), int(self._types.max())
            if low < 0:
                raise TraceError(f"trace contains a negative address: {low}")
            if lowest < 0 or highest > max(AccessType):
                raise TraceError(f"unknown access type code in {lowest}..{highest}")
            self._range_cache = (low, high)
        return self._range_cache

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


def _offset_bits(block_size: int) -> int:
    """The block-offset width of ``block_size``; raises
    :class:`~repro.errors.TraceError` unless it is a power of two."""
    if block_size <= 0 or block_size & (block_size - 1):
        raise TraceError(f"block size must be a power of two, got {block_size}")
    return block_size.bit_length() - 1


def as_trace(trace: Union[Trace, Iterable[int]]) -> Trace:
    """A :class:`Trace` of any address input: a trace as it is, an integer
    ndarray taken whole, any other iterable of byte addresses read once into
    an ``int64`` array.

    Raises :class:`~repro.errors.TraceError` for an address outside
    ``[0, 2**63)``.
    """
    if isinstance(trace, Trace):
        return trace
    if isinstance(trace, np.ndarray) and trace.dtype.kind in "iu":
        return Trace(trace)
    try:
        addresses = np.fromiter((int(address) for address in trace), dtype=np.int64)
    except OverflowError:
        raise TraceError("trace contains an address outside [0, 2**63)") from None
    return Trace(addresses)


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
        if address > ADDRESS_MAX:
            raise TraceError(f"trace contains an address outside [0, 2**63): {address}")
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
