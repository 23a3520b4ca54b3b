"""The DEW simulation tree (Property 1) and its per-node storage.

For one ``(block size B, associativity A)`` pair the tree has one *level* per
simulated set size.  Level ``k`` models the cache with ``set_sizes[k]`` sets;
node ``i`` of level ``k`` is set ``i`` of that cache.  A block address maps
to node ``block & (S_k - 1)`` at level ``k``, so the node for set ``i`` at
level ``k`` has exactly two children at level ``k+1``: sets ``i`` and
``i + S_k`` (Figure 1 of the paper).

Each node stores, per the paper's Section 5 accounting:

* a tag list of ``A`` entries, each a (tag, wave pointer) pair,
* the MRA tag (most recently accessed tag of the set, Property 2),
* the MRE entry: most recently evicted tag plus its wave pointer
  (Property 4),
* the FIFO round-robin victim pointer.

The storage has two layouts, one per DEW walk:

* **Lists** (the Python walk): flat Python lists per level and field
  (``tags[k]`` has ``S_k * A`` slots), because attribute-light list indexing
  is the fastest pure Python representation for the walk's inner loop.
  Invalid tags and empty wave pointers hold ``-1``.
* **Records** (the compiled walk, :mod:`repro.kernels`): one structured
  array per tree, a record per node (:func:`record_dtype`), level ``k``
  from record :attr:`DewTree.level_offsets` ``[k]``.  A record holds the MRA
  tag, MRE tag, MRE wave pointer, FIFO pointer and epoch, then the ``A``
  tags and ``A`` wave pointers: 224 B at ``A = 16``, 7.3 MB for 15 levels.
  Tags and the epoch are int64; pointers are int32, the paper's 32-bit
  pointers (Section 5).  Values are stored minus their field's empty value,
  so tags hold ``block + 1``, wave pointers ``way + 1``, and 0 means empty.

A record whose epoch is not its tree's is empty, whatever it holds: the
walk (``kernels/dew.c``) zeroes and stamps it when it first evaluates the
node.  So nothing ever clears a tree: zero-filled storage is empty from
epoch 1 on, and :meth:`DewTree.reset` moves to the next epoch.  Epochs only
grow, and at 64 bits they never wrap.

Record storage is recycled within a process through :data:`STORAGE_POOL`,
the one pool of released engine storage, which also holds the LRU
engine's (:mod:`repro.lru.janapsatya`).  The sweep executor builds its
engines with ``recycled=True``: such a DEW tree takes storage of its node
count and associativity from the pool when it holds some, moving it to its
next epoch, and :meth:`DewTree.release` hands it back as it is once the
job is finalized, so later jobs do not page-fault fresh storage in.  The
executor runs one engine at a time, so jobs of one shape share one
storage.  A pass that builds a recycling engine leaves the pool holding
only what it released (:meth:`StoragePool.one_pass`); any other pass
leaves it as it was.  A forked child starts with the pool empty.  The
harness's Table 3 cells recycle the same way, so their timed walks do not
fault in a fresh tree per cell either.  Trees built any other way
(``DewSimulator(...)`` without ``recycled``, tests) allocate their own
storage.

Inspection reads both layouts the same way: ``tags``, ``waves``, ``mra``,
``mre_tag``, ``mre_wave``, ``fifo_ptr`` and :meth:`DewTree.resident_blocks`
return decoded per-level values (``-1`` for invalid or empty; a stale
record reads as empty), decoded in :meth:`DewTree._decode` alone: the live
lists of the list layout, snapshots of the records.
"""

from __future__ import annotations

import contextlib
import os
import threading
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import CacheConfig
from repro.errors import ConfigurationError, SimulationError
from repro.types import EMPTY_WAVE, INVALID_TAG, ReplacementPolicy, is_power_of_two, log2_exact


def default_paper_set_sizes() -> Tuple[int, ...]:
    """The paper's set-size sweep: ``2^0 .. 2^14``."""
    return tuple(2**i for i in range(0, 15))


#: Each node field's empty value: invalid tags and empty wave pointers are -1.
#: The records store every value minus its field's empty value.
EMPTY_VALUES: Dict[str, int] = {
    "tags": INVALID_TAG,
    "waves": EMPTY_WAVE,
    "mra": INVALID_TAG,
    "mre_tag": INVALID_TAG,
    "mre_wave": EMPTY_WAVE,
    "fifo_ptr": 0,
}
#: Fields with one slot per tag-list entry (``A`` per node); the rest have
#: one per node.
ENTRY_FIELDS = ("tags", "waves")


def record_dtype(associativity: int) -> np.dtype:
    """One node's record, padded to 8 bytes: the header ``kernels/dew.c``
    declares as its ``node_t``, then the ``A`` tags and ``A`` wave pointers.
    The walk takes the record size from here."""
    return np.dtype(
        [
            ("mra", np.int64),
            ("mre_tag", np.int64),
            ("mre_wave", np.int32),
            ("fifo_ptr", np.int32),
            ("epoch", np.int64),
            ("tags", np.int64, (associativity,)),
            ("waves", np.int32, (associativity,)),
        ],
        align=True,
    )


@dataclass(eq=False)
class Records:
    """One tree's record storage and the latest epoch it was used at (0 for
    none: zero-filled records are empty under every epoch)."""

    array: np.ndarray
    epoch: int = 0


#: What a tree's storage is pooled by: its node count and associativity.
Shape = Tuple[int, int]

#: What the pool keys storage by: a DEW tree's :data:`Shape`, or another
#: engine family's key and its shape (the LRU engine's
#: ``("janapsatya", sets, ways)``), so that no two families meet.
PoolKey = Tuple[Any, ...]


class StoragePool:
    """Released engine storage, kept for the next engine of the same key.

    Every method takes the pool's lock, so engines built and released on
    several threads never share storage.  The pool holds what it is given
    until :meth:`clear`, or until the end of a :meth:`one_pass` block that
    nobody took it in.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._free: Dict[PoolKey, List[Any]] = {}
        #: What the pool held when the latest :meth:`one_pass` began.
        self._before: Dict[PoolKey, List[Any]] = {}

    def take(self, key: PoolKey) -> Optional[Any]:
        """Storage of ``key``, or ``None`` when the pool holds none."""
        with self._lock:
            for held in (self._free, self._before):
                free = held.get(key)
                if free:
                    return free.pop()
            return None

    def put(self, key: PoolKey, storage: Any) -> None:
        """Keep ``storage`` for the next engine of ``key``."""
        with self._lock:
            self._free.setdefault(key, []).append(storage)

    def clear(self) -> None:
        """Drop everything the pool holds."""
        with self._lock:
            self._free, self._before = {}, {}

    @contextlib.contextmanager
    def one_pass(self) -> Iterator[None]:
        """Within the block, engines take what the pool holds as ever; when
        it ends, the pool drops what it held before the block and nobody
        took, so it keeps only what the block released."""
        with self._lock:
            self._before, self._free = self._free, {}
        try:
            yield
        finally:
            with self._lock:
                self._before = {}

    def _forget(self) -> None:
        # A child forked while another thread held the lock would wait on it
        # forever; the child gets a fresh lock and an empty pool.
        self._lock = threading.Lock()
        self._free, self._before = {}, {}


#: This process's pool of released engine storage.
STORAGE_POOL = StoragePool()
os.register_at_fork(after_in_child=STORAGE_POOL._forget)


def _decoded_field(name: str, doc: str) -> property:
    return property(lambda tree: tree.decoded(name), doc=doc)


class DewTree:
    """Storage for one DEW simulation tree (one block size, one associativity).

    Parameters
    ----------
    block_size:
        Cache block size ``B`` in bytes (power of two).
    associativity:
        Number of ways ``A`` in every simulated set (>= 1).
    set_sizes:
        Strictly increasing powers of two, each double the previous, e.g.
        ``(1, 2, 4, ..., 16384)``.  Defaults to the paper's sweep.
    flat:
        Lay the storage out as records for the compiled walk rather than as
        the Python walk's lists (see the module docstring); inspection reads
        either the same.
    recycled:
        Take record storage from :data:`STORAGE_POOL` when it holds some of
        this tree's shape, and hand it back on :meth:`release`.  Ignored for
        the list layout.
    """

    def __init__(
        self,
        block_size: int,
        associativity: int,
        set_sizes: Optional[Sequence[int]] = None,
        flat: bool = False,
        recycled: bool = False,
    ) -> None:
        if not is_power_of_two(block_size):
            raise ConfigurationError(f"block size must be a power of two, got {block_size}")
        if associativity < 1:
            raise ConfigurationError(f"associativity must be >= 1, got {associativity}")
        sizes = tuple(set_sizes) if set_sizes is not None else default_paper_set_sizes()
        if not sizes:
            raise ConfigurationError("at least one set size is required")
        for size in sizes:
            if not is_power_of_two(size):
                raise ConfigurationError(f"set size {size} is not a power of two")
        for previous, current in zip(sizes, sizes[1:]):
            if current != 2 * previous:
                raise ConfigurationError(
                    "set sizes must double from level to level "
                    f"(got {previous} followed by {current})"
                )
        self.block_size = block_size
        self.associativity = associativity
        self.set_sizes: Tuple[int, ...] = sizes
        self.offset_bits = log2_exact(block_size)
        self.num_levels = len(sizes)

        #: ``True`` for the record layout the compiled walk uses (see module
        #: docstring); the Python walk uses the list layout.
        self.flat = flat
        #: ``True`` when the record storage comes from, and goes back to,
        #: :data:`STORAGE_POOL`.
        self.recycled = flat and recycled
        sizes_array = np.asarray(sizes, dtype=np.int64)
        #: Per level, the node-index mask and (record layout) the first node.
        self.index_masks = sizes_array - 1
        self.level_offsets = np.cumsum(sizes_array) - sizes_array
        #: The per-field lists, or the :class:`Records`; ``None`` once
        #: :meth:`release` gave the storage away.
        self.storage: Any = None
        self._allocate()

    tags = _decoded_field("tags", "Per-level tag lists, ``S_k * A`` slots each.")
    waves = _decoded_field("waves", "Per-level wave pointers, one per tag-list slot.")
    mra = _decoded_field("mra", "Per-level MRA tags, one per node.")
    mre_tag = _decoded_field("mre_tag", "Per-level MRE tags, one per node.")
    mre_wave = _decoded_field("mre_wave", "Per-level MRE wave pointers, one per node.")
    fifo_ptr = _decoded_field("fifo_ptr", "Per-level FIFO victim pointers, one per node.")

    # -- structural queries ---------------------------------------------------

    def level_of(self, num_sets: int) -> int:
        """Level index simulating the cache with ``num_sets`` sets."""
        try:
            return self.set_sizes.index(num_sets)
        except ValueError as exc:
            raise ConfigurationError(f"set size {num_sets} is not simulated by this tree") from exc

    def config_at(self, level: int, associativity: Optional[int] = None) -> CacheConfig:
        """The cache configuration simulated at ``level``."""
        return CacheConfig(
            num_sets=self.set_sizes[level],
            associativity=associativity if associativity is not None else self.associativity,
            block_size=self.block_size,
            policy=ReplacementPolicy.FIFO,
        )

    def configs(self, include_direct_mapped: bool = True) -> List[CacheConfig]:
        """All configurations this tree simulates in one pass."""
        configs = [self.config_at(level) for level in range(self.num_levels)]
        if include_direct_mapped and self.associativity > 1:
            configs.extend(self.config_at(level, associativity=1) for level in range(self.num_levels))
        return configs

    def node_count(self) -> int:
        """Total number of simulation-tree nodes."""
        return sum(self.set_sizes)

    def children_of(self, level: int, set_index: int) -> Tuple[int, int]:
        """Set indices at ``level + 1`` that are children of ``(level, set_index)``."""
        if level + 1 >= self.num_levels:
            raise ConfigurationError("leaf nodes have no children")
        return set_index, set_index + self.set_sizes[level]

    def parent_of(self, level: int, set_index: int) -> int:
        """Set index at ``level - 1`` that is the parent of ``(level, set_index)``."""
        if level == 0:
            raise ConfigurationError("root nodes have no parent")
        return set_index & (self.set_sizes[level - 1] - 1)

    # -- paper's storage accounting (Section 5) --------------------------------

    def storage_bits(self, tag_bits: int = 32, pointer_bits: int = 32) -> int:
        """Storage required by the tree using the paper's bit budget.

        The paper charges, per node, ``96 + 64 * A`` bits: MRA tag, MRE tag
        and MRE wave pointer (3 x 32) plus ``A`` tag-list entries of
        (tag, wave pointer) = 64 bits each; per level this is
        ``S * (96 + 64 * A)`` bits.
        """
        per_node = 3 * max(tag_bits, pointer_bits) + self.associativity * (tag_bits + pointer_bits)
        return sum(size * per_node for size in self.set_sizes)

    # -- content inspection (used by verification and tests) -------------------

    def _slots(self, field: str) -> int:
        return self.associativity if field in ENTRY_FIELDS else 1

    def _live(self) -> Any:
        """The tree's storage; raises once :meth:`release` gave it away."""
        if self.storage is None:
            raise SimulationError("this tree's storage was released")
        return self.storage

    def _decode(self, field: str, level: int, start: int, stop: int) -> List[int]:
        """Decoded slots ``start:stop`` of one level of one field."""
        storage = self._live()
        if not self.flat:
            return storage[field][level][start:stop]
        slots = self._slots(field)
        first = int(self.level_offsets[level])
        records = storage.array[first + start // slots:first - (-stop // slots)]
        live = (records["epoch"] == storage.epoch)[:, None]
        values = np.where(live, records[field].reshape(records.size, slots), 0).ravel()
        skip = start % slots
        return (values[skip:skip + stop - start] + EMPTY_VALUES[field]).tolist()

    def decoded(self, field: str) -> List[List[int]]:
        """One field's per-level values (``-1`` for invalid or empty): the
        live lists of the list layout, a snapshot of the records."""
        if not self.flat:
            return self._live()[field]
        slots = self._slots(field)
        return [
            self._decode(field, level, 0, size * slots)
            for level, size in enumerate(self.set_sizes)
        ]

    def resident_blocks(self, level: int, set_index: int) -> List[int]:
        """Blocks currently resident in one simulated set (way order)."""
        base = set_index * self.associativity
        ways = self._decode("tags", level, base, base + self.associativity)
        return [tag for tag in ways if tag != INVALID_TAG]

    # -- storage lifecycle -----------------------------------------------------

    @property
    def shape(self) -> Shape:
        """What the storage pool keys this tree's storage by."""
        return self.node_count(), self.associativity

    def _allocate(self) -> None:
        """Empty storage: recycled from the pool when it holds some, else new."""
        if not self.flat:
            self.storage = {
                field: [[empty] * (size * self._slots(field)) for size in self.set_sizes]
                for field, empty in EMPTY_VALUES.items()
            }
            return
        storage = STORAGE_POOL.take(self.shape) if self.recycled else None
        self.storage = storage or Records(
            np.zeros(self.node_count(), dtype=record_dtype(self.associativity))
        )
        self.storage.epoch += 1

    def release(self) -> None:
        """Hand recycled storage back to the pool as it is; the tree then has
        none until :meth:`reset`.  A no-op for a tree that is not recycled."""
        if not (self.recycled and self.storage is not None):
            return
        STORAGE_POOL.put(self.shape, self.storage)
        self.storage = None

    def reset(self) -> None:
        """Return every node to the empty state: a new epoch for records."""
        if self.flat and self.storage is not None:
            self.storage.epoch += 1
        else:
            self._allocate()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DewTree(block_size={self.block_size}, associativity={self.associativity}, "
            f"levels={self.num_levels}, sets={self.set_sizes[0]}..{self.set_sizes[-1]})"
        )
