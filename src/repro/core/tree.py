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
* **Flat** (the compiled walk, :mod:`repro.kernels`): one zero-initialised
  int64 array per field covering every level, level ``k`` starting at node
  :attr:`DewTree.level_offsets` ``[k]``.  Each value is stored minus its
  field's empty value, so tags hold ``block + 1`` and wave pointers
  ``way + 1``, and 0 means invalid or empty.  Allocation then needs no fill
  pass: a ``-1`` fill would write every page of trees whose deep levels the
  walk mostly never touches.

Inspection reads both layouts the same way: ``tags``, ``waves``, ``mra``,
``mre_tag``, ``mre_wave``, ``fifo_ptr`` and :meth:`DewTree.resident_blocks`
return decoded per-level values (``-1`` for invalid or empty), decoded in
:meth:`DewTree._decode` alone.  Over the list layout they are the live
lists; over the flat layout they are snapshots.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import CacheConfig
from repro.errors import ConfigurationError
from repro.types import EMPTY_WAVE, INVALID_TAG, ReplacementPolicy, is_power_of_two, log2_exact


def default_paper_set_sizes() -> Tuple[int, ...]:
    """The paper's set-size sweep: ``2^0 .. 2^14``."""
    return tuple(2**i for i in range(0, 15))


#: Each node field's empty value: invalid tags and empty wave pointers are -1.
#: The flat layout stores every value minus its field's empty value.
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
        Lay the storage out for the compiled walk rather than the Python
        walk (see the module docstring); inspection reads either the same.
    """

    def __init__(
        self,
        block_size: int,
        associativity: int,
        set_sizes: Optional[Sequence[int]] = None,
        flat: bool = False,
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

        #: ``True`` for the flat layout the compiled walk uses (see module
        #: docstring); the Python walk uses the list layout.
        self.flat = flat
        sizes_array = np.asarray(sizes, dtype=np.int64)
        #: Per level, the node-index mask and (flat layout) the first node.
        self.index_masks = sizes_array - 1
        self.level_offsets = np.cumsum(sizes_array) - sizes_array
        self.storage: Dict[str, Any] = {}
        self.reset()

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

    def _decode(self, field: str, level: int, start: int, stop: int) -> List[int]:
        """Decoded slots ``start:stop`` of one level of one field."""
        storage = self.storage[field]
        if not self.flat:
            return storage[level][start:stop]
        first = int(self.level_offsets[level]) * self._slots(field)
        return (storage[first + start:first + stop] + EMPTY_VALUES[field]).tolist()

    def decoded(self, field: str) -> List[List[int]]:
        """One field's per-level values (``-1`` for invalid or empty): the
        live lists of the list layout, a snapshot of the flat layout."""
        if not self.flat:
            return self.storage[field]
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

    def reset(self) -> None:
        """Return every node to the empty state."""
        for field, empty in EMPTY_VALUES.items():
            slots = self._slots(field)
            if self.flat:
                self.storage[field] = np.zeros(self.node_count() * slots, dtype=np.int64)
            else:
                self.storage[field] = [[empty] * (size * slots) for size in self.set_sizes]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DewTree(block_size={self.block_size}, associativity={self.associativity}, "
            f"levels={self.num_levels}, sets={self.set_sizes[0]}..{self.set_sizes[-1]})"
        )
