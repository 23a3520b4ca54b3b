"""A single cache set with a pluggable replacement policy.

:class:`CacheSet` is the building block of the reference simulator.  It
stores *block addresses* rather than conventional tags so that its contents
can be compared directly against DEW's tree nodes during verification (both
identify a block by ``address >> log2(block_size)``).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cache.policies import ReplacementPolicyModel
from repro.types import INVALID_TAG


class CacheSet:
    """One set of a set-associative cache.

    Parameters
    ----------
    associativity:
        Number of ways in the set.
    policy:
        A freshly constructed :class:`ReplacementPolicyModel` owned by this
        set.

    Writes allocate and mark their way dirty (write-back); after a miss,
    :attr:`evicted_dirty` says whether the block it displaced was dirty,
    i.e. whether the miss caused a writeback.
    """

    __slots__ = ("associativity", "policy", "tags", "dirty", "evicted_dirty", "_comparisons")

    def __init__(self, associativity: int, policy: ReplacementPolicyModel) -> None:
        self.associativity = associativity
        self.policy = policy
        self.tags: List[int] = [INVALID_TAG] * associativity
        self.dirty: List[bool] = [False] * associativity
        self.evicted_dirty = False
        self._comparisons = 0

    # -- queries --------------------------------------------------------------

    @property
    def comparisons(self) -> int:
        """Tag comparisons performed by this set so far."""
        return self._comparisons

    def occupied(self) -> List[bool]:
        """Per-way occupancy flags."""
        return [tag != INVALID_TAG for tag in self.tags]

    def resident_blocks(self) -> List[int]:
        """Block addresses currently stored (order is way order)."""
        return [tag for tag in self.tags if tag != INVALID_TAG]

    def lookup(self, block: int) -> Optional[int]:
        """Search the set for ``block``; return the way index or ``None``.

        Every examined valid way counts as one tag comparison, mirroring how
        a one-configuration simulator such as Dinero IV must probe each way
        of the indexed set.
        """
        for way, tag in enumerate(self.tags):
            if tag == INVALID_TAG:
                continue
            self._comparisons += 1
            if tag == block:
                return way
        return None

    # -- state changes --------------------------------------------------------

    def access(self, block: int, is_write: bool = False) -> Tuple[bool, Optional[int]]:
        """Perform one access for ``block``.

        Returns ``(hit, evicted_block)`` where ``evicted_block`` is the block
        address displaced by a miss (``None`` when an empty way was filled or
        the access hit).
        """
        way = self.lookup(block)
        if way is not None:
            self.policy.note_hit(way)
            if is_write:
                self.dirty[way] = True
            return True, None
        victim = self.policy.choose_victim(self.occupied())
        evicted = self.tags[victim]
        self.evicted_dirty = self.dirty[victim]
        self.tags[victim] = block
        self.dirty[victim] = is_write
        self.policy.note_insert(victim)
        return False, (evicted if evicted != INVALID_TAG else None)

    def reset(self) -> None:
        """Empty the set and reset the policy and counters."""
        self.tags = [INVALID_TAG] * self.associativity
        self.dirty = [False] * self.associativity
        self.evicted_dirty = False
        self.policy.reset()
        self._comparisons = 0
