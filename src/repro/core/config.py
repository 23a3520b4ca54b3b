"""Cache configurations and configuration spaces.

A cache configuration is the triple ``(set size S, associativity A, block
size B)`` together with a replacement policy.  The paper explores the grid of
Table 1: ``S = 2^0 .. 2^14``, ``B = 2^0 .. 2^6`` bytes and ``A = 2^0 .. 2^4``,
for a total of 525 configurations; :meth:`ConfigSpace.paper_space` recreates
exactly that grid.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.types import ReplacementPolicy, is_power_of_two, log2_exact


@dataclass(frozen=True, order=True)
class CacheConfig:
    """A single level-1 cache configuration.

    Parameters
    ----------
    num_sets:
        Number of sets ``S`` (power of two).
    associativity:
        Number of ways ``A`` per set (power of two in the paper's grid, but
        any positive integer is accepted).
    block_size:
        Block (line) size ``B`` in bytes (power of two).
    policy:
        Replacement policy, or its name (parsed with
        :meth:`ReplacementPolicy.parse`); DEW itself only produces exact
        results for FIFO, the reference simulator supports the full set.
    """

    num_sets: int
    associativity: int
    block_size: int
    policy: ReplacementPolicy = ReplacementPolicy.FIFO

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "policy", ReplacementPolicy.parse(self.policy))
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from None
        if not is_power_of_two(self.num_sets):
            raise ConfigurationError(f"number of sets must be a power of two, got {self.num_sets}")
        if self.associativity < 1:
            raise ConfigurationError(f"associativity must be >= 1, got {self.associativity}")
        if not is_power_of_two(self.block_size):
            raise ConfigurationError(f"block size must be a power of two, got {self.block_size}")

    # -- derived quantities ---------------------------------------------------

    @property
    def total_size(self) -> int:
        """Total capacity in bytes: ``T = S * A * B``."""
        return self.num_sets * self.associativity * self.block_size

    @property
    def offset_bits(self) -> int:
        """Number of block-offset bits, ``log2(B)``."""
        return log2_exact(self.block_size)

    @property
    def index_bits(self) -> int:
        """Number of set-index bits, ``log2(S)``."""
        return log2_exact(self.num_sets)

    @property
    def is_direct_mapped(self) -> bool:
        """True when the cache has a single way per set."""
        return self.associativity == 1

    @property
    def is_fully_associative(self) -> bool:
        """True when the cache has a single set."""
        return self.num_sets == 1

    # -- address decomposition ------------------------------------------------

    def block_address(self, address: int) -> int:
        """Return the block address of a byte address."""
        return address >> self.offset_bits

    def set_index(self, address: int) -> int:
        """Return the set index a byte address maps to."""
        return self.block_address(address) & (self.num_sets - 1)

    def tag(self, address: int) -> int:
        """Return the conventional tag (block address without index bits)."""
        return self.block_address(address) >> self.index_bits

    # -- convenience ----------------------------------------------------------

    def with_policy(self, policy: ReplacementPolicy) -> "CacheConfig":
        """Return a copy of this configuration under a different policy."""
        return replace(self, policy=ReplacementPolicy.parse(policy))

    def label(self) -> str:
        """Short human-readable label, e.g. ``S128-A4-B32-fifo``."""
        return f"S{self.num_sets}-A{self.associativity}-B{self.block_size}-{self.policy.value}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CacheConfig({self.num_sets} sets x {self.associativity} ways x "
            f"{self.block_size} B = {self.total_size} B, {self.policy.value})"
        )


class ConfigSpace:
    """A rectangular grid of cache configurations sharing one policy.

    The space is the cartesian product of the given set sizes, associativities
    and block sizes.  DEW simulates one ``(A, B)`` pair per tree, sweeping all
    set sizes in a single pass, so the space also knows how to group itself
    into DEW "runs" via :meth:`dew_runs`.
    """

    def __init__(
        self,
        set_sizes: Sequence[int],
        associativities: Sequence[int],
        block_sizes: Sequence[int],
        policy: ReplacementPolicy = ReplacementPolicy.FIFO,
    ) -> None:
        if not set_sizes or not associativities or not block_sizes:
            raise ConfigurationError("configuration space dimensions must be non-empty")
        self.set_sizes: Tuple[int, ...] = tuple(sorted(set(int(s) for s in set_sizes)))
        self.associativities: Tuple[int, ...] = tuple(sorted(set(int(a) for a in associativities)))
        self.block_sizes: Tuple[int, ...] = tuple(sorted(set(int(b) for b in block_sizes)))
        self.policy = ReplacementPolicy.parse(policy)
        for value in self.set_sizes:
            if not is_power_of_two(value):
                raise ConfigurationError(f"set size {value} is not a power of two")
        for value in self.block_sizes:
            if not is_power_of_two(value):
                raise ConfigurationError(f"block size {value} is not a power of two")
        for value in self.associativities:
            if value < 1:
                raise ConfigurationError(f"associativity {value} is not positive")

    # -- construction ---------------------------------------------------------

    @classmethod
    def paper_space(cls, policy: ReplacementPolicy = ReplacementPolicy.FIFO) -> "ConfigSpace":
        """The 525-configuration grid of Table 1.

        ``S = 2^0..2^14``, ``B = 2^0..2^6`` bytes, ``A = 2^0..2^4``.
        """
        return cls(
            set_sizes=[2**i for i in range(0, 15)],
            associativities=[2**i for i in range(0, 5)],
            block_sizes=[2**i for i in range(0, 7)],
            policy=policy,
        )

    @classmethod
    def embedded_space(cls, policy: ReplacementPolicy = ReplacementPolicy.FIFO) -> "ConfigSpace":
        """A smaller, practical embedded-L1 grid (useful for examples/tests)."""
        return cls(
            set_sizes=[2**i for i in range(0, 11)],
            associativities=[1, 2, 4, 8],
            block_sizes=[8, 16, 32, 64],
            policy=policy,
        )

    # -- protocol -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.set_sizes) * len(self.associativities) * len(self.block_sizes)

    def __iter__(self) -> Iterator[CacheConfig]:
        for block_size, associativity, num_sets in itertools.product(
            self.block_sizes, self.associativities, self.set_sizes
        ):
            yield CacheConfig(num_sets, associativity, block_size, self.policy)

    def __contains__(self, config: object) -> bool:
        if not isinstance(config, CacheConfig):
            return False
        return (
            config.num_sets in self.set_sizes
            and config.associativity in self.associativities
            and config.block_size in self.block_sizes
            and config.policy == self.policy
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ConfigSpace({len(self.set_sizes)} set sizes x "
            f"{len(self.associativities)} associativities x "
            f"{len(self.block_sizes)} block sizes = {len(self)} configs, {self.policy.value})"
        )

    # -- grouping -------------------------------------------------------------

    def configs(self) -> List[CacheConfig]:
        """All configurations as a list (iteration order: B, then A, then S)."""
        return list(self)

    def max_set_size(self) -> int:
        """Largest number of sets in the space."""
        return self.set_sizes[-1]

    def dew_runs(self) -> List[Tuple[int, int, Tuple[int, ...]]]:
        """Group the space into DEW runs.

        Returns a list of ``(block_size, associativity, set_sizes)`` triples,
        one per DEW tree.  Because a DEW run for associativity ``A > 1`` also
        produces the direct-mapped results, associativity 1 is folded into
        the smallest larger associativity when one exists.
        """
        runs: List[Tuple[int, int, Tuple[int, ...]]] = []
        non_trivial = [a for a in self.associativities if a > 1]
        keep_explicit_dm = not non_trivial
        for block_size in self.block_sizes:
            assoc_list = list(non_trivial) if not keep_explicit_dm else [1]
            for associativity in assoc_list:
                runs.append((block_size, associativity, self.set_sizes))
        return runs

    def filter(
        self,
        max_total_size: Optional[int] = None,
        min_total_size: Optional[int] = None,
    ) -> List[CacheConfig]:
        """Configurations whose total capacity lies within the given bounds."""
        selected = []
        for config in self:
            if max_total_size is not None and config.total_size > max_total_size:
                continue
            if min_total_size is not None and config.total_size < min_total_size:
                continue
            selected.append(config)
        return selected

    def total_sizes(self) -> List[int]:
        """Sorted list of distinct total capacities in the space."""
        return sorted({config.total_size for config in self})


def config_grid(
    set_sizes: Iterable[int],
    associativities: Iterable[int],
    block_sizes: Iterable[int],
    policy: ReplacementPolicy = ReplacementPolicy.FIFO,
) -> List[CacheConfig]:
    """Convenience wrapper building a list of configurations directly."""
    return ConfigSpace(list(set_sizes), list(associativities), list(block_sizes), policy).configs()


def doubling_set_sizes(max_sets: int) -> List[int]:
    """The power-of-two set-size ladder ``1, 2, 4, ... <= max_sets``."""
    sizes = []
    size = 1
    while size <= int(max_sets):
        sizes.append(size)
        size *= 2
    return sizes
