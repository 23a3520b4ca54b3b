"""The DEW walk as first written, kept as the oracle for the fast walk.

:class:`ReferenceDewWalk` replays block addresses with a linear scan of a
set's ways and updates every work counter at every tree level, exactly as
``DewSimulator.run_blocks`` did before its walk learned to scan a set in one
call and to derive per-level bookkeeping once per chunk.  It owns its own
:class:`~repro.core.tree.DewTree`, so the differential tests can compare
final tree storage as well as results and counters.

(A plain module rather than a conftest attribute, like ``engine_options``.)
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

from repro.core.counters import DewCounters
from repro.core.tree import DewTree
from repro.types import EMPTY_WAVE, INVALID_TAG


class ReferenceDewWalk:
    """Per-level, per-way DEW walk with the simulator's ablation switches."""

    def __init__(
        self,
        block_size: int,
        associativity: int,
        set_sizes: Sequence[int],
        enable_mra: bool = True,
        enable_wave: bool = True,
        enable_mre: bool = True,
    ) -> None:
        self.tree = DewTree(block_size, associativity, set_sizes)
        self.enable_mra = enable_mra
        self.enable_wave = enable_wave
        self.enable_mre = enable_mre
        self.counters = DewCounters()
        self.counters.ensure_levels(self.tree.num_levels)
        self.misses: List[int] = [0] * self.tree.num_levels
        self.dm_misses: List[int] = [0] * self.tree.num_levels
        self.seen_blocks: Set[int] = set()

    @property
    def compulsory(self) -> int:
        """First-touch misses: the number of distinct blocks walked so far."""
        return len(self.seen_blocks)

    def run_blocks(self, blocks: Sequence[int]) -> None:
        """Walk every block top-down through the tree, one request at a time."""
        tree = self.tree
        counters = self.counters
        counters.requests += len(blocks)
        self.seen_blocks.update(blocks)
        associativity = tree.associativity
        misses = self.misses
        dm_misses = self.dm_misses
        enable_mra = self.enable_mra
        enable_wave = self.enable_wave
        enable_mre = self.enable_mre
        per_level = counters.evaluations_per_level
        levels = [
            (
                tree.set_sizes[level] - 1,
                tree.tags[level],
                tree.waves[level],
                tree.mra[level],
                tree.mre_tag[level],
                tree.mre_wave[level],
                tree.fifo_ptr[level],
            )
            for level in range(tree.num_levels)
        ]

        for block in blocks:
            incoming_wave = EMPTY_WAVE
            parent_waves: Optional[List[int]] = None
            parent_entry = -1

            for level, (index_mask, level_tags, level_waves, level_mra,
                        level_mre_tag, level_mre_wave, level_fifo) in enumerate(levels):
                set_index = block & index_mask
                counters.node_evaluations += 1
                per_level[level] += 1

                counters.tag_comparisons += 1
                if level_mra[set_index] == block:
                    if enable_mra:
                        counters.mra_hits += 1
                        break
                    incoming_wave = EMPTY_WAVE
                    parent_waves = None
                    continue

                dm_misses[level] += 1
                base = set_index * associativity
                hit = False
                found_way = -1
                decided = False

                if enable_wave and incoming_wave != EMPTY_WAVE:
                    counters.wave_decisions += 1
                    counters.tag_comparisons += 1
                    if level_tags[base + incoming_wave] == block:
                        hit = True
                        found_way = incoming_wave
                        counters.wave_hits += 1
                    else:
                        counters.wave_misses += 1
                    decided = True

                if not decided and enable_mre:
                    counters.tag_comparisons += 1
                    if level_mre_tag[set_index] == block:
                        counters.mre_decisions += 1
                        decided = True

                if not decided:
                    counters.searches += 1
                    for way in range(associativity):
                        tag = level_tags[base + way]
                        if tag == INVALID_TAG:
                            continue
                        counters.tag_comparisons += 1
                        if tag == block:
                            hit = True
                            found_way = way
                            counters.search_hits += 1
                            break

                if hit:
                    level_mra[set_index] = block
                    if parent_waves is not None:
                        parent_waves[parent_entry] = found_way
                    next_entry = base + found_way
                else:
                    misses[level] += 1
                    level_mra[set_index] = block
                    victim = level_fifo[set_index]
                    victim_slot = base + victim
                    displaced_tag = level_tags[victim_slot]
                    displaced_wave = level_waves[victim_slot]
                    if level_mre_tag[set_index] == block:
                        level_tags[victim_slot] = block
                        level_waves[victim_slot] = level_mre_wave[set_index]
                        level_mre_tag[set_index] = displaced_tag
                        level_mre_wave[set_index] = displaced_wave
                    else:
                        level_tags[victim_slot] = block
                        level_waves[victim_slot] = EMPTY_WAVE
                        if displaced_tag != INVALID_TAG:
                            level_mre_tag[set_index] = displaced_tag
                            level_mre_wave[set_index] = displaced_wave
                    level_fifo[set_index] = (victim + 1) % associativity
                    if parent_waves is not None:
                        parent_waves[parent_entry] = victim
                    next_entry = victim_slot

                incoming_wave = level_waves[next_entry]
                parent_waves = level_waves
                parent_entry = next_entry
