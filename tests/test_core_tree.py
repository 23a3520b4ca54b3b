"""Tests for the DEW simulation tree structure."""

import pytest

from repro import kernels
from repro.core.tree import STORAGE_POOL, DewTree, default_paper_set_sizes, record_dtype
from repro.errors import ConfigurationError, SimulationError
from repro.types import EMPTY_WAVE, INVALID_TAG


class TestDewTreeConstruction:
    def test_flat_layout_needs_no_kernel(self, monkeypatch):
        # The record layout is plain numpy: a host with no compiler
        # (CC=false) builds, inspects, resets and recycles it all the same.
        monkeypatch.setenv("CC", "false")
        monkeypatch.setattr(kernels, "_LOADER", kernels.KernelLoader())
        assert kernels.load("dew").name == "python (no compiler: false --version failed)"
        tree = DewTree(4, 2, set_sizes=(1, 2), flat=True, recycled=True)
        assert tree.storage.array.shape == (3,) and tree.storage.array.dtype == record_dtype(2)
        assert tree.storage.epoch == 1
        assert tree.tags == [[INVALID_TAG] * 2, [INVALID_TAG] * 4]
        assert tree.waves == [[EMPTY_WAVE] * 2, [EMPTY_WAVE] * 4]
        for field in ("mra", "mre_tag", "mre_wave"):
            assert tree.decoded(field) == [[-1], [-1, -1]], field
        assert tree.fifo_ptr == [[0], [0, 0]]
        assert tree.resident_blocks(1, 1) == []
        tree.reset()
        assert tree.storage.epoch == 2
        tree.release()
        STORAGE_POOL.clear()
        assert tree.storage is None
        with pytest.raises(SimulationError, match="released"):
            tree.mra

    def test_record_layout_is_the_kernel_header_then_the_entries(self):
        # kernels/dew.c reads the header as its node_t (two int64 tags, two
        # int32 pointers, an int64 epoch) and takes the record size from the
        # dtype: 4 + A + ceil(A / 2) words, 224 B at A 16.
        for associativity in (1, 2, 3, 16):
            dtype = record_dtype(associativity)
            offsets = {name: dtype.fields[name][1] for name in dtype.names}
            assert offsets == {
                "mra": 0, "mre_tag": 8, "mre_wave": 16, "fifo_ptr": 20, "epoch": 24,
                "tags": 32, "waves": 32 + 8 * associativity,
            }
            assert dtype.itemsize == 8 * (4 + associativity + (associativity + 1) // 2)
        assert record_dtype(16).itemsize == 224

    def test_default_levels_match_paper(self):
        tree = DewTree(block_size=4, associativity=4)
        assert tree.num_levels == 15
        assert tree.set_sizes == default_paper_set_sizes()
        assert tree.set_sizes[-1] == 16384

    def test_storage_sized_per_level(self):
        tree = DewTree(block_size=16, associativity=2, set_sizes=(1, 2, 4))
        assert [len(level) for level in tree.tags] == [2, 4, 8]
        assert [len(level) for level in tree.mra] == [1, 2, 4]
        assert all(tag == INVALID_TAG for level in tree.tags for tag in level)
        assert all(wave == EMPTY_WAVE for level in tree.waves for wave in level)

    def test_rejects_bad_block_size(self):
        with pytest.raises(ConfigurationError):
            DewTree(block_size=12, associativity=2)

    def test_rejects_bad_associativity(self):
        with pytest.raises(ConfigurationError):
            DewTree(block_size=4, associativity=0)

    def test_rejects_non_doubling_set_sizes(self):
        with pytest.raises(ConfigurationError):
            DewTree(block_size=4, associativity=2, set_sizes=(1, 4))

    def test_rejects_empty_set_sizes(self):
        with pytest.raises(ConfigurationError):
            DewTree(block_size=4, associativity=2, set_sizes=())


class TestDewTreeStructure:
    def test_children_and_parent(self):
        tree = DewTree(4, 1, set_sizes=(1, 2, 4, 8))
        assert tree.children_of(0, 0) == (0, 1)
        assert tree.children_of(1, 1) == (1, 3)
        assert tree.children_of(2, 3) == (3, 7)
        assert tree.parent_of(2, 3) == 1
        assert tree.parent_of(1, 1) == 0

    def test_children_parent_round_trip(self):
        tree = DewTree(4, 1, set_sizes=(1, 2, 4, 8, 16))
        for level in range(tree.num_levels - 1):
            for set_index in range(tree.set_sizes[level]):
                for child in tree.children_of(level, set_index):
                    assert tree.parent_of(level + 1, child) == set_index

    def test_leaf_has_no_children(self):
        tree = DewTree(4, 1, set_sizes=(1, 2))
        with pytest.raises(ConfigurationError):
            tree.children_of(1, 0)

    def test_root_has_no_parent(self):
        tree = DewTree(4, 1, set_sizes=(1, 2))
        with pytest.raises(ConfigurationError):
            tree.parent_of(0, 0)

    def test_node_count(self):
        tree = DewTree(4, 1, set_sizes=(1, 2, 4, 8))
        assert tree.node_count() == 15

    def test_level_of_and_config_at(self):
        tree = DewTree(32, 4, set_sizes=(1, 2, 4))
        assert tree.level_of(4) == 2
        config = tree.config_at(2)
        assert config.num_sets == 4
        assert config.associativity == 4
        assert config.block_size == 32
        direct = tree.config_at(2, associativity=1)
        assert direct.associativity == 1
        with pytest.raises(ConfigurationError):
            tree.level_of(64)

    def test_configs_include_direct_mapped(self):
        tree = DewTree(16, 4, set_sizes=(1, 2))
        configs = tree.configs()
        assert len(configs) == 4
        assert len([config for config in configs if config.associativity == 1]) == 2
        only_assoc = tree.configs(include_direct_mapped=False)
        assert len(only_assoc) == 2

    def test_direct_mapped_tree_has_no_duplicate_configs(self):
        tree = DewTree(16, 1, set_sizes=(1, 2))
        assert len(tree.configs()) == 2


class TestDewTreeAccounting:
    def test_storage_bits_formula(self):
        # Paper, Section 5: per node (96 + 64*A) bits, per level S*(96 + 64*A).
        tree = DewTree(4, 4, set_sizes=(1, 2, 4))
        per_node = 96 + 64 * 4
        assert tree.storage_bits() == per_node * (1 + 2 + 4)

    def test_resident_blocks_initially_empty(self):
        tree = DewTree(4, 2, set_sizes=(1, 2))
        assert tree.resident_blocks(0, 0) == []

    def test_reset_clears_state(self):
        tree = DewTree(4, 2, set_sizes=(1, 2))
        tree.tags[0][0] = 42
        tree.mra[1][1] = 7
        tree.fifo_ptr[0][0] = 1
        tree.reset()
        assert tree.tags[0][0] == INVALID_TAG
        assert tree.mra[1][1] == INVALID_TAG
        assert tree.fifo_ptr[0][0] == 0
