"""Tests for repro.core.config (CacheConfig and ConfigSpace)."""

import pytest

from repro.core.config import CacheConfig, ConfigSpace, config_grid
from repro.errors import ConfigurationError
from repro.types import ReplacementPolicy


class TestCacheConfig:
    def test_total_size(self):
        config = CacheConfig(num_sets=128, associativity=4, block_size=32)
        assert config.total_size == 128 * 4 * 32

    def test_bit_widths(self):
        config = CacheConfig(num_sets=64, associativity=2, block_size=16)
        assert config.index_bits == 6
        assert config.offset_bits == 4

    def test_address_decomposition(self):
        config = CacheConfig(num_sets=16, associativity=2, block_size=32)
        address = 0xABCDE
        block = config.block_address(address)
        assert block == address >> 5
        assert config.set_index(address) == block & 0xF
        assert config.tag(address) == block >> 4

    def test_direct_mapped_and_fully_associative_flags(self):
        assert CacheConfig(8, 1, 16).is_direct_mapped
        assert not CacheConfig(8, 2, 16).is_direct_mapped
        assert CacheConfig(1, 8, 16).is_fully_associative
        assert not CacheConfig(2, 8, 16).is_fully_associative

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(num_sets=3, associativity=1, block_size=16)

    def test_rejects_non_power_of_two_block(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(num_sets=4, associativity=1, block_size=24)

    def test_rejects_zero_associativity(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(num_sets=4, associativity=0, block_size=16)

    def test_with_policy(self):
        config = CacheConfig(4, 2, 16)
        lru = config.with_policy("lru")
        assert lru.policy is ReplacementPolicy.LRU
        assert config.policy is ReplacementPolicy.FIFO  # original untouched

    def test_label(self):
        assert CacheConfig(128, 4, 32).label() == "S128-A4-B32-fifo"

    def test_ordering_and_hashing(self):
        a = CacheConfig(4, 2, 16)
        b = CacheConfig(8, 2, 16)
        assert a < b
        assert len({a, b, CacheConfig(4, 2, 16)}) == 2

    def test_policy_name_is_parsed(self):
        config = CacheConfig(4, 2, 4, " LRU ")
        assert config.policy is ReplacementPolicy.LRU
        assert config.label() == "S4-A2-B4-lru"
        assert str(config).endswith(", lru)")
        # It compares, orders and hashes like the enum form.
        enum_form = CacheConfig(4, 2, 4, ReplacementPolicy.LRU)
        assert config == enum_form and hash(config) == hash(enum_form)
        assert CacheConfig(4, 2, 4, "fifo") < config
        with pytest.raises(ConfigurationError, match="unknown replacement policy"):
            CacheConfig(4, 2, 4, "mru")


class TestConfigSpace:
    def test_paper_space_has_525_configurations(self):
        space = ConfigSpace.paper_space()
        assert len(space) == 525
        assert len(space.configs()) == 525

    def test_paper_space_dimensions(self):
        space = ConfigSpace.paper_space()
        assert space.set_sizes == tuple(2**i for i in range(15))
        assert space.block_sizes == tuple(2**i for i in range(7))
        assert space.associativities == tuple(2**i for i in range(5))

    def test_paper_space_capacity_range(self):
        sizes = ConfigSpace.paper_space().total_sizes()
        assert min(sizes) == 1          # 1 set x 1 way x 1 byte
        assert max(sizes) == 16 << 20   # 16 MB

    def test_contains(self):
        space = ConfigSpace.paper_space()
        assert CacheConfig(1024, 4, 32) in space
        assert CacheConfig(1024, 3, 32) not in space
        assert CacheConfig(1024, 4, 32, ReplacementPolicy.LRU) not in space
        assert "not a config" not in space

    def test_dew_runs_cover_non_trivial_associativities(self):
        space = ConfigSpace(set_sizes=[1, 2, 4], associativities=[1, 2, 4], block_sizes=[8, 16])
        runs = space.dew_runs()
        # Direct mapped is folded into the A>1 runs: 2 block sizes x 2 assoc.
        assert len(runs) == 4
        assert all(set_sizes == (1, 2, 4) for _, _, set_sizes in runs)
        assert {assoc for _, assoc, _ in runs} == {2, 4}

    def test_dew_runs_direct_mapped_only_space(self):
        space = ConfigSpace(set_sizes=[1, 2], associativities=[1], block_sizes=[16])
        runs = space.dew_runs()
        assert runs == [(16, 1, (1, 2))]

    def test_filter_by_capacity(self):
        space = ConfigSpace.embedded_space()
        small = space.filter(max_total_size=1024)
        assert small
        assert all(config.total_size <= 1024 for config in small)
        banded = space.filter(min_total_size=512, max_total_size=2048)
        assert all(512 <= config.total_size <= 2048 for config in banded)

    def test_empty_dimension_rejected(self):
        with pytest.raises(ConfigurationError):
            ConfigSpace(set_sizes=[], associativities=[1], block_sizes=[16])

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ConfigurationError):
            ConfigSpace(set_sizes=[3], associativities=[1], block_sizes=[16])

    def test_iteration_policy_propagates(self):
        space = ConfigSpace([1, 2], [1], [16], policy=ReplacementPolicy.LRU)
        assert all(config.policy is ReplacementPolicy.LRU for config in space)

    def test_config_grid_helper(self):
        configs = config_grid([1, 2], [1, 2], [16])
        assert len(configs) == 4
        assert all(isinstance(config, CacheConfig) for config in configs)

    def test_max_set_size(self):
        assert ConfigSpace.paper_space().max_set_size() == 16384
