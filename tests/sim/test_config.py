"""Unit tests for machine configuration validation and derivation."""

import pytest

from repro.errors import ConfigError
from repro.sim.config import CONFIG_NAMES, MachineConfig, named_config


class TestDefaultsMatchTable1:
    def test_paper_parameters(self):
        cfg = MachineConfig()
        assert cfg.l1_size_bytes == 32 * 1024
        assert cfg.l1_assoc == 4
        assert cfg.line_bytes == 64
        assert cfg.l1_hit_latency == 3
        assert cfg.l2_size_bytes == 16 * 1024 * 1024
        assert cfg.l2_assoc == 8
        assert cfg.l2_banks == 16
        assert cfg.l2_latency == 12
        assert cfg.mem_latency == 280
        assert cfg.issue_width == 2

    def test_min_glsc_latency(self):
        for width in (1, 4, 16):
            cfg = MachineConfig(simd_width=width)
            assert cfg.min_glsc_latency == 4 + width

    def test_derived_geometry(self):
        cfg = MachineConfig()
        assert cfg.l1_sets == 128          # 32KB / (64B * 4 ways)
        assert cfg.l2_sets == 32768        # 16MB / (64B * 8 ways)
        assert cfg.n_threads == cfg.n_cores * cfg.threads_per_core


class TestValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            dict(n_cores=0),
            dict(threads_per_core=0),
            dict(simd_width=0),
            dict(issue_width=0),
            dict(l1_assoc=3),
            dict(line_bytes=48),
            dict(l1_size_bytes=1000),
            dict(l1_hit_latency=0),
            dict(mem_latency=0),
            dict(glsc_buffer_entries=-1),
            dict(prefetch_degree=0),
        ],
    )
    def test_bad_values_rejected(self, bad):
        with pytest.raises(ConfigError):
            MachineConfig(**bad)

    @pytest.mark.parametrize(
        "bad",
        [dict(l1_size_bytes=3 * 64 * 4), dict(l2_size_bytes=3 * 64 * 8)],
        ids=["l1_sets", "l2_sets"],
    )
    def test_set_count_must_be_a_power_of_two(self, bad):
        # Three sets: a whole number of lines per way, but the caches
        # pick a set by masking, so the config itself must refuse it.
        with pytest.raises(ConfigError, match="sets must be a power of two"):
            MachineConfig(**bad)

    def test_frozen(self):
        cfg = MachineConfig()
        with pytest.raises(Exception):
            cfg.n_cores = 8


class TestHelpers:
    def test_with_topology(self):
        cfg = MachineConfig().with_topology(4, 2, simd_width=16)
        assert (cfg.n_cores, cfg.threads_per_core, cfg.simd_width) == (4, 2, 16)

    def test_with_topology_keeps_width(self):
        cfg = MachineConfig(simd_width=16).with_topology(2, 2)
        assert cfg.simd_width == 16

    def test_describe_includes_table1_fields(self):
        desc = MachineConfig().describe()
        assert desc["mem_latency"] == 280
        assert "32KB" in desc["l1"]
        assert "16MB" in desc["l2"]

    def test_named_configs(self):
        assert CONFIG_NAMES == ("1x1", "1x4", "4x1", "4x4")
        cfg = named_config("1x4", simd_width=1, prefetch_enabled=False)
        assert cfg.threads_per_core == 4
        assert not cfg.prefetch_enabled

    def test_named_config_rejects_garbage(self):
        with pytest.raises(ConfigError):
            named_config("four-by-four")
