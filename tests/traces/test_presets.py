"""Cluster preset tests."""

from dataclasses import replace

import pytest

from repro.traces.generator import ClusterTraceGenerator, TraceConfig
from repro.traces.presets import PRESETS


class TestPresets:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_all_presets_valid_configs(self, name):
        cfg = PRESETS[name]()
        assert isinstance(cfg, TraceConfig)  # __post_init__ validated it

    def test_dev_preset_generates_fast(self):
        trace = ClusterTraceGenerator(replace(PRESETS["dev"](), n_steps=300)).generate()
        assert trace.n_machines == 2
        assert trace.n_containers == 4

    def test_high_dynamic_mix_restricted(self):
        cfg = PRESETS["high_dynamic"]()
        assert set(cfg.container_mix) == {"regime_switching", "bursty"}

    def test_paper_like_resolves_diurnal_cycle(self):
        cfg = PRESETS["paper_like"]()
        assert cfg.n_steps >= cfg.diurnal_period
