import pytest

from repro.core.mp_cache import CacheEffect
from repro.core.representations import paper_configs
from repro.data.zipf import ZipfSampler
from repro.experiments.setup import (
    HW1,
    HW2,
    build_plan,
    build_regions,
    build_schedulers,
    build_switching,
    dataset_for,
    default_cache_effect,
    hw1_devices,
    hw2_devices,
)
from repro.hardware.device import GB, MB
from repro.models.configs import KAGGLE, KAGGLE_MINI, TERABYTE


class TestDesignPoints:
    def test_hw1_budgets(self):
        cpu, gpu = hw1_devices()
        assert cpu.dram_capacity == 32 * GB
        assert gpu.dram_capacity == 32 * GB

    def test_hw2_budgets(self):
        cpu, gpu = hw2_devices()
        assert cpu.dram_capacity == 1 * GB
        assert gpu.dram_capacity == 200 * MB

    def test_config_names(self):
        assert HW1.name == "HW-1" and HW2.name == "HW-2"


class TestDatasetFor:
    def test_known(self):
        assert dataset_for(KAGGLE) == "kaggle"
        assert dataset_for(TERABYTE) == "terabyte"
        assert dataset_for(KAGGLE_MINI) == "kaggle"

    def test_unknown_maps_to_internal(self):
        from repro.data.internal_like import INTERNAL_LIKE

        assert dataset_for(INTERNAL_LIKE) == "internal"


class TestCacheEffect:
    def test_effect_is_valid_and_meaningful(self):
        rep = paper_configs(KAGGLE)["dhe"]
        effect = default_cache_effect(KAGGLE, rep)
        assert isinstance(effect, CacheEffect)
        assert 0.3 < effect.encoder_hit_rate < 1.0
        assert effect.decoder_speedup > 1.5

    def test_bigger_cache_higher_hit_rate(self):
        rep = paper_configs(KAGGLE)["dhe"]
        small = default_cache_effect(KAGGLE, rep, capacity_bytes=2 * 1024)
        large = default_cache_effect(KAGGLE, rep, capacity_bytes=2 * MB)
        assert large.encoder_hit_rate > small.encoder_hit_rate


class TestBuildSchedulers:
    def test_hw1_has_all_contenders(self):
        schedulers = build_schedulers(KAGGLE)
        expected = {
            "table-cpu", "table-gpu", "dhe-cpu", "dhe-gpu", "hybrid-cpu",
            "hybrid-gpu", "table-switch", "mp-rec",
        }
        assert expected <= set(schedulers)

    def test_hw2_drops_oversized_statics(self):
        schedulers = build_schedulers(KAGGLE, hw2_devices())
        assert "table-gpu" not in schedulers  # 2.16 GB > 200 MB
        assert "hybrid-gpu" not in schedulers
        assert "mp-rec" in schedulers

    def test_plan_reused_by_mp_rec(self):
        plan = build_plan(KAGGLE)
        schedulers = build_schedulers(KAGGLE)
        mp = schedulers["mp-rec"]
        assert len(mp.paths) == sum(len(reps) for reps in plan.mappings.values())


class TestSetupCost:
    """Set-up prices MP-Cache analytically and builds schedulers once."""

    @pytest.fixture
    def no_samplers(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("set-up built a ZipfSampler")

        monkeypatch.setattr(ZipfSampler, "__init__", refuse)

    def test_builders_construct_no_sampler(self, no_samplers):
        mp = build_schedulers(KAGGLE)["mp-rec"]
        assert any(path.encoder_hit_rate > 0 for path in mp.paths)
        build_switching(KAGGLE)
        build_regions(KAGGLE, 3, nodes_per_region=2, cache_bytes=1 << 20)

    def test_region_members_share_one_scheduler(self, no_samplers):
        sim = build_regions(KAGGLE, 3, nodes_per_region=2)
        schedulers = {
            id(sched) for _, cluster in sim.regions
            for sched in cluster.schedulers
        }
        assert len(schedulers) == 1

    def test_distinct_reps_priced_as_default_cache_effect(self):
        for path in build_schedulers(KAGGLE)["mp-rec"].paths:
            if path.rep.uses_dhe:
                effect = default_cache_effect(KAGGLE, path.rep)
                assert path.encoder_hit_rate == effect.encoder_hit_rate
                assert path.decoder_speedup == effect.decoder_speedup
