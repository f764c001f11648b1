import pytest

from repro.core.representations import paper_configs
from repro.hardware.catalog import (
    CPU_BROADWELL,
    GPU_V100,
    IPU_GC200,
    IPU_POD16,
    TPU_V3_CHIP,
)
from repro.hardware.device import GB, MB
from repro.hardware.energy import average_power, energy_per_query, energy_per_sample
from repro.hardware.latency import OperatorBreakdown, estimate_breakdown
from repro.hardware.topology import plan_ipu_placement, scale_out
from repro.models.configs import KAGGLE, TERABYTE


class TestEnergy:
    def test_power_between_idle_and_tdp(self):
        bd = estimate_breakdown(paper_configs(KAGGLE)["table"], KAGGLE, GPU_V100, 512)
        power = average_power(GPU_V100, bd)
        assert GPU_V100.idle_w <= power <= GPU_V100.tdp_w

    def test_zero_time_returns_idle(self):
        assert average_power(GPU_V100, OperatorBreakdown()) == GPU_V100.idle_w

    def test_energy_scales_with_time(self):
        rep = paper_configs(KAGGLE)["table"]
        small = energy_per_query(CPU_BROADWELL, estimate_breakdown(rep, KAGGLE, CPU_BROADWELL, 64))
        large = energy_per_query(CPU_BROADWELL, estimate_breakdown(rep, KAGGLE, CPU_BROADWELL, 4096))
        assert large > small

    def test_per_sample_divides(self):
        rep = paper_configs(KAGGLE)["table"]
        bd = estimate_breakdown(rep, KAGGLE, GPU_V100, 128)
        assert energy_per_sample(GPU_V100, bd, 128) == energy_per_query(GPU_V100, bd) / 128

    def test_per_sample_rejects_zero_batch(self):
        with pytest.raises(ValueError):
            energy_per_sample(GPU_V100, OperatorBreakdown(), 0)

    def test_gpu_beats_tpu_energy_for_tables(self):
        """Paper O3: GPU is the most energy-efficient for large table models."""
        rep = paper_configs(TERABYTE)["table"]
        gpu = energy_per_query(GPU_V100, estimate_breakdown(rep, TERABYTE, GPU_V100, 128))
        tpu = energy_per_query(TPU_V3_CHIP, estimate_breakdown(rep, TERABYTE, TPU_V3_CHIP, 128))
        ipu = energy_per_query(IPU_GC200, estimate_breakdown(rep, TERABYTE, IPU_GC200, 128))
        assert gpu < tpu
        assert gpu < ipu


class TestScaleOut:
    def test_replicated_multiplies_resources(self):
        pod = scale_out(IPU_GC200, 4, "replicated")
        assert pod.peak_flops == 4 * IPU_GC200.peak_flops
        assert pod.n_chips == 4
        assert pod.replicas == 4

    def test_sharded_has_one_replica(self):
        pod = scale_out(IPU_GC200, 8, "sharded")
        assert pod.replicas == 1

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            scale_out(IPU_GC200, 0)
        with pytest.raises(ValueError):
            scale_out(IPU_GC200, 4, "ring")


class TestIpuPlacement:
    def test_small_model_full_data_parallelism(self):
        """DHE (~127 MB) fits per chip -> 16 replicas (paper Fig 6)."""
        placement = plan_ipu_placement(127 * MB, IPU_POD16)
        assert placement.strategy == "data"
        assert placement.replicas == 16
        assert placement.fits_on_chip

    def test_board_scale_model_pipelines(self):
        """Kaggle table (2.16 GB) fits 4-chip SRAM -> pipelined, 4 replicas."""
        placement = plan_ipu_placement(int(2.16e9), IPU_POD16)
        assert placement.strategy == "pipeline"
        assert placement.replicas == 4

    def test_pod_scale_model_shards(self):
        """Terabyte table (12.58 GB) only fits pod SRAM -> sharded, no DP
        (paper Insight 6)."""
        placement = plan_ipu_placement(int(12.58e9), IPU_POD16)
        assert placement.strategy == "sharded"
        assert placement.replicas == 1

    def test_oversized_model_spills(self):
        placement = plan_ipu_placement(50 * GB, IPU_POD16)
        assert placement.strategy == "spill"
        assert placement.spilled_bytes > 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            plan_ipu_placement(-1, IPU_POD16)


class TestClusterLinks:
    def test_catalog_links_resolve(self):
        from repro.hardware.topology import CLUSTER_LINKS, ETHERNET_25G

        assert CLUSTER_LINKS["eth-25g"] is ETHERNET_25G
        assert set(CLUSTER_LINKS) == {"eth-25g", "eth-100g", "rdma-100g"}

    def test_transfer_time_alpha_beta(self):
        from repro.hardware.topology import LinkSpec

        link = LinkSpec(name="test", bandwidth=1e9, latency_s=1e-5)
        assert link.transfer_time(0) == 0.0
        assert link.transfer_time(1e9) == pytest.approx(1.0 + 1e-5)

    def test_link_validation(self):
        from repro.hardware.topology import LinkSpec

        with pytest.raises(ValueError):
            LinkSpec(name="bad", bandwidth=0.0, latency_s=1e-6)
        with pytest.raises(ValueError):
            LinkSpec(name="bad", bandwidth=1e9, latency_s=-1.0)
        with pytest.raises(ValueError, match="bandwidth"):
            LinkSpec(name="bad", bandwidth=float("nan"), latency_s=1e-6)
        with pytest.raises(ValueError, match="latency_s"):
            LinkSpec(name="bad", bandwidth=1e9, latency_s=float("nan"))

    def test_alltoall_degenerate_cases(self):
        from repro.hardware.topology import ETHERNET_100G, alltoall_exchange_time

        assert alltoall_exchange_time(1e6, 1, ETHERNET_100G) == 0.0
        assert alltoall_exchange_time(0, 8, ETHERNET_100G) == 0.0
        with pytest.raises(ValueError):
            alltoall_exchange_time(1e6, 0, ETHERNET_100G)

    def test_alltoall_scales_with_peers_and_bytes(self):
        from repro.hardware.topology import ETHERNET_100G, alltoall_exchange_time

        base = alltoall_exchange_time(1e6, 2, ETHERNET_100G)
        more_peers = alltoall_exchange_time(1e6, 8, ETHERNET_100G)
        more_bytes = alltoall_exchange_time(1e7, 2, ETHERNET_100G)
        assert more_peers > base  # alpha term grows with fan-out
        assert more_bytes > base  # beta term grows with payload
