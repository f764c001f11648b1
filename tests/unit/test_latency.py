import numpy as np
import pytest

from repro.core.representations import RepresentationConfig, paper_configs
from repro.hardware.catalog import (
    CPU_BROADWELL,
    GPU_V100,
    IPU_GC200,
    IPU_POD16,
    TPU_V3_CHIP,
)
from repro.hardware.latency import OperatorBreakdown, estimate_breakdown, path_latency
from repro.models.configs import KAGGLE, TERABYTE

TABLE = RepresentationConfig("table", 16)
DHE = RepresentationConfig("dhe", 16, k=1024, dnn=128, h=2)
HYBRID = RepresentationConfig("hybrid", 24, k=1024, dnn=128, h=2, table_dim=16, dhe_dim=8)
SELECT = RepresentationConfig("select", 16, k=1024, dnn=128, h=2, n_dhe_features=3)


class TestBreakdownStructure:
    def test_total_sums_fields(self):
        bd = OperatorBreakdown(host=1, transfer=2, decoder=3)
        assert bd.total == 6

    def test_embedding_access_grouping(self):
        bd = OperatorBreakdown(embedding=1, encoder=2, decoder=3, top_mlp=9)
        assert bd.embedding_access == 6

    def test_scaled(self):
        bd = OperatorBreakdown(host=2.0).scaled(0.5)
        assert bd.host == 1.0

    def test_as_dict_covers_operators(self):
        keys = set(OperatorBreakdown().as_dict())
        assert {"embedding", "encoder", "decoder", "launch", "comm"} <= keys


class TestOperatorAttribution:
    def test_table_has_no_dhe_ops(self):
        bd = estimate_breakdown(TABLE, KAGGLE, CPU_BROADWELL, 128)
        assert bd.encoder == 0 and bd.decoder == 0
        assert bd.embedding > 0

    def test_dhe_has_no_table_gather(self):
        bd = estimate_breakdown(DHE, KAGGLE, CPU_BROADWELL, 128)
        assert bd.embedding == 0
        assert bd.encoder > 0 and bd.decoder > 0

    def test_hybrid_has_both(self):
        bd = estimate_breakdown(HYBRID, KAGGLE, CPU_BROADWELL, 128)
        assert bd.embedding > 0 and bd.decoder > 0

    def test_cpu_has_no_transfer(self):
        assert estimate_breakdown(TABLE, KAGGLE, CPU_BROADWELL, 128).transfer == 0

    def test_gpu_has_transfer_and_launch(self):
        bd = estimate_breakdown(TABLE, KAGGLE, GPU_V100, 128)
        assert bd.transfer > 0
        assert bd.launch == GPU_V100.launch_overhead_s


class TestMonotonicity:
    @pytest.mark.parametrize("rep", [TABLE, DHE, HYBRID, SELECT])
    @pytest.mark.parametrize("device", [CPU_BROADWELL, GPU_V100, TPU_V3_CHIP])
    def test_latency_nondecreasing_in_batch(self, rep, device):
        sizes = [1, 8, 64, 512, 4096]
        lats = [path_latency(rep, KAGGLE, device, n) for n in sizes]
        assert all(b >= a * 0.999 for a, b in zip(lats, lats[1:]))

    def test_rejects_bad_batch(self):
        with pytest.raises(ValueError):
            estimate_breakdown(TABLE, KAGGLE, CPU_BROADWELL, 0)

    def test_rejects_bad_cache_params(self):
        with pytest.raises(ValueError):
            estimate_breakdown(DHE, KAGGLE, CPU_BROADWELL, 8, encoder_hit_rate=1.5)
        with pytest.raises(ValueError):
            estimate_breakdown(DHE, KAGGLE, CPU_BROADWELL, 8, decoder_speedup=0.5)

    def test_rejects_nan_decoder_speedup(self):
        with pytest.raises(ValueError, match="decoder_speedup"):
            estimate_breakdown(DHE, KAGGLE, GPU_V100, 128, 0.5, float("nan"))


class TestCacheEffects:
    def test_encoder_hits_reduce_latency(self):
        slow = path_latency(DHE, KAGGLE, CPU_BROADWELL, 256)
        fast = path_latency(DHE, KAGGLE, CPU_BROADWELL, 256, encoder_hit_rate=0.9)
        assert fast < slow

    def test_full_hit_rate_eliminates_stack(self):
        bd = estimate_breakdown(DHE, KAGGLE, CPU_BROADWELL, 256, encoder_hit_rate=1.0)
        assert bd.encoder == 0 and bd.decoder == 0

    def test_decoder_speedup_divides_decoder(self):
        base = estimate_breakdown(DHE, KAGGLE, CPU_BROADWELL, 256)
        sped = estimate_breakdown(DHE, KAGGLE, CPU_BROADWELL, 256, decoder_speedup=4.0)
        np.testing.assert_allclose(sped.decoder, base.decoder / 4.0)

    def test_cache_does_not_affect_table(self):
        base = path_latency(TABLE, KAGGLE, CPU_BROADWELL, 256)
        cached = path_latency(
            TABLE, KAGGLE, CPU_BROADWELL, 256, encoder_hit_rate=0.9,
            decoder_speedup=4.0,
        )
        assert base == cached


class TestPaperShapes:
    def test_fig5_cpu_slowdowns(self):
        """DHE ~10.5x, select ~2.1x, hybrid ~11.2x slower than table on CPU."""
        base = path_latency(TABLE, KAGGLE, CPU_BROADWELL, 2048)
        assert 6 < path_latency(DHE, KAGGLE, CPU_BROADWELL, 2048) / base < 16
        assert 1.3 < path_latency(SELECT, KAGGLE, CPU_BROADWELL, 2048) / base < 3.5
        hybrid_ratio = path_latency(HYBRID, KAGGLE, CPU_BROADWELL, 2048) / base
        assert 6 < hybrid_ratio < 17
        assert hybrid_ratio >= path_latency(DHE, KAGGLE, CPU_BROADWELL, 2048) / base

    def test_fig5_gpu_less_slowdown_than_cpu(self):
        """DHE suffers less on GPU than CPU (massively parallel hashing)."""
        cpu_ratio = path_latency(DHE, KAGGLE, CPU_BROADWELL, 2048) / path_latency(
            TABLE, KAGGLE, CPU_BROADWELL, 2048
        )
        gpu_ratio = path_latency(DHE, KAGGLE, GPU_V100, 2048) / path_latency(
            TABLE, KAGGLE, GPU_V100, 2048
        )
        assert gpu_ratio < cpu_ratio

    def test_ipu_sram_residency_cliff(self):
        """O2: the same table model is dramatically slower once it spills out
        of the scratchpad onto Streaming Memory."""
        from dataclasses import replace

        table_big = paper_configs(KAGGLE)["table"]  # 2.16 GB
        spills = estimate_breakdown(table_big, KAGGLE, IPU_GC200, 256)
        roomy = replace(IPU_GC200, sram_capacity=4 * 1024**3)
        resident = estimate_breakdown(table_big, KAGGLE, roomy, 256)
        assert spills.embedding > 50 * resident.embedding

    def test_tpu_embedding_pipelining_helps(self):
        from dataclasses import replace

        plain = replace(TPU_V3_CHIP, embedding_pipelining=False)
        with_pipe = estimate_breakdown(TABLE, TERABYTE, TPU_V3_CHIP, 2048)
        without = estimate_breakdown(TABLE, TERABYTE, plain, 2048)
        assert with_pipe.embedding < without.embedding

    def test_sharded_pays_communication(self):
        from dataclasses import replace

        sharded = replace(IPU_POD16, parallelism="sharded", replicas=1)
        bd = estimate_breakdown(TABLE, TERABYTE, sharded, 1024)
        assert bd.comm > 0

    def test_replicated_latency_single_chip(self):
        """A replicated pod's per-query latency matches one chip's."""
        from dataclasses import replace

        chip_like = estimate_breakdown(
            paper_configs(KAGGLE)["dhe"], KAGGLE, IPU_GC200, 128
        )
        pod = estimate_breakdown(
            paper_configs(KAGGLE)["dhe"], KAGGLE, IPU_POD16, 128
        )
        # Same order of magnitude (pod replica == one GC200 chip).
        assert 0.5 < pod.total / chip_like.total < 2.0
