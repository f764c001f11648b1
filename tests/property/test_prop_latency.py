"""Property-based invariants of the hardware latency/energy model."""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tests.property.budget import prop_settings

from repro.core.representations import RepresentationConfig
from repro.hardware.catalog import DEVICE_CATALOG, IPU_POD16
from repro.hardware.energy import average_power, energy_per_query
from repro.hardware.latency import PriceModel, estimate_breakdown
from repro.models.configs import KAGGLE

devices = st.sampled_from(sorted(DEVICE_CATALOG))
batches = st.integers(min_value=1, max_value=4096)
ks = st.sampled_from([8, 64, 512, 2048])
dnns = st.sampled_from([32, 128, 480])
hs = st.integers(min_value=0, max_value=4)


def rep_strategy():
    return st.one_of(
        st.just(RepresentationConfig("table", 16)),
        st.builds(
            lambda k, dnn, h: RepresentationConfig("dhe", 16, k=k, dnn=dnn, h=h),
            ks, dnns, hs,
        ),
        st.builds(
            lambda k, dnn, h: RepresentationConfig(
                "hybrid", 24, k=k, dnn=dnn, h=h, table_dim=16, dhe_dim=8
            ),
            ks, dnns, hs,
        ),
    )


@prop_settings(60)
@given(rep=rep_strategy(), device=devices, batch=batches)
def test_breakdown_fields_nonnegative_and_finite(rep, device, batch):
    bd = estimate_breakdown(rep, KAGGLE, DEVICE_CATALOG[device], batch)
    for name, value in bd.as_dict().items():
        assert np.isfinite(value), name
        assert value >= 0.0, name
    assert bd.total > 0.0


@prop_settings(40)
@given(rep=rep_strategy(), device=devices, batch=st.integers(1, 2047))
def test_latency_monotone_in_batch(rep, device, batch):
    spec = DEVICE_CATALOG[device]
    small = estimate_breakdown(rep, KAGGLE, spec, batch).total
    large = estimate_breakdown(rep, KAGGLE, spec, batch * 2).total
    assert large >= small * 0.999


@prop_settings(40)
@given(
    rep=rep_strategy(), device=devices, batch=batches,
    hit=st.floats(min_value=0.0, max_value=1.0),
    speedup=st.floats(min_value=1.0, max_value=100.0),
)
def test_cache_shrinks_the_compute_stack(rep, device, batch, hit, speedup):
    """MP-Cache strictly reduces encoder+decoder time; the total may exceed
    the base only by the hit-serving gathers (a cache lookup can cost more
    than computing a trivially small stack — the paper's caches front
    k~2048 stacks where this never happens)."""
    spec = DEVICE_CATALOG[device]
    base = estimate_breakdown(rep, KAGGLE, spec, batch)
    cached = estimate_breakdown(
        rep, KAGGLE, spec, batch, encoder_hit_rate=hit, decoder_speedup=speedup
    )
    assert cached.encoder <= base.encoder * 1.001
    assert cached.decoder <= base.decoder * 1.001
    hit_gather_budget = (cached.embedding - base.embedding) + 1e-12
    assert cached.total <= base.total + max(hit_gather_budget, 0.0) + 1e-12


@prop_settings(40)
@given(rep=rep_strategy(), device=devices, batch=batches)
def test_power_bounded_by_tdp(rep, device, batch):
    spec = DEVICE_CATALOG[device]
    bd = estimate_breakdown(rep, KAGGLE, spec, batch)
    power = average_power(spec, bd)
    assert spec.idle_w <= power <= spec.tdp_w + 1e-9
    assert energy_per_query(spec, bd) > 0


# Every parallelism mode: the catalog's single, replicated and pipeline
# specs, and data and sharded slices of the pod.
PRICED_DEVICES = [DEVICE_CATALOG[name] for name in sorted(DEVICE_CATALOG)] + [
    replace(IPU_POD16, parallelism="data", replicas=1),
    replace(IPU_POD16, parallelism="sharded", replicas=1),
]


def priced_reps():
    """Every representation kind; a select may send all features to DHE,
    which leaves its table zero lookups."""
    return st.one_of(rep_strategy(), st.builds(
        lambda k, dnn, h, n: RepresentationConfig(
            "select", 16, k=k, dnn=dnn, h=h, n_dhe_features=n
        ),
        ks, dnns, hs, st.integers(1, KAGGLE.n_sparse),
    ))


def _edges(price):
    """Batch sizes on both sides of the roofline's two size-dependent
    selects: the small-GEMM step (63 | 64 samples per chip) and the
    encoder activations' SRAM fit (read from the model's chip slice)."""
    splits = price._splits
    edges = [63 * splits, 63 * splits + 1, 64 * splits]
    if price.rep.uses_dhe and price.encoder_hit_rate < 1:
        per_sample = price._dhe_lookups * price._miss * price.rep.k * 4
        fit = int(price._chip.sram_capacity // per_sample)
        edges += [
            (fit + step) * splits + extra
            for step in (-1, 0, 1) for extra in (0, 1)
        ]
    return [size for size in edges if 1 <= size <= 40_000]


@prop_settings(40)
@given(
    rep=priced_reps(), device=st.sampled_from(PRICED_DEVICES),
    hit=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    speedup=st.floats(min_value=1.0, max_value=100.0),
    data=st.data(),
)
def test_array_pricing_equals_scalar(rep, device, hit, speedup, data):
    """The array entries price a column of sizes exactly as the scalar
    entries price each size, and reject a column holding any size that is
    not positive and finite."""
    price = PriceModel(rep, KAGGLE, device, hit, speedup)
    sizes = data.draw(st.lists(
        st.one_of(st.integers(1, 40_000), st.sampled_from(_edges(price))),
        min_size=1, max_size=40,
    ))
    column = np.array(sizes, dtype=np.int64)
    many = price.breakdown_many(column)
    scalar = [price.breakdown(size) for size in sizes]
    for name in [f.name for f in fields(many)] + ["total"]:
        got = np.broadcast_to(getattr(many, name), column.shape)
        expected = np.array([getattr(bd, name) for bd in scalar])
        assert (
            got.astype(np.float64).tobytes()
            == expected.astype(np.float64).tobytes()
        ), name
    power = np.array([price.power(size) for size in sizes])
    assert price.power_many(column).tobytes() == power.tobytes()

    bad = data.draw(st.sampled_from([0, -1, np.nan, np.inf, -np.inf]))
    at = data.draw(st.integers(0, len(sizes)))
    poisoned = np.insert(
        column if isinstance(bad, int) else column * 1.0, at, bad
    )
    for entry in (price.breakdown_many, price.power_many):
        with pytest.raises(ValueError):
            entry(poisoned)
