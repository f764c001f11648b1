"""Pinned roofline: every operator component and the average power, bit
for bit.

Each line holds one (model, representation, device, cache effect, size)
case: the ten :class:`~repro.hardware.latency.OperatorBreakdown`
components in field order and the O3 average power, all in exact
``repr`` form. One :class:`~repro.hardware.latency.PriceModel` per
(model, representation, device, cache effect) prices every size, as the
serving engines use it.

The cases cover every representation kind on both models, all five
parallelism modes, the IPU's SRAM-fit and spill branches, TPU embedding
pipelining, sizes on both sides of the small-GEMM step (``batch < 64``)
and the production-day batch sizes, with the MP-Cache effect off and
on.  Any change to a roofline formula, or to the order its terms are
added in, shows up as a reviewable diff of the golden file; regenerate
it with ``make roofline-golden`` (which runs this file as a script)
after an intended change. The array entries
(``breakdown_many``, ``power_many``) must render the same text, one call
per case over all sizes, so the file pins both forms.
"""

from __future__ import annotations

import pathlib
from dataclasses import fields, replace

import numpy as np

from repro.core.representations import paper_configs
from repro.hardware.catalog import (
    CPU_BROADWELL,
    GPU_V100,
    IPU_GC200,
    IPU_M2000,
    IPU_POD16,
    TPU_V3_BOARD,
    TPU_V3_CHIP,
    TPU_V3_CORE,
)
from repro.hardware.latency import OperatorBreakdown, PriceModel
from repro.models.configs import KAGGLE, TERABYTE

GOLDEN = pathlib.Path(__file__).with_name("golden") / "roofline.txt"

MODELS = (KAGGLE, TERABYTE)
KINDS = ("table", "dhe", "select", "hybrid")
DEVICES = (
    CPU_BROADWELL,
    GPU_V100,
    TPU_V3_CORE,
    TPU_V3_CHIP,
    TPU_V3_BOARD,  # replicated
    IPU_GC200,
    IPU_M2000,  # pipeline: the KAGGLE tables fit its aggregate SRAM
    IPU_POD16,  # replicated: one chip's SRAM, so the tables spill
    replace(IPU_POD16, parallelism="data", replicas=1),
    replace(IPU_POD16, parallelism="sharded", replicas=1),
)
# 1 and 63 run the small-GEMM derating, 64 does not; 11875 and 26502 are
# the production day's mean and largest batch.
SIZES = (1, 63, 64, 4096, 11875, 26502)
# (encoder_hit_rate, decoder_speedup): off, and an MP-Cache effect.
CACHE_EFFECTS = ((0.0, 1.0), (0.83, 2.33))

COLUMNS = [f.name for f in fields(OperatorBreakdown)] + ["power"]
HEADER = "# model rep device/parallelism hit speedup size: " + " ".join(COLUMNS)


def cases():
    """Every (model, representation, device, cache effect) combination;
    the cache effect only varies for representations that run DHE."""
    for model in MODELS:
        configs = paper_configs(model)
        for kind in KINDS:
            rep = configs[kind]
            effects = CACHE_EFFECTS if rep.uses_dhe else CACHE_EFFECTS[:1]
            for device in DEVICES:
                for effect in effects:
                    yield model, rep, device, effect


def _line(model, rep, device, hit, speedup, size, values) -> str:
    return (
        f"{model.name} {rep.label} {device.name}/{device.parallelism} "
        f"{hit!r} {speedup!r} {size}: " + " ".join(repr(v) for v in values)
    )


def render() -> str:
    """The golden file's full text: one header, then one line per size."""
    lines = [HEADER]
    for model, rep, device, (hit, speedup) in cases():
        price = PriceModel(rep, model, device, hit, speedup)
        for size in SIZES:
            bd = price.breakdown(size)
            values = [getattr(bd, f.name) for f in fields(bd)]
            values.append(price.power(size))
            lines.append(_line(model, rep, device, hit, speedup, size, values))
    return "\n".join(lines) + "\n"


def render_array() -> str:
    """The same text from the array entries: one ``breakdown_many`` and
    one ``power_many`` call per case, over every size at once."""
    sizes = np.array(SIZES)
    lines = [HEADER]
    for model, rep, device, (hit, speedup) in cases():
        price = PriceModel(rep, model, device, hit, speedup)
        bd = price.breakdown_many(sizes)
        columns = [
            np.broadcast_to(getattr(bd, f.name), sizes.shape).tolist()
            for f in fields(bd)
        ]
        columns.append(price.power_many(sizes).tolist())
        for i, size in enumerate(SIZES):
            values = [column[i] for column in columns]
            lines.append(_line(model, rep, device, hit, speedup, size, values))
    return "\n".join(lines) + "\n"


def test_roofline_matches_golden():
    assert render() == GOLDEN.read_text()


def test_array_form_matches_golden():
    """Each array element renders exactly as the golden scalar row."""
    assert render_array() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render())
    print(f"wrote {GOLDEN}")
