"""Runtime representation switching: re-shaping work as load shifts.

Two demos of :class:`repro.core.switching.SwitchController` riding on the
serving kernel:

  1. A diurnal day/night cycle over a synthetic representation pair with
     the Figure-3 batch-size crossover — dynamic switching beats both
     static residencies on SLA violations, paying the Figure-15
     load/teardown window on the device timeline at every swap.
  2. The real KAGGLE deployment that ``repro serve --switching`` runs
     (`build_switching` on a `ServingSimulator`): one resident
     representation per device, swapped under a bursty overload.

Run: ``python examples/runtime_switching.py``
"""

import numpy as np

from repro.core.online import StaticScheduler
from repro.core.paths import ExecutionPath, PathProfile
from repro.core.representations import RepresentationConfig
from repro.core.switching import SwitchController
from repro.data.queries import Query, QuerySet, arrival_times
from repro.experiments.setup import build_switching
from repro.hardware.catalog import GPU_V100
from repro.models.configs import KAGGLE
from repro.serving.simulator import ServingSimulator
from repro.serving.workload import ServingScenario

SLA_S = 0.013


def affine_path(kind, accuracy, base_s, per_sample_s, label):
    sizes = np.unique(np.geomspace(1, 4096, 33).astype(int)).astype(float)
    rep = (
        RepresentationConfig("hybrid", 16, k=8, dnn=8, h=1, table_dim=8, dhe_dim=8)
        if kind == "hybrid" else RepresentationConfig("table", 16)
    )
    return ExecutionPath(
        rep=rep, device=GPU_V100, accuracy=accuracy,
        profile=PathProfile(sizes=sizes, latencies=base_s + per_sample_s * sizes),
        label=label,
    )


def diurnal_demo():
    print("=" * 64)
    print("1. Diurnal cycle: dynamic switching vs static residency")
    print("=" * 64)
    table = lambda: affine_path("table", 79.0, 0.0003, 0.0008, "TABLE")  # noqa: E731
    hybrid = lambda: affine_path("hybrid", 81.0, 0.007, 0.00005, "HYBRID")  # noqa: E731
    arrivals = arrival_times(
        13_000, 650.0, rng=np.random.default_rng(42),
        process="diurnal", period_s=10.0, amplitude=0.9,
    )
    scenario = ServingScenario(
        queries=QuerySet(queries=[
            Query(index=i, size=1, arrival_s=float(t))
            for i, t in enumerate(arrivals)
        ]),
        sla_s=SLA_S,
    )

    def simulate(resident, controller=None):
        sim = ServingSimulator(
            StaticScheduler([resident]), track_energy=False,
            max_batch_size=16, batch_timeout_s=0.008,
            switch_controller=controller,
        )
        return sim.run(scenario)

    controller = SwitchController(
        {GPU_V100.name: [table(), hybrid()]},
        hi_pressure=0.75, lo_pressure=0.63, util_hi=0.95,
        patience=4, cooldown_s=1.0, headroom=0.9,
        load_s=0.080, teardown_s=0.020,
    )
    runs = {
        "static TABLE": simulate(table()),
        "static HYBRID": simulate(hybrid()),
        "dynamic switching": simulate(hybrid(), controller),
    }
    for name, result in runs.items():
        print(f"  {name:18s} SLA violations {result.violation_rate * 100:5.1f}%")
    print(f"  switches: {len(controller.events)} "
          f"(+{controller.total_overhead_s * 1e3:.0f} ms of load/teardown "
          "charged on the GPU timeline)")
    for event in controller.events:
        print(f"    t={event.time_s:5.2f}s  {event.from_label:>6s} -> "
              f"{event.to_label:<6s} serving again at t={event.ready_s:.2f}s")


def real_model_demo():
    print()
    print("=" * 64)
    print("2. KAGGLE deployment, one resident representation per device")
    print("=" * 64)
    # On KAGGLE's profiled GPU paths the table representation is fastest
    # at every batch size, so switching is the ISSUE's accuracy story:
    # once traffic proves calm, the controller swaps in the
    # higher-accuracy hybrid representation, paying one real PCIe load
    # (~236 ms of blocked GPU time) for +0.2% accuracy on every query
    # after it. Long patience/cooldown keep heavy-tailed query sizes from
    # thrashing the residency.
    scenario = ServingScenario.diurnal(
        n_queries=24_000, qps=1200.0, sla_s=0.015, seed=3,
        amplitude=0.6, period_s=20.0,
    )
    scheduler, controller = build_switching(
        KAGGLE, lo_pressure=0.4, hi_pressure=1.0, patience=10, cooldown_s=3.0,
    )
    result = ServingSimulator(
        scheduler, max_batch_size=32, batch_timeout_s=0.004,
        switch_controller=controller,
    ).run(scenario)
    print(f"  violations {result.violation_rate * 100:.1f}%  "
          f"p99 {result.p99_latency_s * 1e3:.1f} ms  "
          f"served accuracy {result.mean_accuracy:.3f}% "
          "(static table: 78.790%)")
    print("  residency breakdown (share of served queries):")
    for label, share in result.switching_breakdown().items():
        print(f"    {label:16s} {share * 100:5.1f}%")
    print(f"  switches: {len(controller.events)}")
    for event in controller.events[:5]:
        print(f"    t={event.time_s * 1e3:7.1f} ms  {event.device}: "
              f"{event.from_label} -> {event.to_label} "
              f"(+{event.overhead_s * 1e3:.1f} ms)")


if __name__ == "__main__":
    diurnal_demo()
    real_model_demo()
