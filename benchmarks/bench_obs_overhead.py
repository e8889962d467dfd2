"""Observability overhead: the disabled path must be (nearly) free.

The :mod:`repro.obs` contract is that a simulation with no tracer — or
with a :class:`~repro.obs.tracer.NullTracer`, which resolves to the
same code path — pays only the ``is not None`` guards in the switch's
step loop. ``test_disabled_path_overhead_budget`` turns that into a
hard assertion: the instrumented-but-disabled step loop must run within
2% of the uninstrumented one (min-of-repeats timing, retried to ride
out scheduler noise on shared CI hosts).

``test_metrics_only_fast_overhead_budget`` gates the enabled metrics
path: a ``MetricsRegistry`` alone keeps a run on the fast slot loop, so
a metered ``fast=True`` run must stay within ``MAX_METRICS_FAST_OVERHEAD``
of the same run without one. Falling back to the general step loop
costs ~4x, so the gate fails if metrics ever knock runs off the fast
loop again.

The remaining benchmarks are informational: what tracing *costs when
enabled*, for sizing trace windows before a big capture.

Run the budget gates alone with
``PYTHONPATH=src:. python -m pytest -q benchmarks/bench_obs_overhead.py -k budget``.
"""

from __future__ import annotations

import time

from benchmarks.conftest import BENCH_CONFIG
from repro.baselines.registry import make_scheduler
from repro.obs.metrics import MetricsRegistry
from repro.obs.serve import SnapshotExporter, effective_exporter
from repro.obs.tracer import NullTracer, RingTracer
from repro.sim.crossbar import InputQueuedSwitch
from repro.sim.simulator import run_simulation
from repro.traffic.bernoulli import BernoulliUniform

#: Acceptance budget: disabled-path slowdown on the step loop.
MAX_DISABLED_OVERHEAD = 1.02

#: Acceptance budget: metered / bare ``fast=True`` run time. Measured
#: ~1.9x for lcf_central_rr at load 0.9 on a 2-core x86-64 host with
#: Python 3.11 (the traced bitset kernel and the per-forward P² updates
#: are what remains); +30% margin for runner noise. The general step
#: loop it replaced measured ~4.2x on the same host.
MAX_METRICS_FAST_OVERHEAD = 2.5

SLOTS = 400


def _run_slots(tracer=None, slots: int = SLOTS) -> float:
    """Seconds for ``slots`` steps of the 16-port bench crossbar."""
    switch = InputQueuedSwitch(
        BENCH_CONFIG, make_scheduler("lcf_central_rr", 16), tracer=tracer
    )
    pattern = BernoulliUniform(16, 0.9, seed=1)
    arrivals = [pattern.arrivals() for _ in range(slots)]
    start = time.perf_counter()
    for slot in range(slots):
        switch.step(slot, arrivals[slot])
    return time.perf_counter() - start


def _min_of(repeats: int, tracer_factory) -> float:
    return min(_run_slots(tracer=tracer_factory()) for _ in range(repeats))


def test_disabled_path_overhead_budget():
    """A NullTracer run must be within 2% of an uninstrumented run.

    NullTracer resolves to ``tracer=None`` inside the switch, so the
    two sides execute structurally identical code — the assertion
    guards against anyone re-introducing per-event work on the
    disabled path. Min-of-repeats timing with a few retries keeps the
    check robust to transient load spikes.
    """
    for attempt in range(4):
        baseline = _min_of(5, lambda: None)
        disabled = _min_of(5, NullTracer)
        ratio = disabled / baseline
        if ratio <= MAX_DISABLED_OVERHEAD:
            return
    assert ratio <= MAX_DISABLED_OVERHEAD, (
        f"disabled-path instrumentation costs {ratio:.3f}x "
        f"(budget {MAX_DISABLED_OVERHEAD}x)"
    )


def test_disabled_exporter_overhead_budget(tmp_path):
    """A disabled SnapshotExporter must cost as much as none at all.

    ``effective_exporter`` resolves a disabled exporter to ``None``
    before the simulation driver's block loop, so — exactly like the
    NullTracer contract above — the per-slot path is structurally
    identical with and without one. The run here mimics the driver:
    ``tick`` is only ever reached when an exporter survives resolution.
    """

    def run_with(exporter) -> float:
        resolved = effective_exporter(exporter)
        switch = InputQueuedSwitch(
            BENCH_CONFIG, make_scheduler("lcf_central_rr", 16)
        )
        pattern = BernoulliUniform(16, 0.9, seed=1)
        arrivals = [pattern.arrivals() for _ in range(SLOTS)]
        start = time.perf_counter()
        for slot in range(SLOTS):
            switch.step(slot, arrivals[slot])
            if resolved is not None:
                resolved.tick(slot)
        return time.perf_counter() - start

    disabled = SnapshotExporter(
        MetricsRegistry(), tmp_path / "snap.prom", enabled=False
    )
    for attempt in range(4):
        baseline = min(run_with(None) for _ in range(5))
        gated = min(run_with(disabled) for _ in range(5))
        ratio = gated / baseline
        if ratio <= MAX_DISABLED_OVERHEAD:
            break
    assert ratio <= MAX_DISABLED_OVERHEAD, (
        f"disabled snapshot exporter costs {ratio:.3f}x "
        f"(budget {MAX_DISABLED_OVERHEAD}x)"
    )
    assert disabled.writes == 0 and not (tmp_path / "snap.prom").exists()


def test_step_loop_uninstrumented(benchmark):
    """Baseline: the bare step loop (reference for the ratios below)."""
    benchmark.pedantic(_run_slots, rounds=3, iterations=1)


def test_step_loop_ring_tracer(benchmark):
    """Enabled-path cost with an in-memory RingTracer attached."""
    benchmark.pedantic(
        lambda: _run_slots(tracer=RingTracer()), rounds=3, iterations=1
    )


def _fast_run(metrics: MetricsRegistry | None) -> float:
    """Seconds for one ``fast=True`` bench-config run."""
    start = time.perf_counter()
    run_simulation(BENCH_CONFIG, "lcf_central_rr", 0.9, fast=True, metrics=metrics)
    return time.perf_counter() - start


def test_metrics_only_fast_overhead_budget():
    """A metrics-only run stays on the fast loop and within budget.

    Min-of-repeats on both sides, retried to ride out load spikes on
    shared CI hosts.
    """
    for attempt in range(4):
        bare = min(_fast_run(None) for _ in range(3))
        metered = min(_fast_run(MetricsRegistry()) for _ in range(3))
        ratio = metered / bare
        if ratio <= MAX_METRICS_FAST_OVERHEAD:
            return
    assert ratio <= MAX_METRICS_FAST_OVERHEAD, (
        f"metrics-only fast run costs {ratio:.2f}x "
        f"(budget {MAX_METRICS_FAST_OVERHEAD}x)"
    )
