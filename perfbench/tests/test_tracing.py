"""Self-time accounting of the wrapper tracer, and the path probe."""

import pytest

import repro
import tracing
import workloads
from repro.columnar.engine import ColumnarEngine, ColumnarMemoryError
from repro.sim.queues import PacketQueue


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def leaf():
        clock.advance(4.0)

    def inner():
        clock.advance(3.0)
        leaf_w()

    def outer():
        clock.advance(1.0)
        inner_w()
        inner_w()
        clock.advance(2.0)

    leaf_w = tracer.wrap(leaf, "leaf")
    inner_w = tracer.wrap(inner, "inner")
    outer_w = tracer.wrap(outer, "sweep")
    with tracer.root():
        clock.advance(0.5)
        outer_w()

    assert tracer.total_s(tracing.ROOT) == 17.5
    assert tracer.self_s(tracing.ROOT) == 0.5
    assert (tracer.calls("sweep"), tracer.self_s("sweep"), tracer.total_s("sweep")) == (1, 3.0, 17.0)
    assert (tracer.calls("inner"), tracer.self_s("inner"), tracer.total_s("inner")) == (2, 6.0, 14.0)
    assert (tracer.calls("leaf"), tracer.self_s("leaf")) == (2, 8.0)
    total_self = sum(self_s for _, self_s, _ in tracer.layers.values())
    assert total_self == tracer.total_s(tracing.ROOT)

    # Span layers (here "sweep") keep one record per call, parented to
    # the root span; the others roll up per (parent span, parent layer,
    # layer).
    spans = {name: (span_id, start, end, parent) for span_id, name, start, end, parent in tracer.spans}
    root_id = spans[tracing.ROOT][0]
    sweep_id = spans["sweep"][0]
    assert spans["sweep"][1:] == (0.5, 17.5, root_id)
    assert tracer.rollups[(sweep_id, "sweep", "inner")] == [2, 14.0]
    assert tracer.rollups[(sweep_id, "inner", "leaf")] == [2, 8.0]


def test_same_layer_reentry_is_folded_and_hooks_still_count():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def entry(depth):
        clock.advance(1.0)
        if depth:
            entry_w(depth - 1)

    entry_w = tracer.wrap(entry, "kernel", hook=lambda args, result: tracer.count("entries"))
    with tracer.root():
        entry_w(2)
    assert tracer.calls("kernel") == 1
    assert tracer.self_s("kernel") == 3.0
    assert tracer.counts["entries"] == 3


def test_calls_outside_the_root_are_not_traced():
    tracer = tracing.Tracer()
    wrapped = tracer.wrap(lambda: 7, "layer")
    assert wrapped() == 7
    assert tracer.calls("layer") == 0


def test_kernel_nests_words_to_int_and_restore_unwraps():
    original_push = PacketQueue.__dict__["push"]
    config = repro.SimConfig(n_ports=72, warmup_slots=5, measure_slots=10)
    plain = repro.run_simulation(config, "lcf_central_rr", 0.9, fast=True)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert PacketQueue.__dict__["push"] is not original_push
        with tracer.root():
            traced = repro.run_simulation(config, "lcf_central_rr", 0.9, fast=True)
    finally:
        tracer.restore()
    assert PacketQueue.__dict__["push"] is original_push
    assert traced.row() == plain.row()
    assert tracer.calls("fastpath") == config.total_slots
    assert tracer.calls("fastpath.words_to_int") > 0
    assert tracer.total_s("fastpath") == pytest.approx(
        tracer.self_s("fastpath") + tracer.total_s("fastpath.words_to_int")
    )
    assert tracer.counts["crossbar.slots"] == config.total_slots
    assert tracer.calls("crossbar.step") == 0


def test_path_probe_sees_a_point_leave_the_fast_loop():
    config = repro.SimConfig(n_ports=4, warmup_slots=5, measure_slots=20)
    probe = tracing.PathProbe()
    probe.install()
    try:
        repro.run_simulation(config, "islip", 0.5, fast=True)
        repro.run_simulation(config, "islip", 0.5, fast=True, metrics=repro.MetricsRegistry())
    finally:
        probe.restore()
    fast, observed = probe.records
    assert (fast["kind"], fast["slots"], fast["steps"]) == ("point", 25, 0)
    assert (observed["slots"], observed["steps"]) == (25, 25)


def test_path_probe_flags_a_columnar_block_that_falls_back_mid_run():
    config = repro.SimConfig(n_ports=4, warmup_slots=20, measure_slots=200, seed=3)
    block = workloads.Workload(
        name="block",
        config=config,
        sweep_schedulers=("lcf_central",),
        sweep_loads=(1.0,),
        replicates=2,
        columnar=True,
    )
    # A ceiling the shallow initial buffers fit, so the engine starts and
    # raises only when its queues grow; run_replicates then reruns the
    # block serially.
    ceiling = ColumnarEngine(config, "lcf_central", 1.0, [3, 4])._buffer_bytes()
    with pytest.raises(ColumnarMemoryError):
        ColumnarEngine(config, "lcf_central", 1.0, [3, 4], max_bytes=ceiling).run()

    probe = tracing.PathProbe()
    probe.install()
    try:
        repro.run_replicates(config, "lcf_central", 1.0, 2)
        repro.run_replicates(config, "lcf_central", 1.0, 2, max_bytes=ceiling)
    finally:
        probe.restore()
    columnar, fallback = probe.records
    assert (columnar["columnar"], fallback["columnar"]) == (2, 0)
    assert workloads.path_misses(block, [columnar]) == set()
    assert workloads.path_misses(block, [fallback]) == {
        "columnar/lcf_central@1#3",
        "columnar/lcf_central@1#4",
    }
