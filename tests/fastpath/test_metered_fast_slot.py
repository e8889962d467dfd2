"""Metrics-only runs on the fast slot loop.

A :class:`~repro.obs.metrics.MetricsRegistry` alone keeps a switch on
the fast block loop, which tallies per slot and flushes its counters,
forward buffers and live estimators once per block. The contract is
byte-identity with the general loop: every instrument of
``registry.snapshot()`` and every ``SimResult`` field must match a
``fast=False`` run with the same registry wiring — for every bitset
kernel, at single-word and multi-word widths, through a loss filter,
and across a checkpoint/resume cut.
"""

import json

import numpy as np
import pytest

from repro.baselines.registry import make_scheduler
from repro.checkpoint import resume_simulation
from repro.faults import FaultInjector, FaultPlan
from repro.fastpath.registry import fast_schedulers, make_fast_scheduler
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import RingTracer
from repro.sim.config import SimConfig
from repro.sim.crossbar import InputQueuedSwitch
from repro.sim.simulator import build_switch, run_simulation
from repro.traffic.bernoulli import BernoulliUniform

#: Windows per width: the n=65 points exercise the word-tuple masks,
#: where the reference loop is slow, so they run shorter.
CONFIGS = {
    4: SimConfig(n_ports=4, warmup_slots=20, measure_slots=200, seed=11),
    16: SimConfig(n_ports=16, warmup_slots=20, measure_slots=130, seed=12),
    65: SimConfig(n_ports=65, warmup_slots=10, measure_slots=120, seed=13),
}


def metered(config, name, load, fast, **kwargs):
    """A run's ``(snapshot JSON, SimResult row)`` with a fresh registry."""
    registry = MetricsRegistry()
    result = run_simulation(config, name, load, fast=fast, metrics=registry, **kwargs)
    return json.dumps(registry.snapshot(), sort_keys=True), result.row()


@pytest.mark.parametrize("n", sorted(CONFIGS))
@pytest.mark.parametrize("load", [0.5, 0.95])
@pytest.mark.parametrize("name", fast_schedulers())
def test_metered_fast_run_matches_the_general_loop(name, load, n):
    config = CONFIGS[n]
    switch = build_switch(config, name, metrics=MetricsRegistry(), fast=True)
    assert switch.fast_slot_blocker is None
    assert metered(config, name, load, fast=True) == metered(
        config, name, load, fast=False
    )


@pytest.mark.parametrize(
    "name, wrapper",
    [
        ("lcf_central_rr", "FastRequestLossFilter"),
        ("lcf_dist_rr", "FastLossyLCFDistributedRR"),
    ],
)
def test_metered_lossy_run_matches_the_general_loop(name, wrapper):
    config = CONFIGS[16]
    plan = FaultPlan(request_loss=0.2)
    switch = build_switch(
        config,
        name,
        metrics=MetricsRegistry(),
        injector=FaultInjector(plan, 16, seed=1),
        fast=True,
    )
    assert type(switch.scheduler).__name__ == wrapper
    assert switch.fast_slot_blocker is None
    fast = metered(config, name, 0.9, fast=True, faults=plan)
    assert fast == metered(config, name, 0.9, fast=False, faults=plan)
    # The loss model must bite, or the equality would also hold with
    # the filter bypassed on both sides.
    assert fast != metered(config, name, 0.9, fast=True)


@pytest.mark.parametrize("name", ["lcf_central_rr", "lcf_dist_rr", "islip"])
def test_metered_step_records_like_the_general_loop(name):
    # step() on a metered fast switch is the block loop for one slot:
    # same applied schedules, same instruments after every slot.
    config = CONFIGS[4]
    registries = MetricsRegistry(), MetricsRegistry()
    fast = InputQueuedSwitch(
        config, make_fast_scheduler(name, 4), metrics=registries[0]
    )
    reference = InputQueuedSwitch(
        config, make_scheduler(name, 4), metrics=registries[1]
    )
    assert fast._fast_slot and not reference._fast_slot
    fast.measuring = reference.measuring = True
    pattern = BernoulliUniform(4, 0.9, seed=5)
    for slot in range(120):
        arrivals = pattern.arrivals()
        assert np.array_equal(
            fast.step(slot, arrivals), reference.step(slot, arrivals)
        ), slot
        assert registries[0].snapshot() == registries[1].snapshot(), slot


class TestMeteredCheckpointResume:
    CONFIG = SimConfig(n_ports=8, warmup_slots=20, measure_slots=200, seed=21)
    STOP = 100

    @pytest.mark.parametrize("name", ["lcf_central_rr", "lcf_dist_rr", "pim"])
    def test_resumed_run_equals_the_straight_run(self, name, tmp_path):
        straight = MetricsRegistry()
        expected = run_simulation(self.CONFIG, name, 0.9, fast=True, metrics=straight)

        path = tmp_path / "run.ckpt"
        run_simulation(
            self.CONFIG,
            name,
            0.9,
            fast=True,
            metrics=MetricsRegistry(),
            checkpoint_path=path,
            checkpoint_every=50,
            stop_at_slot=self.STOP,
        )
        resumed = MetricsRegistry()
        result = resume_simulation(path, metrics=resumed)
        assert result.row() == expected.row()
        assert json.dumps(resumed.snapshot(), sort_keys=True) == json.dumps(
            straight.snapshot(), sort_keys=True
        )

    def test_tracer_attached_on_resume_takes_the_general_loop(self, tmp_path):
        # The checkpoint of a metered fast run records the fast loop; a
        # tracer attached on resume must still see every remaining slot.
        name = "lcf_central_rr"
        straight = RingTracer(1 << 20)
        expected = run_simulation(
            self.CONFIG, name, 0.9, fast=True, metrics=MetricsRegistry(),
            tracer=straight,
        )
        path = tmp_path / "run.ckpt"
        run_simulation(
            self.CONFIG, name, 0.9, fast=True, metrics=MetricsRegistry(),
            checkpoint_path=path, stop_at_slot=self.STOP,
        )
        tail = RingTracer(1 << 20)
        result = resume_simulation(path, tracer=tail)
        assert result.row() == expected.row()
        events = list(tail.events)
        assert events
        assert events == [e for e in straight.events if e["slot"] >= self.STOP]
