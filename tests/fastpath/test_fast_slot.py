"""The switch's zero-allocation fast slot loop.

Engagement rules (the loop must only run when it is exactly equivalent
to the instrumented loop, and ``fast_slot_blocker`` names the first rule
that keeps a switch off it), bit-identity of whole runs, and the
degraded-mode wrapper interaction: the type-level capability probe must
never let attribute forwarding smuggle an unfiltered ``schedule_masks``
past a loss filter.
"""

import numpy as np
import pytest

from repro.adapt import AdaptiveLCF
from repro.baselines.registry import make_scheduler
from repro.faults import FaultInjector, FaultPlan, PortDownInterval
from repro.faults.channel import FastRequestLossFilter, RequestLossFilter
from repro.fastpath.lcf import FastLCFCentralRR
from repro.fastpath.registry import fast_schedulers
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import RingTracer
from repro.sim.admission import AdmissionController
from repro.sim.config import SimConfig
from repro.sim.crossbar import InputQueuedSwitch
from repro.sim.simulator import build_switch, run_simulation

CONFIG = SimConfig(n_ports=4, warmup_slots=10, measure_slots=60, seed=9)


class TestEngagement:
    def test_bare_bitset_kernel_takes_the_fast_loop(self):
        switch = InputQueuedSwitch(CONFIG, FastLCFCentralRR(4))
        assert switch._fast_slot
        assert switch.fast_slot_blocker is None

    def test_reference_scheduler_does_not(self):
        switch = InputQueuedSwitch(CONFIG, make_scheduler("lcf_central_rr", 4))
        assert not switch._fast_slot
        assert switch.fast_slot_blocker == "no schedule_masks on LCFCentralRR"

    def test_wide_switch_probes_the_same_mask_entry(self):
        # One mask layout at every width: beyond one machine word the
        # probe still asks for schedule_masks, and every fast kernel
        # has it.
        config = CONFIG.with_(n_ports=65)
        switch = InputQueuedSwitch(config, make_scheduler("islip", 65))
        assert switch.fast_slot_blocker == "no schedule_masks on ISLIP"
        for n in (65, 128):
            for name in fast_schedulers():
                switch = build_switch(CONFIG.with_(n_ports=n), name, fast=True)
                assert switch.fast_slot_blocker is None, (name, n)

    def test_instrumentation_disables_the_fast_loop(self):
        switch = InputQueuedSwitch(
            CONFIG, FastLCFCentralRR(4), tracer=RingTracer(1 << 10)
        )
        assert not switch._fast_slot
        assert switch.fast_slot_blocker == "tracer attached"

    def test_metrics_only_keeps_the_fast_loop(self):
        switch = InputQueuedSwitch(
            CONFIG, FastLCFCentralRR(4), metrics=MetricsRegistry()
        )
        assert switch._fast_slot
        assert switch.fast_slot_blocker is None

    def test_tracer_plus_metrics_still_disables_the_fast_loop(self):
        switch = InputQueuedSwitch(
            CONFIG,
            FastLCFCentralRR(4),
            tracer=RingTracer(1 << 10),
            metrics=MetricsRegistry(),
        )
        assert not switch._fast_slot
        assert switch.fast_slot_blocker == "tracer attached"

    def test_topology_faults_disable_the_fast_loop(self):
        plan = FaultPlan(port_down=(PortDownInterval(1, 5, 20, "input"),))
        switch = InputQueuedSwitch(
            CONFIG, FastLCFCentralRR(4), injector=FaultInjector(plan, 4, seed=1)
        )
        assert not switch._fast_slot
        assert switch.fast_slot_blocker == "topology injector"

    def test_adapter_disables_the_fast_loop(self):
        switch = InputQueuedSwitch(CONFIG, FastLCFCentralRR(4), adapter=AdaptiveLCF())
        assert not switch._fast_slot
        assert switch.fast_slot_blocker == "adapter"

    def test_fabric_hooks_and_admission_disable_the_fast_loop(self):
        def gate(slot):
            return np.zeros(4, dtype=bool)

        def sink(slot, i, j, payload):
            return 1

        for kwargs, reason in (
            ({"output_gate": gate}, "output gate"),
            ({"forward_sink": sink}, "forward sink"),
            ({"admission": AdmissionController(50, 100)}, "admission"),
        ):
            switch = InputQueuedSwitch(CONFIG, FastLCFCentralRR(4), **kwargs)
            assert not switch._fast_slot
            assert switch.fast_slot_blocker == reason

    def test_weight_scheduler_never_takes_the_fast_loop(self):
        switch = InputQueuedSwitch(CONFIG, make_scheduler("lqf", 4))
        assert not switch._fast_slot
        assert switch.fast_slot_blocker == "weight scheduler"

    def test_forwarded_schedule_masks_does_not_fool_the_probe(self):
        # The plain RequestLossFilter forwards unknown attributes to the
        # wrapped scheduler, so instances *appear* to have
        # schedule_masks — taking the fast loop through that forwarding
        # would skip the loss model entirely. The probe is type-level
        # exactly so this wrapper stays on the instrumented loop.
        injector = FaultInjector(FaultPlan(request_loss=0.3), 4, seed=1)
        wrapped = RequestLossFilter(FastLCFCentralRR(4), injector)
        assert callable(wrapped.schedule_masks)  # forwarding is live...
        switch = InputQueuedSwitch(CONFIG, wrapped)
        assert not switch._fast_slot  # ...ignored
        assert switch.fast_slot_blocker == "no schedule_masks on RequestLossFilter"

    def test_fast_loss_filter_takes_the_fast_loop_with_its_own_kernel(self):
        # FastRequestLossFilter defines schedule_masks on the class, so
        # the fast loop runs *through* the loss model, never around it.
        switch = build_switch(
            CONFIG,
            "lcf_central_rr",
            injector=FaultInjector(FaultPlan(request_loss=0.3), 4, seed=1),
            fast=True,
        )
        assert isinstance(switch.scheduler, FastRequestLossFilter)
        assert switch._fast_slot
        assert switch.fast_slot_blocker is None


class TestRunEquivalence:
    @pytest.mark.parametrize("name", fast_schedulers())
    def test_fast_run_is_bit_identical(self, name):
        reference = run_simulation(CONFIG, name, 0.8, collect_percentiles=True)
        fast = run_simulation(CONFIG, name, 0.8, collect_percentiles=True, fast=True)
        assert reference.row() == fast.row()

    @pytest.mark.parametrize("name", ["lcf_central_rr", "islip", "pim"])
    def test_request_loss_is_applied_on_the_fast_loop(self, name):
        plan = FaultPlan(request_loss=0.3)
        reference = run_simulation(CONFIG, name, 0.9, faults=plan)
        fast = run_simulation(CONFIG, name, 0.9, faults=plan, fast=True)
        assert reference.row() == fast.row()
        # The loss model must actually bite, or the equality above would
        # also pass with the filter bypassed on both sides.
        pristine = run_simulation(CONFIG, name, 0.9, fast=True)
        assert fast.row() != pristine.row()

    def test_fast_run_with_service_matrix_matches(self):
        # collect_service keeps the fast loop on; the per-pair grant
        # counts must match the instrumented loop's.
        reference = run_simulation(CONFIG, "lcf_central_rr", 0.8, collect_service=True)
        fast = run_simulation(
            CONFIG, "lcf_central_rr", 0.8, collect_service=True, fast=True
        )
        assert np.array_equal(reference.service_counts, fast.service_counts)

    def test_traced_fast_run_matches_reference_trace(self):
        # A tracer forces the instrumented loop, but the scheduler is
        # still the bitset kernel — its telemetry (decision traces and
        # events) must be byte-identical to the reference scheduler's.
        def traced(fast):
            tracer = RingTracer(1 << 16)
            run_simulation(CONFIG, "lcf_central_rr", 0.8, tracer=tracer, fast=fast)
            return tracer.events

        assert traced(fast=True) == traced(fast=False)


class TestFastLoopStatistics:
    def test_schedules_applied_per_slot_match(self):
        from repro.traffic.bernoulli import BernoulliUniform

        fast = InputQueuedSwitch(CONFIG, FastLCFCentralRR(4))
        reference = InputQueuedSwitch(CONFIG, make_scheduler("lcf_central_rr", 4))
        assert fast._fast_slot and not reference._fast_slot
        fast.measuring = reference.measuring = True
        pattern = BernoulliUniform(4, 0.9, seed=3)
        for slot in range(200):
            arrivals = pattern.arrivals()
            applied_ref = reference.step(slot, arrivals)
            applied_fast = fast.step(slot, arrivals)
            assert np.array_equal(applied_ref, applied_fast), slot
        assert fast.forwarded == reference.forwarded
        assert fast.offered == reference.offered
        assert fast.latency.mean == reference.latency.mean
        assert fast.total_queued() == reference.total_queued()
