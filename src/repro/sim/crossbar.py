"""The VOQ input-queued crossbar switch (Figure 11 / Figure 1).

Per-slot event order:

1. **Generation** — the traffic pattern's arrivals enter the per-input
   packet queues (PQ); a full PQ drops the packet.
2. **Injection** — each input link carries at most one packet per slot
   from the PQ head into its VOQ; a full VOQ blocks the PQ head (the
   PQ is FIFO, so this is deliberate head-of-line blocking *upstream*
   of the VOQs, exactly the Figure 11 structure).
3. **Scheduling** — the scheduler computes a matching over the
   occupied-VOQ request matrix.
4. **Forwarding** — matched VOQ heads traverse the fabric and depart;
   with no output buffering, departure is in the same slot.

Latency of a packet = departure slot − generation slot + 1.

Observability: pass a :class:`repro.obs.Tracer` and/or a
:class:`repro.obs.MetricsRegistry` to record per-slot events (arrival,
enqueue, request vector, scheduler decision steps, RR override,
forward, drop) and decision metrics (matching size, choice-count and
tie-break-depth distributions). With neither attached — or with a
:class:`~repro.obs.tracer.NullTracer` — the step loop pays one
``is not None`` check per stage and nothing else; results are
bit-identical to an uninstrumented run (property-tested).

Two slot loops: the general :meth:`InputQueuedSwitch.step` handles
every feature, and the block loop in :meth:`~InputQueuedSwitch.
run_slots` runs bitset kernels straight off the VOQ masks. A metrics
registry alone keeps the block loop: it keeps per-slot tallies, reads
the decision metrics off the scheduler's trace recorder, and flushes
counters and live estimators once per block, so every instrument ends
each block exactly as the general loop leaves it.
:attr:`~InputQueuedSwitch.fast_slot_blocker` says which loop a switch
takes, and why.

Fault stances: with an ``injector`` alone the switch is *informed* —
requests over faulted crosspoints are masked out before the scheduler
sees them (an oracle tells it the fault state). Attaching an
``adapter`` (:mod:`repro.adapt`) makes the switch *fault-blind*: the
scheduler sees whatever the adapter returns, never the injector mask;
the fabric gate silently drops grants over faulted crosspoints
(counted in ``masked_grants``), and the adapter observes which
proposed grants survived — the feedback loop reactive scheduling
learns from.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import Scheduler
from repro.core.lcf_central import StepTrace
from repro.core.lcf_dist import IterationTrace
from repro.faults.injector import FaultInjector
from repro.obs import events as ev
from repro.obs.estimators import RateEstimator, StreamingQuantiles
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer, effective_tracer
from repro.sim.config import SimConfig
from repro.sim.metrics import OnlineStats, ServiceMatrix
from repro.sim.queues import PacketQueue, VOQSet
from repro.traffic.base import NO_ARRIVAL
from repro.types import NO_GRANT


class InputQueuedSwitch:
    """VOQ crossbar switch driven by any :class:`Scheduler`."""

    def __init__(
        self,
        config: SimConfig,
        scheduler: Scheduler,
        collect_service: bool = False,
        collect_latencies: bool = False,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        injector: FaultInjector | None = None,
        adapter=None,
        output_gate=None,
        forward_sink=None,
        admission=None,
    ):
        if scheduler.n != config.n_ports:
            raise ValueError(
                f"scheduler is for n={scheduler.n}, config has {config.n_ports} ports"
            )
        self.config = config
        self.scheduler = scheduler
        n = config.n_ports
        self.pqs = [PacketQueue(config.pq_capacity) for _ in range(n)]
        self.voqs = VOQSet(n, config.voq_capacity)

        self.latency = OnlineStats()
        self.offered = 0  # packets generated during measurement
        self.forwarded = 0  # packets departed during measurement
        self.measuring = False
        self.service = ServiceMatrix(n) if collect_service else None
        self.latency_samples: list[int] | None = [] if collect_latencies else None

        # A disabled tracer resolves to None here, so the hot loop's only
        # disabled-path cost is the `is not None` guards below.
        self.tracer = effective_tracer(tracer)
        self.metrics = metrics
        self._observing = self.tracer is not None or metrics is not None
        if self._observing and hasattr(scheduler, "record_trace"):
            # Reuse the schedulers' built-in decision recorders
            # (StepTrace / IterationTrace) as the telemetry source.
            scheduler.record_trace = True
        if metrics is not None:
            self._m_matching = metrics.histogram("matching_size", range(n + 1))
            self._m_choices = metrics.histogram("choice_count", range(n + 1))
            self._m_tie_depth = metrics.histogram("tie_break_depth", range(n))
            self._m_rr = metrics.counter("rr_overrides")
            self._m_grants = metrics.counter("grants")
            self._m_slots = metrics.counter("slots")
            self._m_forwarded = metrics.counter("forwarded")
            self._m_dropped = metrics.counter("dropped")
            self._m_arrivals = metrics.counter("arrivals")
            # Live estimators: cheap O(1) updates in _record_forward;
            # everything derived from them (rate gauges, delay
            # percentiles, queue depths) is refreshed lazily by the
            # collector below, so only scrapes/snapshots pay for it.
            self.rate_estimator = RateEstimator(n)
            self.delay_quantiles = StreamingQuantiles()
            self._live_slot = 0
            metrics.add_collector("switch-live", self._collect_live)
        else:
            self.rate_estimator = None
            self.delay_quantiles = None
        #: (i, j) when the distributed RR overlay will pre-match this slot.
        self._pending_rr: tuple[int, int] | None = None

        # A plan with no topology faults resolves to no injector here —
        # the switch only consumes port/link outages (message faults live
        # in the repro.faults.channel scheduler wrappers), so a null or
        # message-only plan is bit-identical to running uninstrumented.
        if injector is not None and not injector.plan.has_topology_faults:
            injector = None
        self.injector = injector
        #: Backpressure hook (the multi-stage fabric's credit gate):
        #: ``output_gate(slot) -> bool[n]`` marks outputs whose
        #: downstream boundary queue cannot accept a packet this slot.
        #: Blocked outputs are masked out of the request matrix the
        #: scheduler sees, and any grant that lands on one anyway is
        #: dropped *before* the adapter observes outcomes — backpressure
        #: must never teach the health estimator that a link is dead.
        self.output_gate = output_gate
        #: Per-forward hook: ``forward_sink(slot, input, output, payload)``
        #: receives each departing packet's queued payload (normally the
        #: generation timestamp; the fabric stores packet tags instead)
        #: and returns the latency to record for it. With a sink attached
        #: the switch no longer interprets the payload itself.
        self.forward_sink = forward_sink
        self.blocked_grants = 0
        #: Fault-reaction layer (repro.adapt). When attached, the switch
        #: runs fault-blind: see the module docstring.
        self.adapter = adapter
        if adapter is not None:
            adapter.bind(n, tracer=self.tracer, metrics=metrics)
        #: Ingress load shedder (:mod:`repro.sim.admission`): when
        #: attached, arrivals are discarded while total occupancy sits
        #: above its hysteresis band — before they can enter a PQ.
        self.admission = admission
        if admission is not None:
            admission.bind(tracer=self.tracer, metrics=metrics)
        #: Fault accounting (kept even without a MetricsRegistry so the
        #: resilience harness can read degradation off the switch).
        self.fault_events = 0
        self.recovery_events = 0
        self.degraded_slots = 0
        self.masked_grants = 0
        # Untraced slots with a bitmask-kernel scheduler take the fast
        # block loop (see fast_slot_blocker).
        self._fast_slot = self.fast_slot_blocker is None
        if injector is not None:
            self._down_in_prev = np.zeros(n, dtype=bool)
            self._down_out_prev = np.zeros(n, dtype=bool)
            # Input-side recovery clock: backlog level when the port
            # failed, and the port-up slot the drain is measured from.
            self._backlog_at_fault = np.zeros(n, dtype=np.int64)
            self._recovering_since = np.full(n, -1, dtype=np.int64)
            if metrics is not None:
                self._m_faults = metrics.counter("fault_events")
                self._m_recoveries = metrics.counter("recovery_events")
                self._m_degraded = metrics.counter("degraded_slots")
                self._m_masked = metrics.counter("masked_grants")
                self._m_recovery_time = metrics.histogram(
                    "recovery_time", (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
                )

    @property
    def fast_slot_blocker(self) -> str | None:
        """Why this switch cannot take the fast block loop, or ``None``.

        The fast loop feeds a bitmask kernel straight from the VOQ
        bitmasks, so no request matrix, defensive copy or numpy scratch
        is allocated per slot; results and metrics are bit-identical to
        the general loop (property-tested in ``tests/fastpath/``). The
        reason is the first failing condition: ``"tracer attached"``,
        ``"topology injector"``, ``"adapter"``, ``"output gate"``,
        ``"forward sink"``, ``"admission"``, ``"weight scheduler"``, or
        ``"no <entry> on <scheduler type>"``. A metrics registry is not a
        blocker.

        The kernel probe is type-level on purpose: wrappers like
        RequestLossFilter forward unknown attributes to their inner
        scheduler, and a forwarded ``schedule_masks`` would bypass the
        wrapper's own filtering. The VOQ masks are Python ints at every
        width, so ``schedule_masks`` is the one entry point probed.
        """
        if self.tracer is not None:
            return "tracer attached"
        if self.injector is not None:
            return "topology injector"
        if self.adapter is not None:
            return "adapter"
        if self.output_gate is not None:
            return "output gate"
        if self.forward_sink is not None:
            return "forward sink"
        if self.admission is not None:
            return "admission"
        if getattr(self.scheduler, "weight_kind", None) is not None:
            return "weight scheduler"
        if not callable(getattr(type(self.scheduler), "schedule_masks", None)):
            return f"no schedule_masks on {type(self.scheduler).__name__}"
        return None

    def reset_run(self, scheduler: Scheduler | None = None) -> None:
        """Re-arm the switch for a fresh run without rebuilding it.

        Empties every queue, zeroes the statistics and drop counters,
        and (optionally) swaps in a new scheduler — after this the
        switch is indistinguishable from a freshly constructed one with
        the same configuration and collection flags. The multi-replicate
        runners use this to amortise the ``n^2`` queue-structure build
        across the replicates of a sweep cell.

        Only the plain statistics-collecting switch supports reuse:
        instrumented switches (tracer/metrics/injector/adapter/gate/
        sink/admission) hold run-scoped external state this method
        cannot safely rewind, so it refuses rather than silently carry
        state over.
        """
        if (
            self._observing
            or self.injector is not None
            or self.adapter is not None
            or self.output_gate is not None
            or self.forward_sink is not None
            or self.admission is not None
        ):
            raise ValueError("reset_run requires an uninstrumented switch")
        if scheduler is not None:
            if scheduler.n != self.config.n_ports:
                raise ValueError(
                    f"scheduler is for n={scheduler.n}, "
                    f"config has {self.config.n_ports} ports"
                )
            self.scheduler = scheduler
            self._fast_slot = self.fast_slot_blocker is None
        else:
            self.scheduler.reset()
        for pq in self.pqs:
            pq.clear()
        self.voqs.clear()
        self.latency = OnlineStats()
        self.offered = 0
        self.forwarded = 0
        self.measuring = False
        if self.service is not None:
            self.service = ServiceMatrix(self.n)
        if self.latency_samples is not None:
            self.latency_samples = []

    @property
    def n(self) -> int:
        return self.config.n_ports

    def total_queued(self) -> int:
        """Packets currently buffered anywhere in the switch."""
        return sum(len(pq) for pq in self.pqs) + self.voqs.total_queued()

    @property
    def dropped(self) -> int:
        """Packets dropped at full PQs since construction."""
        return sum(pq.dropped for pq in self.pqs)

    def step(self, slot: int, arrivals: np.ndarray) -> np.ndarray:
        """Advance one time slot; returns the schedule that was applied."""
        if self._fast_slot:
            grants = self._run_fast_block(slot, (arrivals,))
            return np.array(grants, dtype=np.int64)
        observing = self._observing
        injector = self.injector
        if injector is not None:
            down_in = injector.down_inputs(slot)
            self._track_faults(slot, down_in, injector.down_outputs(slot))
            if injector.degraded(slot):
                self.degraded_slots += 1
                if self.metrics is not None:
                    self._m_degraded.inc()

        # 1. Generation into PQs. Hosts keep sending while their ingress
        #    is down — the backlog builds in the PQ, which is exactly the
        #    queue buildup the recovery-time metric measures. Admission
        #    control evaluates once per slot, before generation, and a
        #    shedding switch discards arrivals here — upstream of the
        #    PQs, so no queue state is consumed by a shed packet.
        admission = self.admission
        if admission is not None:
            admission.update(self.total_queued())
        for i in range(self.n):
            dst = arrivals[i]
            if dst != NO_ARRIVAL:
                if self.measuring:
                    self.offered += 1
                if admission is not None and admission.shedding:
                    admission.shed(slot, i, int(dst))
                    continue
                accepted = self.pqs[i].push(int(dst), slot)
                if observing:
                    self._record_arrival(slot, i, int(dst), accepted)

        # 2. Injection: one packet per input link per slot, head blocking.
        #    A down input's link carries nothing.
        for i, pq in enumerate(self.pqs):
            if injector is not None and down_in[i]:
                continue
            head = pq.head()
            if head is not None and self.voqs.has_space(i, head[0]):
                dst, t_generated = pq.pop()
                self.voqs.push(i, dst, t_generated)
                if observing and self.tracer is not None:
                    self.tracer.emit(ev.enqueue(slot, i, dst))

        # 3. Scheduling. Weight-based schedulers (LQF/OCF) receive the
        #    state their priority rule ranks by; everyone else sees the
        #    boolean request matrix. ``seen`` is the effective request
        #    matrix the scheduler works from: injector-masked in the
        #    informed stance (no adapter), adapter-filtered in the
        #    blind stance, ``None`` (= raw requests) otherwise.
        mask = injector.request_mask(slot) if injector is not None else None
        adapter = self.adapter
        if adapter is not None:
            seen = adapter.filter_requests(slot, self.voqs.request_matrix())
        elif mask is not None:
            seen = self.voqs.request_matrix() & mask
        else:
            seen = None
        blocked = self.output_gate(slot) if self.output_gate is not None else None
        if blocked is not None:
            if seen is None:
                seen = self.voqs.request_matrix() & ~blocked
            else:
                seen = seen & ~blocked
        if observing:
            request_total = self._record_requests(slot, seen)
        weight_kind = getattr(self.scheduler, "weight_kind", None)
        if weight_kind == "occupancy":
            weights = self.voqs.occupancy
            if seen is not None:
                weights = np.where(seen, weights, 0)
            schedule = self.scheduler.schedule_weighted(weights)
        elif weight_kind == "hol_age":
            heads = self.voqs.head_timestamps()
            ages = np.where(heads >= 0, slot - heads + 1, 0)
            if seen is not None:
                ages = np.where(seen, ages, 0)
            schedule = self.scheduler.schedule_weighted(ages)
        else:
            matrix = seen if seen is not None else self.voqs.request_matrix()
            schedule = self.scheduler.schedule(matrix)
        if blocked is not None:
            # Credit gate: no grant crosses into a full boundary queue.
            # This runs *before* ``proposed`` is taken so the adapter
            # never observes a backpressure drop as a failed grant.
            for i in range(self.n):
                j = schedule[i]
                if j != NO_GRANT and blocked[j]:
                    schedule[i] = NO_GRANT
                    self.blocked_grants += 1
        proposed = schedule
        if mask is not None:
            # Defensive fabric gate: whatever the scheduler emitted, no
            # grant crosses a faulted crosspoint. In the informed stance
            # this should never fire for a well-behaved scheduler, but
            # it is the invariant the resilience property tests rely on;
            # in the blind stance it is the fault model itself — every
            # grant it drops is a wasted slot the adapter learns from.
            if adapter is not None:
                proposed = schedule.copy()
            for i in range(self.n):
                j = schedule[i]
                if j != NO_GRANT and not mask[i, j]:
                    schedule[i] = NO_GRANT
                    self.masked_grants += 1
                    if self.metrics is not None:
                        self._m_masked.inc()
        if adapter is not None:
            if mask is not None:
                adapter.note_truth(slot, mask)
            adapter.observe(slot, proposed, schedule)
        if observing:
            self._record_decisions(slot, schedule, request_total)

        # 4. Forwarding.
        sink = self.forward_sink
        for i in range(self.n):
            j = schedule[i]
            if j == NO_GRANT:
                continue
            t_generated = self.voqs.pop(i, int(j))
            if sink is not None:
                delay = sink(slot, i, int(j), t_generated)
            else:
                delay = slot - t_generated + 1
            if self.measuring:
                self.forwarded += 1
                self.latency.add(delay)
                if self.latency_samples is not None:
                    self.latency_samples.append(delay)
            if observing:
                self._record_forward(slot, i, int(j), delay)
        if self.measuring and self.service is not None:
            self.service.record(schedule)
        return schedule

    def run_slots(self, first_slot: int, arrivals_block: list[np.ndarray]) -> None:
        """Advance one consecutive block of slots.

        Equivalent to calling :meth:`step` once per entry of
        ``arrivals_block`` with slots ``first_slot, first_slot+1, ...``,
        but on the fast path the per-slot dispatch overhead is paid once
        per *block*: attribute lookups are hoisted out of the loop, the
        destination vectors are converted to plain ints in one pass, and
        no numpy schedule array is materialised unless service counts
        are being collected. Statistics and metrics stay bit-identical
        to per-slot stepping (property-tested in ``tests/fastpath/``).

        ``measuring`` must not change mid-block — the simulation driver
        splits its blocks at the warmup boundary.
        """
        if not self._fast_slot:
            slot = first_slot
            for arrivals in arrivals_block:
                self.step(slot, arrivals)
                slot += 1
            return
        self._run_fast_block(first_slot, arrivals_block)

    def _run_fast_block(self, first_slot: int, arrivals_block) -> list[int]:
        """The fast slot loop over VOQ bitmasks; returns the last slot's
        grants.

        Same four stages in the same order as :meth:`step`, but the
        scheduler is fed the incrementally-maintained request bitmasks
        (``VOQSet.row_masks`` / ``col_masks``) and all bookkeeping stays
        in plain Python ints. With a metrics registry each slot keeps
        only cheap tallies — the grant count, the decision trace, the
        pending RR override — and the counters, forward buffers and live
        estimators are flushed at the end of the block, the only place
        exporters and checkpoints look.
        """
        measuring = self.measuring
        pqs = self.pqs
        voqs = self.voqs
        has_space = voqs.has_space
        voq_push = voqs.push
        voq_pop = voqs.pop
        scheduler = self.scheduler
        kernel = scheduler.schedule_masks
        rows, cols = voqs.row_masks, voqs.col_masks
        latency_add = self.latency.add
        samples = self.latency_samples
        service = self.service if measuring else None
        arrived = departed = 0

        metered = self.metrics is not None
        forwards = delays = None
        if metered:
            has_rr = hasattr(scheduler, "rr_position")
            observe_matching = self._m_matching.observe
            dropped_before = self.dropped
            overrides = 0
            forwards, delays = [], []

        slot = first_slot
        for arrivals in arrivals_block:
            # 1. Generation into PQs.
            for i, dst in enumerate(arrivals.tolist()):
                if dst != NO_ARRIVAL:
                    arrived += 1
                    pqs[i].push(dst, slot)

            # 2. Injection: one packet per input link per slot.
            for i, pq in enumerate(pqs):
                head = pq.head()
                if head is not None and has_space(i, head[0]):
                    dst, t_generated = pq.pop()
                    voq_push(i, dst, t_generated)

            # 3. Scheduling straight off the maintained bitmasks (the
            #    kernel only reads them; forwarding updates them via
            #    pop). The distributed RR overlay pre-matches its
            #    position before the iterations run, so note it first.
            if metered:
                pending_rr = None
                if has_rr:
                    rr_i, rr_j = scheduler.rr_position
                    if rows[rr_i] >> rr_j & 1:
                        pending_rr = (rr_i, rr_j)
            grants = kernel(rows, cols)

            # 4. Forwarding.
            for i, j in enumerate(grants):
                if j == NO_GRANT:
                    continue
                delay = slot - voq_pop(i, j) + 1
                departed += 1
                if measuring:
                    latency_add(delay)
                    if samples is not None:
                        samples.append(delay)
                if forwards is not None:
                    forwards.append((i, j, slot))
                    delays.append(delay)
            if service is not None:
                service.record(np.array(grants, dtype=np.int64))
            if metered:
                observe_matching(len(grants) - grants.count(NO_GRANT))
                overrides += self._translate_trace(slot, pending_rr)
            slot += 1

        if measuring:
            self.offered += arrived
            self.forwarded += departed
        if metered:
            self._m_arrivals.inc(arrived)
            self._m_dropped.inc(self.dropped - dropped_before)
            self._m_slots.inc(len(arrivals_block))
            self._m_grants.inc(departed)  # every grant forwards a packet
            self._m_rr.inc(overrides)
            self._m_forwarded.inc(departed)
            if forwards:
                self.rate_estimator.observe_many(forwards)
                self.delay_quantiles.add_many(delays)
                self._live_slot = forwards[-1][2]
        return grants

    # -- fault tracking (only reached with an injector attached) --

    def _input_backlog(self, port: int) -> int:
        """Packets queued anywhere behind one input (PQ + its VOQs)."""
        return len(self.pqs[port]) + int(self.voqs.occupancy[port].sum())

    def _track_faults(
        self, slot: int, down_in: np.ndarray, down_out: np.ndarray
    ) -> None:
        """Emit fault/recovery events on port state transitions.

        An output side recovers the moment it comes back up. An input
        side recovers once its backlog has drained to the level it had
        when the fault hit — ``backlog_slots`` on the recovery event
        (and the ``recovery_time`` histogram) is how long that took.
        """
        tracer, metrics = self.tracer, self.metrics
        for port in range(self.n):
            for side, now, prev in (
                ("input", down_in, self._down_in_prev),
                ("output", down_out, self._down_out_prev),
            ):
                if now[port] and not prev[port]:
                    self.fault_events += 1
                    if metrics is not None:
                        self._m_faults.inc()
                    if tracer is not None:
                        tracer.emit(ev.fault(slot, port, side))
                    if side == "input":
                        self._backlog_at_fault[port] = self._input_backlog(port)
                        self._recovering_since[port] = -1
                elif prev[port] and not now[port]:
                    if side == "output":
                        self.recovery_events += 1
                        if metrics is not None:
                            self._m_recoveries.inc()
                            self._m_recovery_time.observe(0)
                        if tracer is not None:
                            tracer.emit(ev.recovery(slot, port, side, 0))
                    else:
                        self._recovering_since[port] = slot
        self._down_in_prev = down_in.copy()
        self._down_out_prev = down_out.copy()
        for port in np.flatnonzero(self._recovering_since >= 0):
            if self._input_backlog(port) <= self._backlog_at_fault[port]:
                backlog_slots = slot - int(self._recovering_since[port])
                self._recovering_since[port] = -1
                self.recovery_events += 1
                if metrics is not None:
                    self._m_recoveries.inc()
                    self._m_recovery_time.observe(backlog_slots)
                if tracer is not None:
                    tracer.emit(ev.recovery(slot, int(port), "input", backlog_slots))

    # -- observability (only reached with a tracer or metrics attached) --

    def _record_arrival(self, slot: int, input: int, output: int, accepted: bool) -> None:
        if self.tracer is not None:
            self.tracer.emit(ev.arrival(slot, input, output))
            if not accepted:
                self.tracer.emit(ev.drop(slot, input, output))
        if self.metrics is not None:
            self._m_arrivals.inc()
            if not accepted:
                self._m_dropped.inc()

    def _record_requests(self, slot: int, seen: np.ndarray | None = None) -> int:
        """Emit the NRQ (choice-count) vector; returns total requests.

        ``seen`` is the effective request matrix the scheduler will
        work from (injector-masked or adapter-filtered); ``None`` means
        the raw occupancy-derived requests.
        """
        matrix = seen if seen is not None else self.voqs.request_matrix()
        nrq = matrix.sum(axis=1)
        if self.tracer is not None:
            self.tracer.emit(ev.requests(slot, [int(x) for x in nrq]))
        # The distributed RR overlay (lcf_dist_rr) pre-matches its
        # position before the iterations run; note it now, because the
        # iteration trace never sees that grant.
        rr_pos = getattr(self.scheduler, "rr_position", None)
        self._pending_rr = (
            rr_pos if rr_pos is not None and matrix[rr_pos] else None
        )
        return int(nrq.sum())

    def _record_decisions(
        self, slot: int, schedule: np.ndarray, request_total: int
    ) -> None:
        """Translate the scheduler's decision recorder into events/metrics."""
        tracer, metrics = self.tracer, self.metrics
        overrides = self._translate_trace(slot, self._pending_rr)
        matching_size = int(np.count_nonzero(schedule != NO_GRANT))
        if tracer is not None:
            voq = [int(x) for x in self.voqs.occupancy.sum(axis=1)]
            tracer.emit(ev.slot_summary(slot, matching_size, request_total, voq))
        if metrics is not None:
            self._m_slots.inc()
            self._m_grants.inc(matching_size)
            self._m_matching.observe(matching_size)
            if overrides:
                self._m_rr.inc(overrides)

    def _translate_trace(self, slot: int, pending_rr: tuple[int, int] | None) -> int:
        """One slot's decision trace → events and decision metrics.

        Reads the scheduler's ``last_trace`` (StepTrace or
        IterationTrace records), emits the decision events when a
        tracer is attached, feeds the choice-count and tie-break-depth
        histograms when metrics are, and returns the slot's RR override
        count. ``pending_rr`` is the distributed RR overlay's pre-match,
        which the iteration trace never sees. Both slot loops call this.
        """
        tracer, metrics = self.tracer, self.metrics
        trace = getattr(self.scheduler, "last_trace", None)
        overrides = 0
        if trace and isinstance(trace[0], StepTrace):
            # Central LCF: one record per per-output allocation step.
            for step in trace:
                granted = step.granted
                if granted != NO_GRANT:
                    choices = int(step.nrq_before[granted])
                    tie_depth = (granted - step.rr_row) % self.n
                    if metrics is not None:
                        self._m_choices.observe(choices)
                        self._m_tie_depth.observe(tie_depth)
                    if step.rr_won:
                        overrides += 1
                else:
                    choices = tie_depth = -1
                if tracer is not None:
                    tracer.emit(
                        ev.sched_step(
                            slot, step.output, step.rr_row, granted,
                            step.rr_won, choices, tie_depth,
                        )
                    )
                    if step.rr_won:
                        tracer.emit(ev.rr_override(slot, granted, step.output))
        elif trace and isinstance(trace[0], IterationTrace):
            # Distributed LCF: one record per request/grant/accept round.
            for index, it in enumerate(trace):
                if tracer is not None:
                    tracer.emit(
                        ev.iteration(
                            slot,
                            index,
                            int(it.grants.sum()),
                            len(it.accepts),
                            requests=int(it.requests.sum()),
                        )
                    )
                if metrics is not None:
                    for i, _ in it.accepts:
                        self._m_choices.observe(int(it.nrq[i]))
            if pending_rr is not None:
                overrides += 1
                if tracer is not None:
                    tracer.emit(ev.rr_override(slot, *pending_rr))
        return overrides

    def _record_forward(self, slot: int, input: int, output: int, delay: int) -> None:
        if self.tracer is not None:
            self.tracer.emit(ev.forward(slot, input, output, delay))
        if self.metrics is not None:
            self._m_forwarded.inc()
            self.rate_estimator.observe(input, output, slot)
            self.delay_quantiles.add(delay)
            self._live_slot = slot

    def _collect_live(self) -> None:
        """Refresh the derived live-telemetry gauges (collector hook).

        Runs on every export — ``MetricsRegistry.snapshot()``, the
        OpenMetrics/JSON renderers, the scrape endpoint — never on the
        per-slot path.
        """
        metrics = self.metrics
        at = self._live_slot
        gauge = metrics.gauge
        estimator = self.rate_estimator
        matrix = estimator.matrix(at)
        for i in range(self.n):
            for j in range(self.n):
                gauge(f"rate_in{i}_out{j}").set(float(matrix[i, j]))
        rows = matrix.sum(axis=1)
        cols = matrix.sum(axis=0)
        for i in range(self.n):
            gauge(f"rate_input_{i}").set(float(rows[i]))
            gauge(f"rate_output_{i}").set(float(cols[i]))
        gauge("rate_total").set(float(matrix.sum()))
        for q, value in self.delay_quantiles.values().items():
            gauge(f"delay_p{q * 100:g}".replace(".", "_")).set(value)
        gauge("queued_total").set(self.total_queued())
        if self.injector is not None:
            gauge("ports_down_input").set(int(self._down_in_prev.sum()))
            gauge("ports_down_output").set(int(self._down_out_prev.sum()))
