"""The benchmark's workloads and its correctness gate.

Every workload is a batch: one caller in one process submits its whole
grid, waits for it and times it. The benchmark seed only replaces the
base ``SimConfig.seed``; the grid itself is fixed. All traffic is the
paper's uniform Bernoulli pattern, so no operation is expected to fail.

* ``fig12_n16`` -- the paper's deliverable: the Figure 12 sweep, 9
  schedulers x 7 loads at the reduced ``BENCH_CONFIG`` windows, fast
  kernels, serial. Single-word masks, so the per-packet queue, traffic
  and statistics layers carry ~40% of the time and the reference-only
  ``wfront`` ~20%; the multi-word and columnar code never runs.
* ``wide_n128`` -- n=128 at load 0.9: three serial fast points plus one
  columnar sweep (two schedulers x 8 replicates). The multi-word
  kernels, ``words_to_int`` and the columnar engine do most of the work.
* ``fig12_observed`` -- four schedulers at loads 0.5 and 0.9 with a
  ``MetricsRegistry`` attached and snapshotted per point, which today
  knocks every run off the fast slot loop.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field, replace

import repro
from repro.baselines.registry import PAPER_SCHEDULERS

#: ``BENCH_CONFIG`` of ``benchmarks/conftest.py``: the paper's 16-port
#: switch (VOQ 256, PQ 1000, 4 iterations) with reduced windows.
BENCH_CONFIG = repro.SimConfig(
    n_ports=16,
    voq_capacity=256,
    pq_capacity=1000,
    iterations=4,
    warmup_slots=300,
    measure_slots=1500,
    seed=1,
)
#: ``BENCH_LOADS`` of ``benchmarks/conftest.py``: flat region, knee and
#: saturation of Figure 12.
BENCH_LOADS = (0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 1.0)
#: n=128 with windows short enough that a pass takes a few seconds; the
#: per-slot cost, not the window, is what this workload measures.
WIDE_CONFIG = BENCH_CONFIG.with_(n_ports=128, warmup_slots=60, measure_slots=240)

#: Seed whose reference digests ship with the benchmark (digests.json).
DEFAULT_SEED = BENCH_CONFIG.seed

#: Section 6.3: "the latency for lcf_central is about 1.4 times the
#: latency of outbuf" at high load.
PAPER_RATIO = 1.4
PAPER_RATIO_LOAD = 0.9


@dataclass(frozen=True)
class Point:
    """One simulated point of a workload and the run that produces it."""

    #: ``"point"``: one ``run_simulation`` call; ``"replicate"``: one
    #: replicate of a ``run_replicates`` block.
    kind: str
    part: str
    scheduler: str
    load: float
    seed: int

    @property
    def label(self) -> str:
        return f"{self.part}/{self.scheduler}@{self.load:g}#{self.seed}"

    @property
    def run_key(self) -> tuple[str, float, int]:
        """Points with equal keys are the same experiment."""
        return (self.scheduler, self.load, self.seed)


@dataclass
class PassResult:
    """What one pass over a workload produced."""

    wall_s: float = 0.0
    #: label -> host seconds of that point (block time shared evenly
    #: across a columnar block's replicates).
    elapsed: dict[str, float] = field(default_factory=dict)
    #: label -> statistics digest, or None if the point raised.
    digests: dict[str, list | None] = field(default_factory=dict)
    #: ``SweepRunReport.scheduler_seconds`` of the pass's sweep.
    scheduler_seconds: dict[str, float] = field(default_factory=dict)
    #: lcf_central / outbuf mean latency at load 0.9 (fig12_n16 only).
    paper_ratio: float | None = None

    @property
    def paper_ratio_err(self) -> float | None:
        """Distance of ``paper_ratio`` from the paper's 1.4."""
        return None if self.paper_ratio is None else abs(self.paper_ratio - PAPER_RATIO)


def digest(result) -> list:
    """The statistics the correctness gate compares, exactly: offered,
    forwarded, dropped, the Welford mean/std and min/max latency."""
    return [
        int(result.offered),
        int(result.forwarded),
        int(result.dropped),
        float(result.mean_latency).hex(),
        float(result.std_latency).hex(),
        float(result.min_latency).hex(),
        float(result.max_latency).hex(),
    ]


@dataclass(frozen=True)
class Workload:
    """A fixed grid; ``config.seed`` is the only thing a seed changes."""

    name: str
    config: repro.SimConfig
    #: Sweep over (schedulers x loads), replicate count and columnar flag.
    sweep_schedulers: tuple[str, ...] = ()
    sweep_loads: tuple[float, ...] = ()
    replicates: int = 1
    columnar: bool = False
    #: Serial ``run_simulation`` points over (schedulers x loads).
    serial_schedulers: tuple[str, ...] = ()
    serial_loads: tuple[float, ...] = ()
    #: Attach a ``MetricsRegistry`` to the serial points.
    observed: bool = False
    #: Whether a point with a fast kernel must stay on the fast slot
    #: loop (and a columnar block on the columnar engine).
    path_checked: bool = True
    #: Host seconds of one pass on the machine the benchmark was tuned
    #: on; ``--seconds`` / this is the number of passes a run measures.
    nominal_pass_s: float = 1.0

    def with_seed(self, seed: int) -> "Workload":
        return replace(self, config=self.config.with_(seed=seed))

    def passes(self, seconds: float) -> int:
        return max(1, round(seconds / self.nominal_pass_s))

    def _sweep_spec(self) -> repro.SweepSpec:
        return repro.SweepSpec(
            schedulers=self.sweep_schedulers,
            loads=self.sweep_loads,
            config=self.config,
            replicates=self.replicates,
        )

    def points(self) -> list[Point]:
        """Every point of one pass, in execution order."""
        points = [
            Point("point", "serial", name, load, self.config.seed)
            for name in self.serial_schedulers
            for load in self.serial_loads
        ]
        if self.sweep_schedulers:
            kind = "replicate" if self.columnar else "point"
            part = "columnar" if self.columnar else "sweep"
            points += [
                Point(kind, part, p.scheduler, p.load, p.seed)
                for p in self._sweep_spec().points()
            ]
        return points

    def run_pass(self) -> PassResult:
        """Run the grid once on the fast engines, timing every point."""
        out = PassResult()
        start = time.perf_counter()
        for point in self.points():
            if point.part == "serial":
                self._serial_point(point, out)
        if self.sweep_schedulers:
            self._sweep(out)
        out.wall_s = time.perf_counter() - start
        return out

    def _serial_point(self, point: Point, out: PassResult) -> None:
        registry = repro.MetricsRegistry() if self.observed else None
        start = time.perf_counter()
        try:
            result = repro.run_simulation(
                self.config, point.scheduler, point.load, fast=True, metrics=registry
            )
            if registry is not None:
                registry.snapshot()
            out.digests[point.label] = digest(result)
        except Exception:  # a raising point is a failed point, not a crash
            traceback.print_exc()
            out.digests[point.label] = None
        out.elapsed[point.label] = time.perf_counter() - start

    def _sweep(self, out: PassResult) -> None:
        labels = [p.label for p in self.points() if p.part != "serial"]
        start = time.perf_counter()
        try:
            run = repro.ParallelRunner(
                workers=1, fast=True, columnar=self.columnar
            ).run(self._sweep_spec())
        except Exception:  # the whole sweep's points failed
            traceback.print_exc()
            share = (time.perf_counter() - start) / len(labels)
            for label in labels:
                out.digests[label] = None
                out.elapsed[label] = share
            return
        for label, outcome in zip(labels, run.outcomes):
            out.digests[label] = digest(outcome.result)
            out.elapsed[label] = outcome.elapsed
        out.scheduler_seconds = dict(run.report.scheduler_seconds)
        if {"lcf_central", "outbuf"} <= set(self.sweep_schedulers) and (
            PAPER_RATIO_LOAD in self.sweep_loads
        ):
            out.paper_ratio = (
                run.get("lcf_central", PAPER_RATIO_LOAD).mean_latency
                / run.get("outbuf", PAPER_RATIO_LOAD).mean_latency
            )

    def reference_digests(self, points: list[Point] | None = None) -> dict[str, list]:
        """Digests from the reference engine: serial, ``fast=False``,
        uninstrumented ``run_simulation``, one call per distinct run."""
        by_run: dict[tuple, list] = {}
        digests = {}
        for point in self.points() if points is None else points:
            if point.run_key not in by_run:
                by_run[point.run_key] = digest(
                    repro.run_simulation(
                        self.config.with_(seed=point.seed),
                        point.scheduler,
                        point.load,
                        fast=False,
                    )
                )
            digests[point.label] = by_run[point.run_key]
        return digests

    def reference_chunks(self, count: int) -> list[list[Point]]:
        """The points split into ``count`` groups of distinct runs, dealt
        round-robin, so the reference work can be spread over a run."""
        points = self.points()
        runs = list(dict.fromkeys(p.run_key for p in points))
        group = {key: index % count for index, key in enumerate(runs)}
        return [[p for p in points if group[p.run_key] == k] for k in range(count)]


WORKLOADS = {
    "fig12_n16": Workload(
        name="fig12_n16",
        config=BENCH_CONFIG,
        sweep_schedulers=PAPER_SCHEDULERS,
        sweep_loads=BENCH_LOADS,
        nominal_pass_s=9.5,
    ),
    "wide_n128": Workload(
        name="wide_n128",
        config=WIDE_CONFIG,
        serial_schedulers=("lcf_central_rr", "lcf_dist_rr", "pim"),
        serial_loads=(0.9,),
        sweep_schedulers=("lcf_central_rr", "islip"),
        sweep_loads=(0.9,),
        replicates=8,
        columnar=True,
        nominal_pass_s=3.5,
    ),
    "fig12_observed": Workload(
        name="fig12_observed",
        config=BENCH_CONFIG,
        serial_schedulers=("lcf_central_rr", "lcf_dist_rr", "islip", "pim"),
        serial_loads=(0.5, 0.9),
        observed=True,
        path_checked=False,
        nominal_pass_s=3.9,
    ),
}


def compare(
    digests: dict[str, list | None], reference: dict[str, list]
) -> set[str]:
    """Labels whose digest is missing, raised, or differs from the
    reference's -- the correctness gate."""
    return {
        label
        for label, value in digests.items()
        if value is None or reference.get(label) != value
    }


def path_misses(workload: Workload, records: list[dict]) -> set[str]:
    """Labels of points that left their intended path.

    A ``run_simulation`` point whose scheduler has a fast kernel must run
    every crossbar slot on the fast loop (``step`` never called); a
    ``run_replicates`` block must advance all its replicates on the
    columnar engine. Only a ``path_checked`` workload is probed.
    """
    misses = set()
    points = workload.points()
    labels = {p.label for p in points}
    parts = {p.kind: p.part for p in points}
    for record in records:
        part = parts.get(record["kind"])
        if part is None:
            continue
        if record["kind"] == "point":
            off_path = repro.has_fast_kernel(record["scheduler"]) and (
                record["steps"] > 0 or record["slots"] == 0
            )
        else:
            off_path = record["columnar"] != len(record["seeds"])
        if off_path:
            misses.update(
                Point(record["kind"], part, record["scheduler"], record["load"], seed).label
                for seed in record["seeds"]
            )
    return misses & labels
