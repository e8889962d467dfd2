"""Scheduler execution speed on the software substrate.

The paper compares hardware scheduling times (Table 2, Section 6.2);
on our Python substrate the equivalent measurement is schedule() calls
per second. The relative picture should echo the asymptotics: the
central LCF's O(n) sequential loop versus the iterative schedulers'
fixed iteration count, the n-scaling of each — and, since the
:mod:`repro.fastpath` layer, the bitset kernels' speedup over their
reference twins.

All timings warm the scheduler up before measuring and report the
median of several rounds (``benchmark.pedantic``) so one-off numpy or
bytecode warmup cost and scheduling noise don't land in the numbers —
the same methodology as :mod:`repro.fastpath.bench`.

Run as a script to (re)generate the committed perf baseline::

    PYTHONPATH=src python benchmarks/bench_scheduler_speed.py BENCH_speed.json

which measures every fastpath kernel against its reference twin at
n in {4, 16, 32, 64, 128, 256} (the widest cells run the kernels on
masks wider than one machine word) and writes the JSON report that
``tools/check_bench_regression.py`` gates CI on. The committed
baseline also carries the ``columnar_*`` replicate-batching families —
regenerate those with ``benchmarks/bench_columnar.py`` — and the
``fabric_clos`` family from ``benchmarks/bench_fabric.py``; this
script preserves families it does not measure.
"""

from __future__ import annotations

import sys

import pytest

from repro.baselines.registry import available_schedulers, make_scheduler
from repro.fastpath.bench import (
    DEFAULT_SIZES,
    request_pool,
    run_speed_suite,
    write_report,
)
from repro.fastpath.registry import fast_schedulers, make_fast_scheduler

#: benchmark.pedantic settings: warm up, then median over ROUNDS rounds.
WARMUP_ROUNDS = 3
ROUNDS = 7
ITERATIONS = 25


def _bench_schedule(benchmark, scheduler, matrices):
    """Time schedule() over the cycled matrix pool, warmed up, median-of-k."""
    pool = len(matrices)
    counter = iter(range(10**9))

    def cycle():
        scheduler.schedule(matrices[next(counter) % pool])

    benchmark.pedantic(
        cycle, warmup_rounds=WARMUP_ROUNDS, rounds=ROUNDS, iterations=ITERATIONS
    )


@pytest.mark.parametrize(
    "name",
    [n for n in available_schedulers() if n != "fifo"],
)
def test_schedule_speed_16_ports(benchmark, name):
    """One scheduling cycle at the paper's 16 ports, ~50% density."""
    _bench_schedule(benchmark, make_scheduler(name, 16), request_pool(16))


@pytest.mark.parametrize("name", sorted(fast_schedulers()))
def test_fastpath_speed_16_ports(benchmark, name):
    """The bitset kernels on the same 16-port workload."""
    _bench_schedule(benchmark, make_fast_scheduler(name, 16), request_pool(16))


@pytest.mark.parametrize("n", [4, 16, 64])
def test_lcf_central_scaling(benchmark, n):
    """Central LCF across switch widths (O(n) outputs x O(n) vector ops)."""
    _bench_schedule(benchmark, make_scheduler("lcf_central", n), request_pool(n))


@pytest.mark.parametrize("n", [4, 16, 64])
def test_fast_lcf_central_rr_scaling(benchmark, n):
    """The flagship bitset kernel across switch widths (one word per row)."""
    _bench_schedule(
        benchmark, make_fast_scheduler("lcf_central_rr", n), request_pool(n)
    )


@pytest.mark.parametrize("n", [4, 16, 64])
def test_lcf_dist_scaling(benchmark, n):
    """Distributed LCF across switch widths (4 iterations)."""
    _bench_schedule(benchmark, make_scheduler("lcf_dist", n), request_pool(n))


def test_hopcroft_karp_speed_16_ports(benchmark):
    """Maximum matching — the 'too slow for high-speed networking'
    reference point (Section 1)."""
    from repro.matching.hopcroft_karp import hopcroft_karp

    matrices = request_pool(16)
    counter = iter(range(10**9))

    def cycle():
        hopcroft_karp(matrices[next(counter) % len(matrices)])

    benchmark.pedantic(
        cycle, warmup_rounds=WARMUP_ROUNDS, rounds=ROUNDS, iterations=ITERATIONS
    )


@pytest.mark.parametrize("fast", [False, True], ids=["reference", "fastpath"])
def test_simulator_slot_throughput(benchmark, fast):
    """Simulator hot loop: one slot of the 16-port crossbar at load 0.9."""
    from benchmarks.conftest import BENCH_CONFIG
    from repro.sim.crossbar import InputQueuedSwitch
    from repro.traffic.bernoulli import BernoulliUniform

    factory = make_fast_scheduler if fast else make_scheduler
    switch = InputQueuedSwitch(BENCH_CONFIG, factory("lcf_central", 16))
    pattern = BernoulliUniform(16, 0.9, seed=1)
    slot_counter = iter(range(10**9))

    def one_slot():
        switch.step(next(slot_counter), pattern.arrivals())

    benchmark.pedantic(
        one_slot, warmup_rounds=WARMUP_ROUNDS, rounds=ROUNDS, iterations=ITERATIONS
    )


def main(argv: list[str] | None = None) -> int:
    """Write the fast-vs-reference speed report (the CI perf baseline).

    Families already in the output file that this suite does not
    measure (e.g. ``fabric_clos`` from ``benchmarks/bench_fabric.py``)
    are preserved, so regenerating the kernel cells cannot silently
    drop another suite's baseline.
    """
    import json
    from pathlib import Path

    argv = sys.argv[1:] if argv is None else argv
    out = argv[0] if argv else "BENCH_speed.json"
    report = run_speed_suite(sizes=DEFAULT_SIZES, progress=print)
    out_path = Path(out)
    if out_path.exists():
        previous = json.loads(out_path.read_text()).get("schedulers", {})
        for family, cells in previous.items():
            report["schedulers"].setdefault(family, cells)
    write_report(report, out)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
