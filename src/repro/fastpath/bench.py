"""Scheduler-speed measurement and the perf-regression report format.

The paper's Table 2 compares hardware scheduling times; our software
equivalent is ``schedule()`` calls per second, and the quantity this
module is built to defend is the *speedup ratio* of each fastpath
kernel over its reference twin. Ratios are what regression checking
compares — absolute slots/sec shift with the host machine, but fast
and reference kernels run on the same interpreter on the same box, so
their ratio is stable enough to gate on.

Methodology (shared by ``benchmarks/bench_scheduler_speed.py`` and the
CI perf-smoke job):

* a fixed pool of seeded ~50%-density request matrices, cycled so no
  call sees a cached matrix object twice in a row;
* explicit warmup cycles before any timing (first calls pay numpy
  and bytecode warmup);
* median of ``repeats`` independent timing windows — robust against
  one-off scheduler hiccups on a loaded machine.

The report is plain JSON (``BENCH_speed.json`` at the repo root is the
committed baseline); ``compare_reports`` + ``check_min_speedups`` are
the library behind ``tools/check_bench_regression.py``.
"""

from __future__ import annotations

import json
import platform
import statistics
import time
from pathlib import Path

import numpy as np

from repro.baselines.registry import make_scheduler
from repro.fastpath.registry import fast_schedulers, make_fast_scheduler

#: Report schema version (bump on incompatible shape changes).
REPORT_VERSION = 1

#: Switch widths the standard suite measures. 64 is the last width whose
#: rows fit one machine word; 128 and 256 run the same kernels on wide
#: Python-int masks, the widths the scaling guide extrapolates to.
DEFAULT_SIZES = (4, 16, 32, 64, 128, 256)

#: Width at and below which cells run the caller's full cycle count;
#: wider cells scale cycles down inversely (see :func:`scaled_cycles`).
CYCLE_ANCHOR = 16

#: Request density of the benchmark matrices (the paper's ~50% load).
DEFAULT_DENSITY = 0.5

#: Matrices in the cycled pool (power of two so ``k & 63`` cycles it).
POOL_SIZE = 64


def _platform_fields() -> dict:
    """Host fields every report carries (shared by the columnar suite)."""
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def request_pool(
    n: int, density: float = DEFAULT_DENSITY, seed: int = 42
) -> list[np.ndarray]:
    """The seeded pool of boolean request matrices every measurement uses."""
    rng = np.random.default_rng(seed)
    return [rng.random((n, n)) < density for _ in range(POOL_SIZE)]


def scaled_cycles(cycles: int, n: int, anchor: int = CYCLE_ANCHOR, floor: int = 48) -> int:
    """Per-cell cycle count: full up to ``anchor`` ports, then inverse
    with width so a 128-port cell costs about what a 16-port cell does
    (one schedule() call is roughly linear in ``n`` for both layers).
    ``floor`` keeps wide cells statistically meaningful."""
    if n <= anchor:
        return cycles
    return max(floor, cycles * anchor // n)


def measure_rate(
    scheduler,
    matrices: list[np.ndarray],
    cycles: int = 2000,
    repeats: int = 5,
    warmup_cycles: int = 200,
) -> float:
    """Median schedule() calls per second over ``repeats`` timing windows."""
    pool = len(matrices)
    schedule = scheduler.schedule
    for k in range(warmup_cycles):
        schedule(matrices[k % pool])
    rates = []
    for _ in range(repeats):
        start = time.perf_counter()
        for k in range(cycles):
            schedule(matrices[k % pool])
        rates.append(cycles / (time.perf_counter() - start))
    return statistics.median(rates)


def measure_pair(
    name: str,
    n: int,
    cycles: int = 2000,
    repeats: int = 5,
    warmup_cycles: int = 200,
    density: float = DEFAULT_DENSITY,
) -> dict[str, float]:
    """Reference vs fastpath rates and their ratio for one (name, n)."""
    matrices = request_pool(n, density)
    reference = measure_rate(
        make_scheduler(name, n), matrices, cycles, repeats, warmup_cycles
    )
    fast = measure_rate(
        make_fast_scheduler(name, n), matrices, cycles, repeats, warmup_cycles
    )
    return {
        "reference_slots_per_sec": round(reference, 1),
        "fast_slots_per_sec": round(fast, 1),
        "speedup": round(fast / reference, 3),
    }


def run_speed_suite(
    names: tuple[str, ...] | None = None,
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    cycles: int = 2000,
    repeats: int = 5,
    warmup_cycles: int = 200,
    progress=None,
) -> dict:
    """Measure every (scheduler, n) cell and package the report dict.

    ``cycles``/``warmup_cycles`` are the budgets at the anchor width;
    wider cells run :func:`scaled_cycles` of them so the suite's wall
    time stays flat per cell instead of quadratic in width. Speedup
    ratios are unaffected — both layers of a pair always run the same
    cycle count.
    """
    if names is None:
        names = fast_schedulers()
    report: dict = {
        "version": REPORT_VERSION,
        "density": DEFAULT_DENSITY,
        "cycles": cycles,
        "repeats": repeats,
        "warmup_cycles": warmup_cycles,
        **_platform_fields(),
        "schedulers": {},
    }
    for name in names:
        cells = report["schedulers"].setdefault(name, {})
        for n in sizes:
            cells[str(n)] = cell = measure_pair(
                name,
                n,
                cycles=scaled_cycles(cycles, n),
                repeats=repeats,
                warmup_cycles=scaled_cycles(warmup_cycles, n, floor=10),
            )
            if progress is not None:
                progress(
                    f"{name:<16} n={n:<3} "
                    f"ref {cell['reference_slots_per_sec']:>10.0f}/s  "
                    f"fast {cell['fast_slots_per_sec']:>10.0f}/s  "
                    f"{cell['speedup']:.2f}x"
                )
    return report


def write_report(report: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def load_report(path: str | Path) -> dict:
    report = json.loads(Path(path).read_text())
    version = report.get("version")
    if version != REPORT_VERSION:
        raise ValueError(
            f"{path}: report version {version!r}, expected {REPORT_VERSION}"
        )
    return report


def iter_cells(report: dict):
    """Yield ``(name, n, cell)`` for every measured cell of a report."""
    for name, cells in sorted(report.get("schedulers", {}).items()):
        for n_text, cell in sorted(cells.items(), key=lambda item: int(item[0])):
            yield name, int(n_text), cell


def compare_reports(
    baseline: dict, current: dict, tolerance: float = 0.30
) -> list[str]:
    """Speedup-ratio regressions of ``current`` against ``baseline``.

    A cell regresses when its current speedup falls more than
    ``tolerance`` (fractionally) below the baseline speedup. Cells
    missing from ``current`` are regressions too — silently dropping a
    kernel from the suite must not pass. Extra cells are fine.
    """
    failures = []
    current_cells = {
        (name, n): cell for name, n, cell in iter_cells(current)
    }
    for name, n, base_cell in iter_cells(baseline):
        cell = current_cells.get((name, n))
        if cell is None:
            failures.append(f"{name} n={n}: missing from current report")
            continue
        floor = base_cell["speedup"] * (1.0 - tolerance)
        if cell["speedup"] < floor:
            failures.append(
                f"{name} n={n}: speedup {cell['speedup']:.2f}x fell below "
                f"{floor:.2f}x (baseline {base_cell['speedup']:.2f}x "
                f"- {tolerance:.0%} tolerance)"
            )
    return failures


def check_min_speedups(
    report: dict, floors: dict[tuple[str, int], float]
) -> list[str]:
    """Absolute speedup floors (e.g. the >= 3x lcf_central_rr@16 claim)."""
    cells = {(name, n): cell for name, n, cell in iter_cells(report)}
    failures = []
    for (name, n), floor in sorted(floors.items()):
        cell = cells.get((name, n))
        if cell is None:
            failures.append(f"{name} n={n}: not measured, floor {floor:g}x unchecked")
        elif cell["speedup"] < floor:
            failures.append(
                f"{name} n={n}: speedup {cell['speedup']:.2f}x below the "
                f"required {floor:g}x floor"
            )
    return failures
