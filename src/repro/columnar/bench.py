"""The ``columnar_*`` benchmark families: replicate batching vs serial.

The quantity defended here is *replicate-slots per second* — simulated
slots times replicates, per wall-clock second — for a whole replicate
block. The reference is what the block costs without the columnar
engine: R independent fast serial runs (through the same
:func:`~repro.columnar.run.run_replicates` entry point with
``columnar=False``, so the serial side also gets the switch-reuse
optimisation — the honest baseline). ``speedup`` is their ratio, the
same host-portable signal the kernel families gate on.

Report families are named ``columnar_<scheduler>_r<R>`` (e.g.
``columnar_lcf_central_rr_r32``) with the standard per-width cell
schema, so they merge into ``BENCH_speed.json`` and flow through
``tools/check_bench_regression.py`` unchanged. The committed claim —
the acceptance bar of the columnar work — is the
``columnar_lcf_central_rr:r32`` family at >= 3x for n=64.

Whole-simulation timing is expensive, so the suite scales its slot
budget down with width (:func:`scaled_slots`, the analogue of
:func:`repro.fastpath.bench.scaled_cycles`) and reports the median of
``repeats`` windows.
"""

from __future__ import annotations

import statistics
import time

from repro.columnar.kernels import columnar_schedulers
from repro.columnar.run import run_replicates
from repro.fastpath.bench import REPORT_VERSION, _platform_fields
from repro.sim.config import SimConfig

#: Schedulers the columnar families measure — exactly the covered set.
DEFAULT_COLUMNAR_SCHEDULERS = columnar_schedulers()

#: Replicate counts per family (the sweep's common block sizes).
DEFAULT_REPLICATES = (8, 32)

#: Switch widths per cell. 128 exercises request masks wider than one
#: word and the widths where serial per-slot Python overhead peaks.
DEFAULT_COLUMNAR_SIZES = (16, 64, 128)

#: Offered load of the benchmark runs — the paper's high-load region,
#: where queues are occupied and the schedulers do real work.
DEFAULT_LOAD = 0.9

#: Slot budget at the anchor width (full at ``n <= SLOT_ANCHOR``).
DEFAULT_WARMUP_SLOTS = 200
DEFAULT_MEASURE_SLOTS = 600
SLOT_ANCHOR = 64


def scaled_slots(slots: int, n: int, anchor: int = SLOT_ANCHOR, floor: int = 100) -> int:
    """Per-cell slot count: full up to ``anchor`` ports, then inverse
    with width so wall time per cell stays roughly flat (a slot costs
    about O(n) on both the columnar and the serial path)."""
    if n <= anchor:
        return slots
    return max(floor, slots * anchor // n)


def measure_columnar_cell(
    name: str,
    n: int,
    replicates: int,
    load: float = DEFAULT_LOAD,
    warmup_slots: int = DEFAULT_WARMUP_SLOTS,
    measure_slots: int = DEFAULT_MEASURE_SLOTS,
    repeats: int = 3,
) -> dict[str, float]:
    """Columnar vs serial replicate-slot rates for one (name, n, R) cell.

    Both paths run the identical replicate block (same config, same
    seeds, bit-identical results); only the execution strategy differs.
    """
    config = SimConfig(
        n_ports=n,
        warmup_slots=scaled_slots(warmup_slots, n),
        measure_slots=scaled_slots(measure_slots, n),
    )
    rep_slots = config.total_slots * replicates

    def rate(columnar: bool) -> float:
        windows = []
        for _ in range(repeats):
            start = time.perf_counter()
            run_replicates(
                config, name, load, replicates, columnar=columnar, fast=True
            )
            windows.append(rep_slots / (time.perf_counter() - start))
        return statistics.median(windows)

    serial = rate(columnar=False)
    columnar = rate(columnar=True)
    return {
        "reference_slots_per_sec": round(serial, 1),
        "fast_slots_per_sec": round(columnar, 1),
        "speedup": round(columnar / serial, 3),
    }


def columnar_family(name: str, replicates: int) -> str:
    """Report family name of one (scheduler, R) pair."""
    return f"columnar_{name}_r{replicates}"


def run_columnar_suite(
    names: tuple[str, ...] | None = None,
    replicates: tuple[int, ...] = DEFAULT_REPLICATES,
    sizes: tuple[int, ...] = DEFAULT_COLUMNAR_SIZES,
    load: float = DEFAULT_LOAD,
    warmup_slots: int = DEFAULT_WARMUP_SLOTS,
    measure_slots: int = DEFAULT_MEASURE_SLOTS,
    repeats: int = 3,
    progress=None,
) -> dict:
    """Measure every (scheduler, R, n) cell; same report schema as
    :func:`repro.fastpath.bench.run_speed_suite`, families named
    ``columnar_<scheduler>_r<R>``."""
    if names is None:
        names = DEFAULT_COLUMNAR_SCHEDULERS
    report: dict = {
        "version": REPORT_VERSION,
        "load": load,
        "warmup_slots": warmup_slots,
        "measure_slots": measure_slots,
        "repeats": repeats,
        **_platform_fields(),
        "schedulers": {},
    }
    for name in names:
        for r in replicates:
            cells = report["schedulers"].setdefault(columnar_family(name, r), {})
            for n in sizes:
                cells[str(n)] = cell = measure_columnar_cell(
                    name,
                    n,
                    r,
                    load=load,
                    warmup_slots=warmup_slots,
                    measure_slots=measure_slots,
                    repeats=repeats,
                )
                if progress is not None:
                    progress(
                        f"{columnar_family(name, r):<28} n={n:<3} "
                        f"serial {cell['reference_slots_per_sec']:>9.0f} "
                        f"rep-slots/s  columnar {cell['fast_slots_per_sec']:>9.0f} "
                        f"rep-slots/s  {cell['speedup']:.2f}x"
                    )
    return report
