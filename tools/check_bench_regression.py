#!/usr/bin/env python3
"""Perf-regression gate over the fastpath speed report.

Compares a freshly measured ``BENCH_speed.json``-format report against
the committed baseline, on *speedup ratios* (fast over reference) —
absolute slots/sec depend on the host machine, but both layers run in
the same interpreter on the same box, so the ratio is the portable
signal. A cell fails when its speedup drops more than ``--tolerance``
(default 30%) below the baseline, or when it falls below one of the
absolute ``--min`` floors (default: the repo's committed claim that
fastpath ``lcf_central_rr`` is at least 3x the reference at n=16).

Usage::

    PYTHONPATH=src python benchmarks/bench_scheduler_speed.py fresh.json
    python tools/check_bench_regression.py --current fresh.json

Exit status 0 when every cell holds, 1 otherwise — CI's perf-smoke job
runs exactly this pair of commands.
"""

from __future__ import annotations

import argparse
import sys
from fnmatch import fnmatchcase
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.fastpath.bench import (  # noqa: E402
    check_min_speedups,
    compare_reports,
    iter_cells,
    load_report,
)

#: Absolute speedup floors the repo commits to (``name:n:floor``).
#: The columnar floor is the replicate-batching acceptance bar: the
#: engine must hold >= 3x over R=32 fast serial runs at 64 ports. The
#: wavefront twin measured 4.4-5.2x at 16 ports (three full runs on a
#: shared 2-core x86-64 host); its floor leaves room for that spread.
DEFAULT_FLOORS = (
    "lcf_central_rr:16:3.0",
    "wfront:16:3.0",
    "columnar_lcf_central_rr_r32:64:3.0",
)


def family_selected(
    name: str,
    only: tuple[str, ...] | None = None,
    exclude: tuple[str, ...] = (),
) -> bool:
    """Whether a family name passes the ``--only``/``--exclude`` cut.

    Entries are shell-style patterns (``fnmatch``), so family *groups*
    select in one flag — ``--exclude 'columnar_*'`` drops every
    replicate-batching family. A literal name matches itself.
    """
    if any(fnmatchcase(name, pattern) for pattern in exclude):
        return False
    return only is None or any(fnmatchcase(name, pattern) for pattern in only)


def filter_families(
    report: dict,
    only: tuple[str, ...] | None = None,
    exclude: tuple[str, ...] = (),
) -> dict:
    """Keep only the selected benchmark families (top-level
    ``schedulers`` keys — registry scheduler names or composite
    families like ``fabric_clos``), matched as ``fnmatch`` patterns.
    ``only=None`` keeps everything not excluded.

    CI jobs measure disjoint family subsets (perf-smoke re-measures the
    scheduler kernels and excludes the fabric and columnar families;
    the fabric and columnar jobs measure only theirs), so both reports
    must be cut to the same families before comparing — otherwise
    unmeasured families read as "missing from current".
    """
    schedulers = {
        name: cells
        for name, cells in report.get("schedulers", {}).items()
        if family_selected(name, only, exclude)
    }
    return {**report, "schedulers": schedulers}


def prune_report(report: dict, max_n: int | None) -> dict:
    """Drop cells wider than ``max_n`` ports (None keeps everything).

    CI's perf-smoke job measures only up to 64 ports to stay fast, so
    it prunes both reports to the measured widths — otherwise the
    baseline's wider cells would read as "missing from current".
    """
    if max_n is None:
        return report
    schedulers = {
        name: {n: cell for n, cell in cells.items() if int(n) <= max_n}
        for name, cells in report.get("schedulers", {}).items()
    }
    return {**report, "schedulers": schedulers}


def parse_floor(text: str) -> tuple[tuple[str, int], float]:
    try:
        name, n, floor = text.rsplit(":", 2)
        return (name, int(n)), float(floor)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected NAME:N:FLOOR (e.g. lcf_central_rr:16:3.0), got {text!r}"
        ) from None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        default=str(REPO_ROOT / "BENCH_speed.json"),
        help="committed baseline report (default: repo BENCH_speed.json)",
    )
    parser.add_argument(
        "--current",
        required=True,
        help="freshly measured report to check",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fractional speedup drop vs baseline (default 0.30)",
    )
    parser.add_argument(
        "--min",
        dest="floors",
        action="append",
        type=parse_floor,
        metavar="NAME:N:FLOOR",
        help="absolute speedup floor, repeatable "
        f"(default: {', '.join(DEFAULT_FLOORS)})",
    )
    parser.add_argument(
        "--max-n",
        type=int,
        default=None,
        metavar="N",
        help="ignore cells (and floors) wider than N ports — for runs "
        "that measured a width subset of the baseline",
    )
    parser.add_argument(
        "--only",
        action="append",
        default=None,
        metavar="FAMILY",
        help="check only matching benchmark families (repeatable; "
        "fnmatch pattern, e.g. 'columnar_*') — for runs that measured "
        "a family subset of the baseline",
    )
    parser.add_argument(
        "--exclude",
        action="append",
        default=[],
        metavar="FAMILY",
        help="skip matching benchmark families (repeatable; fnmatch "
        "pattern)",
    )
    args = parser.parse_args(argv)
    floors = dict(
        args.floors
        if args.floors is not None
        else (parse_floor(text) for text in DEFAULT_FLOORS)
    )
    if args.max_n is not None:
        floors = {(name, n): f for (name, n), f in floors.items() if n <= args.max_n}
    only = tuple(args.only) if args.only is not None else None
    exclude = tuple(args.exclude)
    floors = {
        (name, n): f
        for (name, n), f in floors.items()
        if family_selected(name, only, exclude)
    }

    baseline = prune_report(
        filter_families(load_report(args.baseline), only, exclude), args.max_n
    )
    current = prune_report(
        filter_families(load_report(args.current), only, exclude), args.max_n
    )
    for name, n, cell in iter_cells(current):
        print(
            f"{name:<16} n={n:<3} ref {cell['reference_slots_per_sec']:>10.0f}/s  "
            f"fast {cell['fast_slots_per_sec']:>10.0f}/s  {cell['speedup']:.2f}x"
        )

    failures = compare_reports(baseline, current, tolerance=args.tolerance)
    failures += check_min_speedups(current, floors)
    if failures:
        print()
        for failure in failures:
            print(f"REGRESSION: {failure}")
        print(f"{len(failures)} perf check(s) failed "
              f"(baseline {args.baseline}, tolerance {args.tolerance:.0%})")
        return 1
    print(f"perf OK: every cell within {args.tolerance:.0%} of "
          f"{args.baseline} and above the absolute floors")
    return 0


if __name__ == "__main__":
    sys.exit(main())
