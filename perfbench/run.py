#!/usr/bin/env python3
"""Benchmark of the Figure 12 simulator: host time end to end, and per layer.

Run from the repository root (no install; ``src/`` is put on the path)::

    python3 perfbench/run.py --workload fig12_n16 --seed 1 --seconds 16 --trace 0

A run makes timed passes over the workload's grid on the fast engines,
sets the workload up several times in fresh processes (``setup_s``),
checks every point's statistics against the reference engine, and prints
a report followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` makes one
untraced pass (for ``trace.overhead``), then one separate traced pass,
and reports the per-layer metrics; its spans are written to
``perfbench/out/``.

``--seconds`` sets the measured work: a run makes ``seconds / nominal``
passes (at least three, and enough for 21 point samples), where the
nominal pass time of each workload was measured on a 2-core x86-64 host
with Python 3.11. The work is therefore
the same on every commit and every host.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPANS_DIR = HERE / "out"
DIGESTS = HERE / "digests.json"
WORKLOAD_NAMES = ("fig12_n16", "wide_n128", "fig12_observed")
#: Fresh processes whose setup time is measured per run (median reported).
SETUP_REPEATS = 5
#: The tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10
#: Fewest timed passes a run makes, whatever ``--seconds`` asks for.
MIN_PASSES = 3


class FirstSlot(BaseException):
    """Stops a setup probe at its first simulated slot. A BaseException
    so that the workload's per-point ``except Exception`` lets it pass."""


def tail_rank(count: int) -> tuple[int, float]:
    """``(rank, percentile)`` of the highest percentile of ``count``
    samples that has at least ``TAIL_BEYOND`` samples above it."""
    if count <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, got {count}")
    rank = count - TAIL_BEYOND
    return rank, 100.0 * rank / count


def tail_percentile(samples: list[float]) -> tuple[float, float, int]:
    """``(value, percentile, sample count)`` of the tail of ``samples``."""
    ordered = sorted(samples)
    rank, percentile = tail_rank(len(ordered))
    return ordered[rank - 1], percentile, len(ordered)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def setup_probe(workload) -> int:
    """Child side of ``setup_s``: run the workload up to the first slot
    and print the monotonic clock there."""
    import repro
    import tracing

    def stop(*args, **kwargs):
        print(repr(time.monotonic()), flush=True)
        raise FirstSlot

    patches = tracing.Patches()
    for cls in tracing.owners(tracing.subclasses(repro.TrafficPattern), "arrivals"):
        patches.method(cls, "arrivals", lambda fn: stop)
    try:
        workload.run_pass()
    except FirstSlot:
        return 0
    finally:
        patches.restore()
    print("setup probe: the workload never simulated a slot", file=sys.stderr)
    return 1


def setup_once(args: argparse.Namespace) -> float:
    """Seconds from spawning a fresh process to its first simulated slot."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--setup-probe",
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
    ]
    start = time.monotonic()
    proc = subprocess.run(command, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{proc.stderr[-4000:]}")
    return float(proc.stdout.split()[-1]) - start


def timed_pass(workload) -> tuple:
    """One untraced pass, and the labels of its points that left their
    path. Only a path-checked workload carries the (count-only) probe,
    so the others time the program with no wrapper at all."""
    if not workload.path_checked:
        return workload.run_pass(), set()
    import tracing
    import workloads

    probe = tracing.PathProbe()
    probe.install()
    try:
        result = workload.run_pass()
    finally:
        probe.restore()
    return result, workloads.path_misses(workload, probe.records)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setup, passes, failed, attempted, rss_mb) -> tuple[dict, dict]:
    elapsed = [s for result in passes for s in result.elapsed.values()]
    tail, percentile, count = tail_percentile(elapsed)
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_s": metric(statistics.median(r.wall_s for r in passes), "s"),
        "point_p50_s": metric(statistics.median(elapsed), "s"),
        "point_tail_s": metric(tail, "s"),
        "peak_rss_mb": metric(rss_mb, "MiB"),
        "pass_ratio": metric(1.0 - failed / attempted, "ratio"),
    }
    notes = {"point_tail_percentile": percentile, "point_samples": count}
    return metrics, notes


def per_layer(tracer, traced, untraced_wall, workload, samples, schedulers) -> dict:
    """The traced run's layer metrics; ``samples`` is the point sample
    count of the timed (``--trace 0``) run, whose tail percentile is
    recorded here."""
    t = tracer
    wall = t.total_s(t.root_layer)
    slots = t.counts.get("crossbar.slots", 0)
    steps = t.calls("crossbar.step")
    fast_calls = t.calls("fastpath")
    attempted_replicates = sum(p.kind == "replicate" for p in workload.points())
    engine_replicates = t.counts.get("columnar.engine_replicates", 0)
    _, percentile = tail_rank(samples)
    values = {
        "traffic.calls": (t.calls("traffic"), "count"),
        "traffic.self_s": (t.self_s("traffic"), "s"),
        "queues.pq.calls": (t.calls("queues.pq"), "count"),
        "queues.pq.self_s": (t.self_s("queues.pq"), "s"),
        "queues.voq.calls": (t.calls("queues.voq"), "count"),
        "queues.voq.self_s": (t.self_s("queues.voq"), "s"),
        "queues.voq_full": (t.counts.get("queues.voq_full", 0), "count"),
        "queues.pq_drops": (t.counts.get("queues.pq_drops", 0), "count"),
        "fastpath.calls": (fast_calls, "count"),
        "fastpath.self_s": (t.self_s("fastpath"), "s"),
        "fastpath.ns_per_call": (
            t.total_s("fastpath") / fast_calls * 1e9 if fast_calls else 0.0,
            "ns",
        ),
        "fastpath.words_to_int.calls": (t.calls("fastpath.words_to_int"), "count"),
        "fastpath.words_to_int.self_s": (t.self_s("fastpath.words_to_int"), "s"),
        "fastpath.pack.calls": (t.calls("fastpath.pack"), "count"),
        "fastpath.pack.self_s": (t.self_s("fastpath.pack"), "s"),
        "reference.calls": (t.calls("reference"), "count"),
        "reference.self_s": (t.self_s("reference"), "s"),
    }
    for name in schedulers:
        values[f"sched.{name}.s"] = (traced.scheduler_seconds.get(name, 0.0), "s")
    values.update(
        {
            "stats.calls": (t.calls("stats"), "count"),
            "stats.self_s": (t.self_s("stats"), "s"),
            "crossbar.slots": (slots, "count"),
            "crossbar.steps": (steps, "count"),
            "crossbar.fast_share": (1.0 - steps / slots if slots else 0.0, "ratio"),
            "crossbar.self_s": (t.self_s("crossbar") + t.self_s("crossbar.step"), "s"),
            "dedicated.self_s": (t.self_s("dedicated"), "s"),
            "simulator.build_s": (t.total_s("simulator.build"), "s"),
            "simulator.self_s": (t.self_s("simulator"), "s"),
            "columnar.replicates": (engine_replicates, "count"),
            "columnar.share": (
                engine_replicates / attempted_replicates if attempted_replicates else 0.0,
                "ratio",
            ),
            "columnar.kernel.self_s": (t.self_s("columnar.kernel"), "s"),
            "columnar.engine.self_s": (t.self_s("columnar.engine"), "s"),
            "sweep.points": (t.counts.get("sweep.points", 0), "count"),
            "sweep.self_s": (t.self_s("sweep"), "s"),
            "sweep.merge_s": (t.total_s("sweep.merge"), "s"),
            "obs.calls": (t.calls("obs"), "count"),
            "obs.self_s": (t.self_s("obs"), "s"),
            "obs.snapshot_s": (t.total_s("obs.snapshot"), "s"),
            "harness.self_s": (t.self_s(t.root_layer), "s"),
            "trace.wall_s": (wall, "s"),
            "trace.overhead": (wall / untraced_wall, "ratio"),
            "point.tail_pct": (percentile, "%"),
            "point.samples": (samples, "count"),
            "model.lcf_outbuf_ratio": (traced.paper_ratio or 0.0, "ratio"),
            "model.paper_ratio_err": (traced.paper_ratio_err or 0.0, "ratio"),
        }
    )
    return {name: metric(value, unit) for name, (value, unit) in values.items()}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload].with_seed(args.seed)
    if args.setup_probe:
        return setup_probe(workload)
    import tracing

    # At least MIN_PASSES, so the median wall_s can reject one disturbed
    # pass, and enough point samples that the tail sits at or above the
    # median, however short --seconds is.
    min_passes = -(-(2 * TAIL_BEYOND + 1) // len(workload.points()))
    timed_passes = max(MIN_PASSES, min_passes, workload.passes(args.seconds))
    # A traced run reports layers, not end-to-end figures: one untraced
    # pass gives trace.overhead its denominator.
    count = 1 if args.trace else timed_passes
    stored = args.seed == workloads.DEFAULT_SEED
    reference = json.loads(DIGESTS.read_text())[args.workload] if stored else {}
    chunks = workload.reference_chunks(count)
    setup, passes, misses = [], [], []
    rss_mb = 0.0
    # Set-up probes and reference runs go between the timed passes, so
    # the passes sample the shared host over the whole run, not one
    # stretch of it.
    for k in range(count):
        if not args.trace:
            setup += [setup_once(args) for _ in range(k, SETUP_REPEATS, count)]
        result, missed = timed_pass(workload)
        passes.append(result)
        misses.append(missed)
        if k == 0:  # before any reference run has touched the heap
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not stored:
            reference.update(workload.reference_digests(chunks[k]))

    traced = tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            with tracer.root():
                traced = workload.run_pass()
        finally:
            tracer.restore()

    attempted = failed = 0
    for result, missed in zip(passes, misses):
        attempted += len(result.digests)
        failed += len(workloads.compare(result.digests, reference) | missed)
    correct = failed == 0
    lines = [
        f"workload {workload.name} seed {args.seed}: {len(passes)} timed pass(es)",
        f"  failed points {failed}/{attempted} (fail_ratio {failed / attempted:.4f})",
    ]

    if args.trace:
        attempted += len(traced.digests)
        bad = workloads.compare(traced.digests, reference)
        bad |= {k for k, v in traced.digests.items() if passes[0].digests.get(k) != v}
        failed += len(bad)
        unaccounted = tracer.total_s(tracer.root_layer) - sum(
            self_s for _, self_s, _ in tracer.layers.values()
        )
        correct = failed == 0 and abs(unaccounted) < 1e-6
        untraced_wall = statistics.median(r.wall_s for r in passes)
        samples = timed_passes * len(workload.points())
        metrics = per_layer(
            tracer, traced, untraced_wall, workload, samples, workloads.PAPER_SCHEDULERS
        )
        lines.append(
            f"  traced pass: statistics {'equal' if not bad else 'DIFFER'}; "
            f"self times leave {unaccounted:.3g} s of the traced wall unaccounted"
        )
        SPANS_DIR.mkdir(exist_ok=True)
        spans_path = SPANS_DIR / f"{workload.name}-seed{args.seed}.json"
        spans_path.write_text(
            json.dumps({"workload": workload.name, "seed": args.seed, **tracer.dump()})
        )
        lines.append(f"  spans written to {spans_path.relative_to(HERE.parent)}")
    else:
        metrics, notes = end_to_end(setup, passes, failed, attempted, rss_mb)
        lines.append(
            f"  point_tail_s is p{notes['point_tail_percentile']:.1f} of "
            f"{notes['point_samples']} point samples"
        )
        if passes[0].paper_ratio is not None:
            lines.append(
                f"  lcf_central/outbuf at load 0.9: {passes[0].paper_ratio:.4f} "
                f"(paper_ratio_err {passes[0].paper_ratio_err:.4f})"
            )
    for name, entry in metrics.items():
        lines.append(f"  {name:<30} {entry['value']:>16.6g} {entry['unit']}")
    print("\n".join(lines))
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
