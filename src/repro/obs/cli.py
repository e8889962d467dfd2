"""``lcf-trace`` — run one traced simulation and explain its decisions.

Runs a configured simulation with the :mod:`repro.obs` instrumentation
attached, writes the per-slot event trace (JSONL and/or a Chrome
trace-event JSON loadable in Perfetto / ``chrome://tracing``), and
prints a scheduler decision summary: RR-override rate, mean matching
size against the maximum-matching yardstick from :mod:`repro.matching`,
and the choice-count / tie-break-depth distributions.

Examples::

    lcf-trace --scheduler lcf_central_rr --load 0.9 --slots 1000 \
        --out trace.jsonl --chrome trace.json
    lcf-trace --scheduler lcf_dist --ports 8 --slots 500
    lcf-trace --scheduler pim --no-max-matching --quiet --out t.jsonl
"""

from __future__ import annotations

import argparse
import sys

from repro import cli
from repro.baselines.registry import make_scheduler
from repro.fastpath.registry import make_fast_scheduler
from repro.obs.chrome import write_chrome_trace
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.probe import MatchingQualityProbe
from repro.obs.tracer import events_from_jsonl
from repro.sim.crossbar import InputQueuedSwitch
from repro.traffic.base import make_traffic

#: Events a run without ``--out`` keeps in memory for ``--chrome``.
RING_CAPACITY = 1 << 20


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcf-trace",
        description="Traced single-run harness: per-slot event trace plus a "
        "scheduler decision summary (LCF reproduction).",
    )
    cli.add_run_options(parser, scheduler="lcf_central_rr", load=0.9,
                        slots=1000, warmup=0)
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write the JSONL event trace here")
    parser.add_argument("--chrome", metavar="PATH", default=None,
                        help="write a Chrome trace-event JSON (Perfetto-loadable)")
    parser.add_argument("--no-max-matching", action="store_true",
                        help="skip the per-slot Hopcroft-Karp maximum-matching "
                        "yardstick (faster for big runs)")
    parser.add_argument("--snapshot", metavar="PATH", default=None,
                        help="dump a final OpenMetrics snapshot of the run's "
                        "metrics registry here (.json suffix switches to JSON)")
    # --checkpoint/--resume switch to the plain run_simulation driver;
    # the Hopcroft-Karp probe summary is skipped there.
    cli.add_checkpoint_options(parser)
    cli.add_artifact_options(parser)
    return parser


def _rate(num: float, den: float) -> float:
    return num / den if den else float("nan")


def _write_outputs(args, tracer, metrics: MetricsRegistry, final_slot) -> None:
    """The --out / --chrome / --snapshot reports of a finished run."""
    if args.out and not args.quiet:
        print(f"wrote {args.out} ({tracer.emitted} events)")
    if args.chrome:
        events = events_from_jsonl(args.out) if args.out else tracer.events
        spans = write_chrome_trace(events, args.chrome)
        if not args.quiet:
            print(f"wrote {args.chrome} ({spans} trace events)")
    if args.snapshot:
        from repro.ioutil import atomic_write_text
        from repro.obs.serve import render_json, render_openmetrics

        render = (
            render_json if args.snapshot.endswith(".json") else render_openmetrics
        )
        atomic_write_text(args.snapshot, render(metrics, slot=final_slot))
        if not args.quiet:
            print(f"wrote {args.snapshot} ({len(metrics)} metrics)")


def _run_checkpointed(args, setup: cli.Setup) -> int:
    """--checkpoint / --resume flows: the run_simulation driver."""
    tracer = cli.open_tracer(args.out, ring=RING_CAPACITY if args.chrome else 0)
    metrics = MetricsRegistry()
    result = cli.simulate(args, setup, tracer, metrics)
    _write_outputs(args, tracer, metrics, final_slot=None)
    if not args.quiet:
        if args.checkpoint:
            print(f"checkpoint at {args.checkpoint}")
        print(cli.result_line(result))
    return 0


def _run(args, setup: cli.Setup) -> int:
    if args.checkpoint or args.resume:
        return _run_checkpointed(args, setup)
    config = setup.config
    factory = make_fast_scheduler if args.fast else make_scheduler
    scheduler = factory(
        args.scheduler, args.ports, iterations=args.iterations, seed=args.seed
    )
    probe = None
    if not args.no_max_matching and getattr(scheduler, "weight_kind", None) is None:
        probe = MatchingQualityProbe(scheduler)

    tracer = cli.open_tracer(args.out, ring=RING_CAPACITY)
    metrics = MetricsRegistry()
    from repro.sim.admission import make_admission

    switch = InputQueuedSwitch(
        config, probe or scheduler, tracer=tracer, metrics=metrics,
        admission=make_admission(setup.admission),
    )
    pattern = make_traffic(args.traffic, args.ports, args.load, seed=args.seed)

    # `measuring` gates statistics only; the tracer sees every slot,
    # which is what a timeline viewer wants.
    for slot in range(config.total_slots):
        if slot == config.warmup_slots:
            switch.measuring = True
        switch.step(slot, pattern.arrivals())
    tracer.close()

    final_slot = config.total_slots - 1 if config.total_slots else None
    _write_outputs(args, tracer, metrics, final_slot)
    if not args.quiet:
        print(decision_summary(args, switch, metrics, probe))
    return 0


def main(argv: list[str] | None = None) -> int:
    return cli.run_command(build_parser(), argv, _run)


def decision_summary(
    args, switch: InputQueuedSwitch, metrics: MetricsRegistry, probe
) -> str:
    """Render the post-run scheduler decision report."""
    slots = metrics.counter("slots").value
    grants = metrics.counter("grants").value
    overrides = metrics.counter("rr_overrides").value
    matching = metrics.get("matching_size")
    lines = [
        "",
        f"== lcf-trace: {args.scheduler} n={args.ports} load={args.load} "
        f"slots={slots} seed={args.seed} ==",
        f"offered {switch.offered}  forwarded {switch.forwarded}  "
        f"dropped {switch.dropped}",
        f"mean matching size      {matching.mean:8.3f}  (max observed "
        f"{matching.max:g})" if isinstance(matching, Histogram) else "",
    ]
    if probe is not None and probe.slots:
        lines.append(
            f"mean maximum matching   {probe.mean_maximum:8.3f}  "
            f"(Hopcroft-Karp yardstick)"
        )
        lines.append(
            f"matching efficiency     {probe.efficiency:8.3f}  "
            f"(achieved / maximum, pooled)"
        )
    lines.append(
        f"RR-override rate        {_rate(overrides, slots):8.3f} per slot  "
        f"({_rate(overrides, grants):.4f} of grants)"
    )
    quantiles = switch.delay_quantiles
    if quantiles is not None and quantiles.count:
        lines.append(
            f"live delay percentiles  {quantiles.summary()}  "
            f"(P2 streaming, {quantiles.count} samples)"
        )
    estimator = switch.rate_estimator
    if estimator is not None and estimator.events:
        at = switch._live_slot
        lines.append(
            f"live service rate       {estimator.total_rate(at):8.3f} "
            f"forwards/slot (EWMA alpha={estimator.alpha:g})"
        )
        hottest = ", ".join(
            f"{i}->{j} {rate:.3f}" for i, j, rate in estimator.top_pairs(at)
        )
        if hottest:
            lines.append(f"hottest pairs           {hottest}")
    choices = metrics.get("choice_count")
    if isinstance(choices, Histogram) and choices.count:
        lines.append(f"granted-input choice count (mean {choices.mean:.2f}):")
        lines.append(choices.render())
    depth = metrics.get("tie_break_depth")
    if isinstance(depth, Histogram) and depth.count:
        lines.append(f"tie-break chain depth (mean {depth.mean:.2f}):")
        lines.append(depth.render())
    return "\n".join(line for line in lines if line)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
