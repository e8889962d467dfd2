"""``lcf-faults`` — degraded-mode runs and resilience degradation curves.

Two modes:

* **Single run** (default): simulate one scheduler under a fault plan
  assembled from the flags, print the fault/recovery timeline and a
  degradation summary, optionally writing the JSONL event trace.
* **Sweep** (``--loss-grid`` / ``--availability-grid``): degradation
  curves per scheduler through the parallel sweep engine, with ASCII
  plots and CSV/JSON artifacts.

Examples::

    lcf-faults --scheduler lcf_dist_rr --loss 0.1 \
        --port-down 3:200:400 --slots 1000 --trace-out faults.jsonl
    lcf-faults --schedulers lcf_dist,lcf_dist_rr,pim,islip \
        --loss-grid 0,0.05,0.1,0.2,0.3 --load 0.8 --workers 4 \
        --cache-dir .sweep-cache --csv loss.csv --json report.json
    lcf-faults --schedulers lcf_central_rr,islip \
        --availability-grid 1.0,0.95,0.9,0.8 --ports 8
"""

from __future__ import annotations

import argparse
import sys

from repro import cli
from repro.faults.harness import (
    DEFAULT_AVAILABILITY_GRID,
    DEFAULT_LOSS_GRID,
    run_availability_sweep,
    run_loss_sweep,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import RingTracer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcf-faults",
        description="Fault-injection runs and resilience degradation curves "
        "(LCF reproduction).",
    )
    cli.add_run_options(parser, scheduler="lcf_dist_rr", load=0.8,
                        slots=1000, warmup=200)
    parser.add_argument("--schedulers", default=None,
                        help="comma list for sweep modes "
                        "(default: lcf_dist,lcf_dist_rr,pim,islip)")
    cli.add_fault_options(parser)
    parser.add_argument("--loss-grid", type=cli.parse_grid, default=None,
                        metavar="R0,R1,...",
                        help="sweep message-loss axis over these rates "
                        f"(e.g. {','.join(str(x) for x in DEFAULT_LOSS_GRID)})")
    parser.add_argument("--availability-grid", type=cli.parse_grid, default=None,
                        metavar="A0,A1,...",
                        help="sweep availability axis over these values (e.g. "
                        f"{','.join(str(x) for x in DEFAULT_AVAILABILITY_GRID)})")
    cli.add_sweep_options(parser)
    parser.add_argument("--metric", default="throughput",
                        choices=("throughput", "mean_latency", "delivery"),
                        help="metric for the ASCII degradation plot")
    cli.add_checkpoint_options(parser)
    cli.add_artifact_options(parser, "trace-out", "csv", "json")
    return parser


def _single_run(args: argparse.Namespace, setup: cli.Setup) -> int:
    tracer = cli.open_tracer(args.trace_out, ring=1 << 20)
    metrics = MetricsRegistry()
    result = cli.simulate(args, setup, tracer, metrics)
    if not args.quiet:
        if not args.resume:
            print(f"fault plan: {setup.plan.describe()}")
        if args.checkpoint:
            print(f"checkpoint at {args.checkpoint}")
        print(cli.result_line(result, " (resumed)" if args.resume else ""))
        if "fault_events" in metrics:
            print(
                f"faults: {metrics.counter('fault_events').value} down, "
                f"{metrics.counter('recovery_events').value} recovered, "
                f"{metrics.counter('degraded_slots').value} degraded slot(s), "
                f"{metrics.counter('masked_grants').value} masked grant(s)"
            )
        if isinstance(tracer, RingTracer):
            for event in tracer.of_type("fault") + tracer.of_type("recovery"):
                print(f"  {event}")
    if args.trace_out and not args.quiet:
        print(f"trace written to {args.trace_out}")
    if args.json:
        payload = {"mode": "resume" if args.resume else "single",
                   "scheduler": result.scheduler, "load": result.load}
        if not args.resume:
            payload["plan"] = setup.plan.describe()
        payload["row"] = result.row()
        cli.write_json(args, payload)
    return 0


def _sweep(args: argparse.Namespace, setup: cli.Setup) -> int:
    schedulers = setup.schedulers or ("lcf_dist", "lcf_dist_rr", "pim", "islip")
    common = dict(
        load=args.load,
        config=setup.config,
        traffic=args.traffic,
        replicates=args.replicates,
        processes=args.workers,
        cache=args.cache_dir,
        progress=not args.quiet,
        fast=args.fast,
    )
    try:
        if args.loss_grid is not None:
            report = run_loss_sweep(
                schedulers, rates=args.loss_grid, delay=args.delay, **common,
            )
        else:
            report = run_availability_sweep(
                schedulers, availabilities=args.availability_grid, **common,
            )
    except ValueError as exc:
        raise cli.UsageError(str(exc)) from None
    if not args.quiet:
        print(report.plot(metric=args.metric))
        print(report.summary())
    if args.csv:
        cli.write_artifact(args, args.csv, report.to_csv(), "degradation rows")
    if args.json:
        cli.write_json(
            args,
            {
                "mode": report.axis,
                "load": report.load,
                "schedulers": list(report.schedulers),
                "values": list(report.values),
                "rows": report.rows(),
            },
            "degradation report",
        )
    return 0


def _run(args: argparse.Namespace, setup: cli.Setup) -> int:
    if args.loss_grid is not None and args.availability_grid is not None:
        raise cli.UsageError("choose one of --loss-grid / --availability-grid")
    if args.resume is None and (
        args.loss_grid is not None or args.availability_grid is not None
    ):
        return _sweep(args, setup)
    return _single_run(args, setup)


def main(argv: list[str] | None = None) -> int:
    return cli.run_command(build_parser(), argv, _run)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
