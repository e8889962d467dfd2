"""``lcf-adapt`` — reactive scheduling runs and reactive-vs-oblivious curves.

Two modes:

* **Single run** (default): simulate one scheduler under a fault plan
  twice — fault-blind (oblivious) and adaptive — and print the
  side-by-side degradation plus the health estimator's decisions
  (suspects, probes, readmissions, detection latency). ``--trace-out``
  writes the adaptive run's JSONL event trace.
* **Grid** (``--availability-grid``): reactive-vs-oblivious degradation
  curves per scheduler through the cached parallel sweep engine, with
  CSV/JSON artifacts.

Examples::

    lcf-adapt --scheduler lcf_central_rr --availability 0.9 \
        --ports 8 --slots 1000 --trace-out adapt.jsonl
    lcf-adapt --schedulers lcf_central_rr,islip \
        --availability-grid 1.0,0.95,0.9,0.8 --workers 4 \
        --cache-dir .sweep-cache --csv adapt.csv --json adapt.json
    lcf-adapt --scheduler lcf_dist_rr --link-down 2:5:100:400 \
        --mode ewma --probe-interval 8
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from repro import cli
from repro.adapt.adapter import AdaptiveLCF, ObliviousAdapter
from repro.adapt.config import AdaptConfig
from repro.faults.harness import DEFAULT_AVAILABILITY_GRID, run_adaptive_sweep
from repro.faults.plan import FaultPlan
from repro.obs.metrics import MetricsRegistry
from repro.sim.config import SimConfig
from repro.sim.simulator import run_simulation

#: Availability a single run degrades to when no fault flag is given —
#: something must fail, or there is nothing to react to.
DEFAULT_AVAILABILITY = 0.9


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcf-adapt",
        description="Fault-reactive scheduling runs and reactive-vs-oblivious "
        "degradation curves (LCF reproduction).",
    )
    cli.add_run_options(parser, scheduler="lcf_central_rr", load=0.8,
                        slots=1000, warmup=200)
    parser.add_argument("--schedulers", default=None,
                        help="comma list for grid mode "
                        "(default: lcf_central_rr,lcf_dist_rr)")
    cli.add_fault_options(
        parser, rates=False,
        availability_note=f" (default {DEFAULT_AVAILABILITY} when no other "
        "fault flag is given)",
    )
    # Reaction parameters (see repro.adapt.AdaptConfig).
    parser.add_argument("--mode", default="count", choices=("count", "ewma"),
                        help="evidence accumulator")
    parser.add_argument("--detection-window", type=int, default=None,
                        metavar="N", help="failed grants before suspect")
    parser.add_argument("--probation-window", type=int, default=None,
                        metavar="N", help="probe successes before readmit")
    parser.add_argument("--probe-interval", type=int, default=None,
                        metavar="SLOTS", help="slots between probe grants")
    parser.add_argument("--port-window", type=int, default=None, metavar="N",
                        help="per-port failure window (0 disables)")
    parser.add_argument("--starvation-window", type=int, default=None,
                        metavar="SLOTS",
                        help="ungranted-request strike window (0 disables)")
    parser.add_argument("--ewma-alpha", type=float, default=None)
    parser.add_argument("--suspect-threshold", type=float, default=None)
    parser.add_argument("--readmit-threshold", type=float, default=None)
    parser.add_argument("--availability-grid", type=cli.parse_grid, default=None,
                        metavar="A0,A1,...",
                        help="compare stances over these availabilities (e.g. "
                        f"{','.join(str(x) for x in DEFAULT_AVAILABILITY_GRID)})")
    cli.add_sweep_options(parser)
    # Checkpointing applies to the adaptive run; a resumed comparison
    # re-runs the cheap, deterministic oblivious baseline from scratch.
    cli.add_checkpoint_options(parser, admission=False, stop_at=False)
    cli.add_artifact_options(parser, "trace-out", "csv", "json")
    return parser


def _build_config(args: argparse.Namespace) -> AdaptConfig:
    """An :class:`AdaptConfig` from the reaction flags (unset flags keep
    the config defaults)."""
    fields = {
        "mode": args.mode,
        "detection_window": args.detection_window,
        "probation_window": args.probation_window,
        "probe_interval": args.probe_interval,
        "port_detection_window": args.port_window,
        "starvation_window": args.starvation_window,
        "ewma_alpha": args.ewma_alpha,
        "suspect_threshold": args.suspect_threshold,
        "readmit_threshold": args.readmit_threshold,
    }
    try:
        return AdaptConfig(**{k: v for k, v in fields.items() if v is not None})
    except ValueError as exc:
        raise cli.UsageError(f"invalid reaction config: {exc}") from None


def _single_run(args: argparse.Namespace, setup: cli.Setup, adapt: AdaptConfig) -> int:
    plan = setup.plan
    if args.availability is None and not args.port_down and not args.link_down:
        plan = FaultPlan.availability(args.ports, DEFAULT_AVAILABILITY)
    run = setup.resumed
    if run is None:
        blind = run_simulation(
            setup.config, args.scheduler, args.load, traffic=args.traffic,
            faults=plan, adapter=ObliviousAdapter(), fast=args.fast,
        )
    else:
        blind = run_simulation(
            SimConfig(**run["config"]), run["scheduler"], run["load"],
            traffic=run["traffic"], traffic_kwargs=run["traffic_kwargs"],
            faults=run["faults"], adapter=ObliviousAdapter(), fast=run["fast"],
        )
    tracer = cli.open_tracer(args.trace_out, ring=1 << 20)
    metrics = MetricsRegistry()
    adapter = AdaptiveLCF(adapt)
    reactive = cli.simulate(
        args, replace(setup, plan=plan), tracer, metrics, adapter=adapter
    )
    if not args.quiet:
        if args.checkpoint:
            print(f"checkpoint at {args.checkpoint}")
        if run is None:
            print(f"fault plan: {plan.describe()}")
            print(f"reaction:   {adapt.describe()}")
        for stance, result in (("oblivious", blind), ("adaptive", reactive)):
            print(cli.result_line(result, f" [{stance:9s}]"))
        if run is None:
            print(adapter.summary())
        if "detection_latency" in metrics:
            hist = metrics.histogram(
                "detection_latency",
                (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
            )
            if hist.count:
                print(f"detection latency: mean {hist.mean:.1f} slot(s) "
                      f"over {hist.count} detection(s)")
        if args.trace_out:
            print(f"trace written to {args.trace_out}")
    if args.json:
        payload = {"mode": "single" if run is None else "resume",
                   "scheduler": reactive.scheduler, "load": reactive.load}
        if run is None:
            payload["plan"] = plan.describe()
            payload["adapt"] = dict(adapt.to_spec())
        else:
            payload["adapt"] = dict(run["adapt"] or [])
        payload["oblivious"] = blind.row()
        payload["adaptive"] = reactive.row()
        cli.write_json(args, payload)
    return 0


def _grid(args: argparse.Namespace, setup: cli.Setup, adapt: AdaptConfig) -> int:
    try:
        report = run_adaptive_sweep(
            setup.schedulers or ("lcf_central_rr", "lcf_dist_rr"),
            availabilities=args.availability_grid,
            load=args.load,
            config=setup.config,
            adapt=adapt,
            traffic=args.traffic,
            replicates=args.replicates,
            processes=args.workers,
            cache=args.cache_dir,
            progress=not args.quiet,
            fast=args.fast,
        )
    except ValueError as exc:
        raise cli.UsageError(str(exc)) from None
    if not args.quiet:
        print(report.summary())
    if args.csv:
        cli.write_artifact(args, args.csv, report.to_csv(), "comparison rows")
    if args.json:
        cli.write_json(
            args,
            {
                "mode": "availability",
                "load": report.load,
                "schedulers": list(report.schedulers),
                "values": list(report.values),
                "adapt": dict(report.adapt_spec),
                "rows": report.rows(),
            },
            "comparison report",
        )
    return 0


def _run(args: argparse.Namespace, setup: cli.Setup) -> int:
    adapt = _build_config(args)
    if args.resume is None and args.availability_grid is not None:
        return _grid(args, setup, adapt)
    return _single_run(args, setup, adapt)


def main(argv: list[str] | None = None) -> int:
    return cli.run_command(build_parser(), argv, _run)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
