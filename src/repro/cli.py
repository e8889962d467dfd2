"""Run options shared by the ``lcf-*`` commands.

``lcf-sweep``, ``lcf-trace``, ``lcf-faults``, ``lcf-adapt`` and
``lcf-fabric`` build their parsers from the option groups below, so a
flag such as ``--seed`` or ``--checkpoint-every`` is declared, parsed
and checked in one place; a command passes its own defaults in and
leaves out the flags it does not take.

:func:`run_command` is every command's ``main``: it parses the flags,
runs :func:`validate` — which builds the :class:`~repro.sim.SimConfig`,
the admission spec and the fault plan, and verifies a ``--resume``
checkpoint — and only then calls the command body. Every bad
invocation therefore exits 2 with one line on stderr, before a trace,
CSV or JSON file is opened; artifacts are written atomically.

The module is not imported by ``repro`` itself: only the commands
need argparse.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from dataclasses import dataclass

from repro.baselines.registry import SPECIAL_SWITCH_NAMES, available_schedulers
from repro.checkpoint.format import CheckpointError
from repro.faults.plan import FaultPlan, LinkOutage, PortDownInterval
from repro.ioutil import atomic_write_text
from repro.obs.tracer import JsonlTracer, RingTracer
from repro.sim.config import SimConfig
from repro.traffic.base import available_patterns

__all__ = [
    "Setup",
    "UsageError",
    "add_artifact_options",
    "add_checkpoint_options",
    "add_fault_options",
    "add_run_options",
    "add_sweep_options",
    "open_tracer",
    "parse_admission",
    "parse_grid",
    "parse_link_down",
    "parse_port_down",
    "result_line",
    "run_command",
    "simulate",
    "validate",
    "write_artifact",
    "write_json",
]


class UsageError(Exception):
    """A bad invocation: :func:`run_command` prints it and exits 2."""


# -- value parsers -----------------------------------------------------------


def parse_grid(text: str) -> tuple[float, ...]:
    """``a,b,c`` → a float tuple (empty parts are skipped)."""
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad float grid {text!r}") from None


def parse_port_down(text: str) -> PortDownInterval:
    """``port:start:end`` or ``port:start:end:side``."""
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise argparse.ArgumentTypeError(
            f"expected port:start:end[:side], got {text!r}"
        )
    try:
        port, start, end = (int(p) for p in parts[:3])
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-integer field in {text!r}") from None
    side = parts[3] if len(parts) == 4 else "both"
    try:
        return PortDownInterval(port, start, end, side)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def parse_link_down(text: str) -> LinkOutage:
    """``input:output:start:end``."""
    parts = text.split(":")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"expected input:output:start:end, got {text!r}"
        )
    try:
        return LinkOutage(*(int(p) for p in parts))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def parse_admission(text: str | None) -> dict | None:
    """``LOW:HIGH`` → admission spec dict (None passes through).

    The watermarks are checked by building the controller, so ``60:20``
    fails here rather than mid-run.
    """
    if text is None:
        return None
    from repro.sim.admission import make_admission

    low, sep, high = text.partition(":")
    try:
        spec = {"low": int(low), "high": int(high)}
    except ValueError:
        raise ValueError(f"expected integer LOW:HIGH, got {text!r}") from None
    make_admission(spec)
    return spec


# -- option groups -----------------------------------------------------------


def add_run_options(
    parser: argparse.ArgumentParser,
    *,
    slots: int,
    warmup: int,
    scheduler: str | None = None,
    load: float | None = None,
    ports: bool = True,
    slot_flags: tuple[str, str] = ("--slots", "--warmup"),
) -> None:
    """The run itself: ``--scheduler --load --ports --slots --warmup
    --iterations --seed --traffic --fast``.

    ``scheduler``/``load`` are the command's defaults; ``None`` leaves
    the flag out (``lcf-sweep`` takes ``--loads``, ``lcf-fabric`` sizes
    itself from its topology). ``slot_flags`` spells the measured and
    warm-up slot flags; their dests are ``slots``/``warmup`` either way.
    """
    if scheduler is not None:
        parser.add_argument("--scheduler", default=scheduler,
                            help="crossbar scheduler for a single run "
                            f"({', '.join(available_schedulers())})")
    if load is not None:
        parser.add_argument("--load", type=float, default=load,
                            help="offered load in (0, 1]")
    if ports:
        parser.add_argument("--ports", type=int, default=16)
    measure_flag, warmup_flag = slot_flags
    parser.add_argument(measure_flag, dest="slots", type=int, default=slots,
                        help="measured slots")
    parser.add_argument(warmup_flag, dest="warmup", type=int, default=warmup,
                        help="warm-up slots before measurement (simulated "
                        "and traced, not counted in the statistics)")
    parser.add_argument("--iterations", type=int, default=4)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--traffic", default="bernoulli",
                        help=f"traffic pattern ({', '.join(available_patterns())})")
    parser.add_argument("--fast", action="store_true",
                        help="run on the repro.fastpath bitmask kernels "
                        "(bit-identical results; sweep cache entries are "
                        "shared with reference runs)")


def add_sweep_options(
    parser: argparse.ArgumentParser, *, worker_flags: tuple[str, ...] = ("--workers",)
) -> None:
    """The sweep engine: ``--replicates --workers --cache-dir``."""
    parser.add_argument("--replicates", type=int, default=1,
                        help="independent seed replicates per point (replicate "
                        "r runs under seed+r; shards merge with pooled "
                        "statistics)")
    parser.add_argument(*worker_flags, dest="workers", type=int, default=1,
                        help="simulation worker processes (1 = serial)")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="on-disk result cache: completed points are "
                        "stored as they finish, so an interrupted sweep "
                        "resumes")


def add_fault_options(
    parser: argparse.ArgumentParser, *, rates: bool = True, availability_note: str = ""
) -> None:
    """A single-switch fault plan: ``--loss --delay`` (with ``rates``),
    ``--port-down --link-down --availability``."""
    if rates:
        parser.add_argument("--loss", type=float, default=0.0,
                            help="uniform request/grant/accept loss probability")
        parser.add_argument("--delay", type=float, default=0.0,
                            help="probability a request/grant arrives one "
                            "iteration late")
    parser.add_argument("--port-down", action="append", default=[],
                        type=parse_port_down, metavar="P:START:END[:SIDE]",
                        help="port outage interval (repeatable)")
    parser.add_argument("--link-down", action="append", default=[],
                        type=parse_link_down, metavar="I:J:START:END",
                        help="single-crosspoint outage (repeatable)")
    parser.add_argument("--availability", type=float, default=None,
                        help="duty-cycled outages averaging this availability"
                        + availability_note)


def add_checkpoint_options(
    parser: argparse.ArgumentParser, *, admission: bool = True, stop_at: bool = True
) -> None:
    """Single-run state: ``--admission --checkpoint --checkpoint-every
    --stop-at --resume`` (``admission``/``stop_at`` include those two)."""
    if admission:
        parser.add_argument("--admission", metavar="LOW:HIGH", default=None,
                            help="attach threshold admission control with "
                            "these occupancy watermarks (packets, switch-wide)")
    parser.add_argument("--checkpoint", metavar="PATH", default=None,
                        help="checkpoint the single run's complete state here")
    parser.add_argument("--checkpoint-every", metavar="N", type=int, default=None,
                        help="checkpoint cadence in slots (with --checkpoint "
                        "or --resume)")
    if stop_at:
        parser.add_argument("--stop-at", metavar="SLOT", type=int, default=None,
                            help="pause at this slot after writing a final "
                            "checkpoint; continue later with --resume")
    parser.add_argument("--resume", metavar="PATH", default=None,
                        help="continue a checkpointed run instead of starting "
                        "one (scheduler, load and fault plan come from the "
                        "checkpoint)")


_ARTIFACT_HELP = {
    "trace-out": "single-run mode: write the JSONL event trace",
    "csv": "write the result rows as CSV",
    "json": "write the run report as JSON",
}


def add_artifact_options(parser: argparse.ArgumentParser, *names: str) -> None:
    """Output files (``--trace-out``/``--csv``/``--json``, as named) and
    ``--quiet``."""
    for name in names:
        parser.add_argument(f"--{name}", metavar="PATH", default=None,
                            help=_ARTIFACT_HELP[name])
    parser.add_argument("--quiet", action="store_true",
                        help="print nothing but errors")


# -- validation --------------------------------------------------------------


#: dest → smallest accepted value, for every integer flag any command takes.
_FLOORS = {
    "ports": 1, "slots": 0, "warmup": 0, "iterations": 1, "seed": 0,
    "replicates": 1, "workers": 1, "checkpoint_every": 1, "stop_at": 0,
    "square": 1, "single": 1, "boundary": 1, "link_delay": 1, "shards": 1,
}

#: dests of the sweep-mode grids (``lcf-faults``, ``lcf-adapt``, ``lcf-fabric``).
_GRIDS = ("loss_grid", "availability_grid", "load_grid")


@dataclass(frozen=True)
class Setup:
    """What :func:`validate` built from the flags.

    ``config`` is the run's :class:`SimConfig` (``lcf-fabric`` resizes
    it to its topology); ``schedulers`` is the ``--schedulers`` list
    (``None`` when not given); ``plan`` is set for commands with fault
    flags; ``resumed`` is the stored run spec of a ``--resume``
    checkpoint.
    """

    config: SimConfig
    schedulers: tuple[str, ...] | None = None
    admission: dict | None = None
    plan: FaultPlan | None = None
    resumed: dict | None = None


def _flag(parser: argparse.ArgumentParser, dest: str) -> str:
    return next(a.option_strings[0] for a in parser._actions if a.dest == dest)


def _check_schedulers(flag: str, names, dedicated: bool) -> None:
    known = set(available_schedulers()) | SPECIAL_SWITCH_NAMES
    for name in names:
        if name not in known:
            raise UsageError(f"{flag}: unknown scheduler {name!r} "
                             f"(known: {', '.join(sorted(known))})")
        if name in SPECIAL_SWITCH_NAMES and not dedicated:
            raise UsageError(f"{flag}: {name!r} uses a dedicated switch model "
                             "with no VOQ pipeline")


def validate(
    args: argparse.Namespace, parser: argparse.ArgumentParser, *, dedicated: bool = False
) -> Setup:
    """Check every run option ``parser`` declared; build what the run needs.

    argparse types catch malformed values; this catches well-formed
    nonsense (zero ports, inverted watermarks, an unreadable
    checkpoint) before any simulation runs or file is opened. Raises
    :class:`UsageError` naming the offending flag. ``dedicated`` lets
    ``--schedulers`` name the dedicated switch models (``fifo``,
    ``outbuf``), which only ``lcf-sweep`` can run.
    """
    for dest, floor in _FLOORS.items():
        value = getattr(args, dest, None)
        if value is not None and value < floor:
            raise UsageError(f"{_flag(parser, dest)} must be >= {floor}, got {value}")
    if hasattr(args, "load") and not 0.0 < args.load <= 1.0:
        raise UsageError(f"--load {args.load} outside (0, 1]")
    for dest in _GRIDS:
        grid = getattr(args, dest, None)
        if grid is not None and not grid:
            raise UsageError(f"{_flag(parser, dest)} was given but contains no values")
    bad = [load for load in getattr(args, "load_grid", None) or () if not 0.0 < load <= 1.0]
    if bad:
        raise UsageError(f"--load-grid values must be in (0, 1], got {bad}")

    if hasattr(args, "scheduler"):
        _check_schedulers("--scheduler", [args.scheduler], dedicated)
    schedulers = None
    if getattr(args, "schedulers", None) is not None:
        schedulers = tuple(n.strip() for n in args.schedulers.split(",") if n.strip())
        if not schedulers:
            raise UsageError("--schedulers must name at least one scheduler")
        _check_schedulers("--schedulers", schedulers, dedicated)
    if args.traffic not in available_patterns():
        raise UsageError(
            f"--traffic: unknown pattern {args.traffic!r} "
            f"(known: {', '.join(available_patterns())})"
        )

    # A grid runs a sweep (unless --resume continues one single run), so
    # the single-run artifacts and state would silently go unused.
    grid = next((dest for dest in _GRIDS if getattr(args, dest, None) is not None), None)
    if grid is not None and not getattr(args, "resume", None):
        for dest in ("trace_out", "checkpoint", "admission"):
            if getattr(args, dest, None):
                raise UsageError(f"{_flag(parser, dest)} applies to a single run, "
                                 f"not a {_flag(parser, grid)} sweep")

    cadence = [dest for dest in ("checkpoint_every", "stop_at") if hasattr(args, dest)]
    pausing = [_flag(parser, dest) for dest in cadence if getattr(args, dest) is not None]
    if hasattr(args, "resume"):
        if pausing and not (args.checkpoint or args.resume):
            raise UsageError(f"{pausing[0]} needs --checkpoint or --resume")
        if args.resume and args.checkpoint:
            raise UsageError("--resume and --checkpoint are mutually exclusive "
                             "(a resumed run keeps checkpointing to its own file)")
        if args.checkpoint and not pausing:
            needs = " or ".join(_flag(parser, dest) for dest in cadence)
            raise UsageError(f"--checkpoint needs {needs}: "
                             "a run that never pauses writes no checkpoint")
    try:
        admission = parse_admission(getattr(args, "admission", None))
    except ValueError as exc:
        raise UsageError(f"bad --admission: {exc}") from None

    config = SimConfig(
        n_ports=getattr(args, "ports", SimConfig.n_ports),
        warmup_slots=args.warmup,
        measure_slots=args.slots,
        iterations=args.iterations,
        seed=args.seed,
    )
    plan = _fault_plan(args) if hasattr(args, "port_down") else None
    resumed = _verify_resume(args.resume) if getattr(args, "resume", None) else None
    return Setup(config, schedulers, admission, plan, resumed)


def _fault_plan(args: argparse.Namespace) -> FaultPlan:
    from repro.faults.injector import FaultInjector

    loss = getattr(args, "loss", 0.0)
    try:
        duty = (
            FaultPlan.availability(args.ports, args.availability).port_duty
            if args.availability is not None else ()
        )
        plan = FaultPlan(
            port_down=tuple(args.port_down),
            port_duty=duty,
            link_down=tuple(args.link_down),
            request_loss=loss,
            grant_loss=loss,
            accept_loss=loss,
            delay=getattr(args, "delay", 0.0),
        )
        FaultInjector(plan, args.ports)  # port numbers must fit the switch
    except ValueError as exc:
        raise UsageError(f"invalid fault plan: {exc}") from None
    return plan


def _verify_resume(path: str) -> dict:
    """Load and check a ``--resume`` checkpoint; returns its run spec."""
    from repro.checkpoint import load_checkpoint
    from repro.checkpoint.core import SIMULATION_KIND

    try:
        payload = load_checkpoint(path)
    except CheckpointError as exc:
        raise UsageError(f"--resume: {exc}") from None
    if payload.get("kind") != SIMULATION_KIND:
        raise UsageError(
            f"--resume: checkpoint {path} holds a {payload.get('kind')!r} "
            f"payload, not a {SIMULATION_KIND!r} one"
        )
    return payload["run"]


def run_command(parser: argparse.ArgumentParser, argv, body, **checks) -> int:
    """Parse ``argv``, :func:`validate` it, and return ``body(args, setup)``.

    A :class:`UsageError` (from validation, or raised by the body
    before it writes anything) or a :class:`CheckpointError` prints one
    ``prog: message`` line on stderr and returns 2.
    """
    args = parser.parse_args(argv)
    try:
        return body(args, validate(args, parser, **checks))
    except (UsageError, CheckpointError) as exc:
        print(f"{parser.prog}: {exc}", file=sys.stderr)
        return 2


# -- running and reporting ---------------------------------------------------


def open_tracer(path: str | None, ring: int = 0):
    """A :class:`JsonlTracer` on ``path``; else a ``ring``-event
    :class:`RingTracer`; else ``None``."""
    if path:
        return JsonlTracer(path)
    return RingTracer(ring) if ring else None


def simulate(args: argparse.Namespace, setup: Setup, tracer, metrics, **kwargs):
    """Run the single switch the flags describe — or, with ``--resume``,
    continue the verified checkpoint — and close ``tracer``.

    ``kwargs`` go to :func:`repro.sim.simulator.run_simulation` (a
    resumed run rebuilds them from the checkpoint).
    """
    from repro.checkpoint import resume_simulation
    from repro.sim.simulator import run_simulation

    pause = dict(
        checkpoint_every=args.checkpoint_every,
        stop_at_slot=getattr(args, "stop_at", None),
    )
    with nullcontext() if tracer is None else tracer:
        if args.resume:
            return resume_simulation(args.resume, tracer=tracer, metrics=metrics, **pause)
        return run_simulation(
            setup.config, args.scheduler, args.load, traffic=args.traffic,
            tracer=tracer, metrics=metrics, fast=args.fast,
            admission=setup.admission, faults=setup.plan,
            checkpoint_path=args.checkpoint, **pause, **kwargs,
        )


def result_line(result, stance: str = "") -> str:
    """One line summarising a single-switch :class:`~repro.sim.SimResult`."""
    return (
        f"{result.scheduler}{stance} load={result.load:g}: "
        f"throughput {result.throughput:.3f}, "
        f"mean latency {result.mean_latency:.2f}, "
        f"offered {result.offered}, forwarded {result.forwarded}, "
        f"dropped {result.dropped}, shed {result.shed}"
    )


def write_artifact(args: argparse.Namespace, path: str, text: str, what: str) -> None:
    """Write ``text`` to ``path`` atomically; say so unless ``--quiet``."""
    atomic_write_text(path, text)
    if not args.quiet:
        print(f"{what} written to {path}")


def write_json(args: argparse.Namespace, payload: dict, what: str = "report") -> None:
    """Write the ``--json`` report (NaN statistics stay ``NaN``)."""
    write_artifact(args, args.json, json.dumps(payload, indent=2), what)
