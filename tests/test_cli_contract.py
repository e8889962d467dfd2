"""The ``lcf-*`` commands' shared run-option contract.

* Every bad invocation exits 2, names the offending flag on stderr,
  and leaves no file behind — validation runs before any trace, CSV,
  JSON, snapshot or checkpoint file is opened.
* The option surface (flags, defaults, types, choices) of all five
  parsers is pinned, so moving the flags into :mod:`repro.cli` cannot
  add, drop or re-default one unnoticed.
"""

from __future__ import annotations

import argparse

import pytest

from repro.adapt import cli as adapt_cli
from repro.analysis import cli as sweep_cli
from repro.fabric import cli as fabric_cli
from repro.faults import cli as faults_cli
from repro.obs import cli as trace_cli

MODULES = {
    "lcf-sweep": sweep_cli,
    "lcf-trace": trace_cli,
    "lcf-faults": faults_cli,
    "lcf-adapt": adapt_cli,
    "lcf-fabric": fabric_cli,
}

#: A small valid run per command, with every artifact it can write
#: pointed into the test's directory ({tmp}).
BASE = {
    "lcf-sweep": ("--ports", "4", "--warmup-slots", "0", "--measure-slots", "10",
                  "--loads", "0.5", "--schedulers", "lcf_central",
                  "--csv", "{tmp}/points.csv"),
    "lcf-trace": ("--ports", "4", "--slots", "10", "--out", "{tmp}/t.jsonl",
                  "--chrome", "{tmp}/t.json", "--snapshot", "{tmp}/s.prom"),
    "lcf-faults": ("--ports", "4", "--slots", "10", "--warmup", "0",
                   "--trace-out", "{tmp}/t.jsonl", "--json", "{tmp}/r.json",
                   "--csv", "{tmp}/r.csv"),
    "lcf-adapt": ("--ports", "4", "--slots", "10", "--warmup", "0",
                  "--trace-out", "{tmp}/t.jsonl", "--json", "{tmp}/r.json",
                  "--csv", "{tmp}/r.csv"),
    "lcf-fabric": ("--slots", "10", "--warmup", "0",
                   "--trace-out", "{tmp}/t.jsonl", "--json", "{tmp}/r.json",
                   "--csv", "{tmp}/r.csv"),
}

CHECKPOINT = ("--checkpoint", "{tmp}/run.ckpt")

#: (flag named on stderr, extra argv, commands that accept the flag).
BAD = (
    ("--ports", ("--ports", "0"), "sweep trace faults adapt"),
    ("--iterations", ("--iterations", "0"), "sweep trace faults adapt fabric"),
    ("--seed", ("--seed", "-1"), "sweep trace faults adapt fabric"),
    ("--warmup", ("--warmup", "-3"), "trace faults adapt fabric"),
    ("--slots", ("--slots", "-1"), "trace faults adapt fabric"),
    ("--warmup-slots", ("--warmup-slots", "-3"), "sweep"),
    ("--measure-slots", ("--measure-slots", "-1"), "sweep"),
    ("--load", ("--load", "1.5"), "trace faults adapt fabric"),
    ("--loads", ("--loads", "1.5"), "sweep"),
    ("--admission", ("--admission", "60:20"), "trace faults"),
    ("--admission", ("--admission", "5:x"), "trace faults"),
    ("--checkpoint-every", ("--checkpoint-every", "0", *CHECKPOINT),
     "trace faults adapt"),
    ("--stop-at", ("--stop-at", "-1", *CHECKPOINT), "trace faults"),
    # A run that never pauses would write no checkpoint.
    ("--checkpoint", CHECKPOINT, "trace faults adapt"),
    ("--replicates", ("--replicates", "0"), "sweep faults adapt"),
    ("--workers", ("--workers", "0"), "sweep faults adapt"),
    ("--resume", ("--resume", "{tmp}/missing.ckpt"), "trace faults adapt"),
)

CASES = [
    pytest.param(f"lcf-{cmd}", flag, extra, id=f"lcf-{cmd} {' '.join(extra[:2])}")
    for flag, extra, commands in BAD
    for cmd in commands.split()
]


def _exit_code(prog: str, argv: list[str]) -> int:
    try:
        return MODULES[prog].main(argv)
    except SystemExit as exc:  # argparse-level rejections
        return exc.code


@pytest.mark.parametrize("prog,flag,extra", CASES)
def test_bad_invocation_exits_2_and_writes_nothing(prog, flag, extra, tmp_path, capsys):
    argv = [arg.format(tmp=tmp_path) for arg in (*BASE[prog], *extra)]
    assert _exit_code(prog, argv) == 2
    assert flag in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("prog", sorted(BASE))
def test_base_invocation_is_valid(prog, tmp_path, capsys):
    """The cases above fail because of their one bad flag, not the base."""
    argv = [arg.format(tmp=tmp_path) for arg in BASE[prog]]
    assert _exit_code(prog, [*argv, "--quiet"]) == 0
    assert capsys.readouterr().err == ""


#: A small valid sweep per grid mode, artifacts pointed into {tmp}.
GRID_BASE = {
    "lcf-faults --loss-grid": ("--loss-grid", "0,0.1"),
    "lcf-faults --availability-grid": ("--availability-grid", "1.0,0.9"),
    "lcf-adapt --availability-grid": ("--availability-grid", "1.0,0.9"),
    "lcf-fabric --load-grid": ("--load-grid", "0.5,0.9"),
}
_GRID_COMMON = ("--slots", "10", "--warmup", "0", "--json", "{tmp}/r.json",
                "--csv", "{tmp}/r.csv")
_GRID_SCHEDULERS = {"lcf-faults": ("--ports", "4", "--schedulers", "islip"),
                    "lcf-adapt": ("--ports", "4", "--schedulers", "lcf_central_rr"),
                    "lcf-fabric": ()}

#: (single-run flag, its argv, grid commands that accept it).
SINGLE_RUN = (
    ("--trace-out", ("--trace-out", "{tmp}/t.jsonl"), "faults adapt fabric"),
    ("--checkpoint", (*CHECKPOINT, "--checkpoint-every", "5"), "faults adapt"),
    ("--admission", ("--admission", "50:100"), "faults"),
)

GRID_CASES = [
    pytest.param(mode, flag, extra, id=f"{mode} {flag}")
    for flag, extra, commands in SINGLE_RUN
    for mode in GRID_BASE
    if mode.split()[0].removeprefix("lcf-") in commands.split()
]


def _grid_argv(mode: str, tmp_path, *extra: str) -> list[str]:
    prog = mode.split()[0]
    argv = (*_GRID_SCHEDULERS[prog], *GRID_BASE[mode], *_GRID_COMMON, *extra)
    return [arg.format(tmp=tmp_path) for arg in argv]


@pytest.mark.parametrize("mode,flag,extra", GRID_CASES)
def test_grid_mode_rejects_single_run_flags(mode, flag, extra, tmp_path, capsys):
    """A sweep would silently ignore a trace, checkpoint or admission
    flag; it exits 2 instead."""
    assert _exit_code(mode.split()[0], _grid_argv(mode, tmp_path, *extra)) == 2
    assert flag in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("mode", sorted(GRID_BASE))
def test_grid_base_invocation_is_valid(mode, tmp_path, capsys):
    assert _exit_code(mode.split()[0], _grid_argv(mode, tmp_path, "--quiet")) == 0
    assert capsys.readouterr().err == ""


# -- option surface ----------------------------------------------------------
#
# Generated from the parsers as they stood before the run options moved
# into repro.cli: (option strings, default, type name, choices). A
# custom type is named without its leading underscore.

SURFACE = {
    "lcf-sweep": (
        (("--schedulers",), "lcf_central,lcf_central_rr,lcf_dist_rr,lcf_dist,pim,islip,wfront,fifo,outbuf", None, None),
        (("--loads",), None, "parse_loads", None),
        (("--paper",), False, None, None),
        (("--ports",), 16, "int", None),
        (("--warmup-slots",), 2000, "int", None),
        (("--measure-slots",), 20000, "int", None),
        (("--iterations",), 4, "int", None),
        (("--seed",), 1, "int", None),
        (("--traffic",), "bernoulli", None, None),
        (("--traffic-arg",), [], None, None),
        (("--workers", "--processes"), 1, "int", None),
        (("--replicates",), 1, "int", None),
        (("--cache-dir",), None, None, None),
        (("--profile",), None, None, None),
        (("--fast",), False, None, None),
        (("--columnar",), False, None, None),
        (("--relative",), False, None, None),
        (("--plot",), False, None, None),
        (("--check-shape",), False, None, None),
        (("--csv",), None, None, None),
        (("--quiet",), False, None, None),
    ),
    "lcf-trace": (
        (("--scheduler",), "lcf_central_rr", None, None),
        (("--load",), 0.9, "float", None),
        (("--ports",), 16, "int", None),
        (("--slots",), 1000, "int", None),
        (("--warmup",), 0, "int", None),
        (("--iterations",), 4, "int", None),
        (("--seed",), 1, "int", None),
        (("--traffic",), "bernoulli", None, None),
        (("--out",), None, None, None),
        (("--chrome",), None, None, None),
        (("--no-max-matching",), False, None, None),
        (("--fast",), False, None, None),
        (("--snapshot",), None, None, None),
        (("--admission",), None, None, None),
        (("--checkpoint",), None, None, None),
        (("--checkpoint-every",), None, "int", None),
        (("--stop-at",), None, "int", None),
        (("--resume",), None, None, None),
        (("--quiet",), False, None, None),
    ),
    "lcf-faults": (
        (("--scheduler",), "lcf_dist_rr", None, None),
        (("--schedulers",), None, None, None),
        (("--load",), 0.8, "float", None),
        (("--ports",), 16, "int", None),
        (("--slots",), 1000, "int", None),
        (("--warmup",), 200, "int", None),
        (("--iterations",), 4, "int", None),
        (("--seed",), 1, "int", None),
        (("--traffic",), "bernoulli", None, None),
        (("--loss",), 0.0, "float", None),
        (("--delay",), 0.0, "float", None),
        (("--port-down",), [], "parse_port_down", None),
        (("--link-down",), [], "parse_link_down", None),
        (("--availability",), None, "float", None),
        (("--loss-grid",), None, "parse_grid", None),
        (("--availability-grid",), None, "parse_grid", None),
        (("--replicates",), 1, "int", None),
        (("--workers",), 1, "int", None),
        (("--cache-dir",), None, None, None),
        (("--fast",), False, None, None),
        (("--metric",), "throughput", None, ("throughput", "mean_latency", "delivery")),
        (("--admission",), None, None, None),
        (("--checkpoint",), None, None, None),
        (("--checkpoint-every",), None, "int", None),
        (("--stop-at",), None, "int", None),
        (("--resume",), None, None, None),
        (("--trace-out",), None, None, None),
        (("--csv",), None, None, None),
        (("--json",), None, None, None),
        (("--quiet",), False, None, None),
    ),
    "lcf-adapt": (
        (("--scheduler",), "lcf_central_rr", None, None),
        (("--schedulers",), None, None, None),
        (("--load",), 0.8, "float", None),
        (("--ports",), 16, "int", None),
        (("--slots",), 1000, "int", None),
        (("--warmup",), 200, "int", None),
        (("--iterations",), 4, "int", None),
        (("--seed",), 1, "int", None),
        (("--traffic",), "bernoulli", None, None),
        (("--port-down",), [], "parse_port_down", None),
        (("--link-down",), [], "parse_link_down", None),
        (("--availability",), None, "float", None),
        (("--mode",), "count", None, ("count", "ewma")),
        (("--detection-window",), None, "int", None),
        (("--probation-window",), None, "int", None),
        (("--probe-interval",), None, "int", None),
        (("--port-window",), None, "int", None),
        (("--starvation-window",), None, "int", None),
        (("--ewma-alpha",), None, "float", None),
        (("--suspect-threshold",), None, "float", None),
        (("--readmit-threshold",), None, "float", None),
        (("--availability-grid",), None, "parse_grid", None),
        (("--replicates",), 1, "int", None),
        (("--workers",), 1, "int", None),
        (("--cache-dir",), None, None, None),
        (("--fast",), False, None, None),
        (("--checkpoint",), None, None, None),
        (("--checkpoint-every",), None, "int", None),
        (("--resume",), None, None, None),
        (("--trace-out",), None, None, None),
        (("--csv",), None, None, None),
        (("--json",), None, None, None),
        (("--quiet",), False, None, None),
    ),
    "lcf-fabric": (
        (("--topology",), None, "parse_topology", None),
        (("--square",), None, "int", None),
        (("--single",), None, "int", None),
        (("--schedulers",), "lcf_central_rr", None, None),
        (("--routing",), "hash", None, ("hash", "least_loaded", "offline")),
        (("--boundary",), 64, "int", None),
        (("--link-delay",), 1, "int", None),
        (("--load",), 0.8, "float", None),
        (("--slots",), 2000, "int", None),
        (("--warmup",), 200, "int", None),
        (("--iterations",), 4, "int", None),
        (("--seed",), 1, "int", None),
        (("--traffic",), "bernoulli", None, None),
        (("--fault",), [], "parse_stage_fault", None),
        (("--shards",), 1, "int", None),
        (("--backend",), "inline", None, ("inline", "process")),
        (("--fast",), False, None, None),
        (("--percentiles",), False, None, None),
        (("--load-grid",), None, "parse_grid", None),
        (("--trace-out",), None, None, None),
        (("--csv",), None, None, None),
        (("--json",), None, None, None),
        (("--quiet",), False, None, None),
    ),
}


def _surface(parser: argparse.ArgumentParser) -> dict:
    return {
        tuple(action.option_strings): (
            action.default,
            None if action.type is None else action.type.__name__.lstrip("_"),
            None if action.choices is None else tuple(action.choices),
        )
        for action in parser._actions
        if not isinstance(action, argparse._HelpAction)
    }


@pytest.mark.parametrize("prog", sorted(SURFACE))
def test_option_surface_is_unchanged(prog):
    parser = MODULES[prog].build_parser()
    assert parser.prog == prog
    expected = {flags: rest for flags, *rest in SURFACE[prog]}
    assert _surface(parser) == {k: tuple(v) for k, v in expected.items()}
