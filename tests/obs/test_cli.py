"""``lcf-trace`` CLI end-to-end."""

import json
import sys
from pathlib import Path

import pytest

from repro.obs import cli

TOOLS = Path(__file__).resolve().parents[2] / "tools"
sys.path.insert(0, str(TOOLS))

from check_trace_schema import check_trace  # noqa: E402


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_traced_run_writes_schema_valid_jsonl(tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    code, stdout, _ = run_cli(
        capsys,
        "--scheduler", "lcf_central_rr", "--ports", "4", "--slots", "120",
        "--seed", "9", "--out", str(out),
    )
    assert code == 0
    checked, errors = check_trace(out)
    assert errors == []
    assert checked > 120  # at least one summary per slot plus pipeline events
    assert "RR-override rate" in stdout
    assert "mean matching size" in stdout
    assert "mean maximum matching" in stdout


def test_chrome_export_is_loadable_json(tmp_path, capsys):
    chrome = tmp_path / "trace.json"
    code, stdout, _ = run_cli(
        capsys,
        "--scheduler", "lcf_dist_rr", "--ports", "4", "--slots", "80",
        "--chrome", str(chrome),
    )
    assert code == 0
    doc = json.loads(chrome.read_text())
    assert doc["traceEvents"]
    assert f"wrote {chrome}" in stdout


def test_in_memory_run_without_output_files(capsys):
    code, stdout, _ = run_cli(
        capsys, "--scheduler", "lcf_central", "--ports", "4", "--slots", "60"
    )
    assert code == 0
    assert "tie-break chain depth" in stdout


def test_weight_scheduler_skips_probe(capsys):
    code, stdout, _ = run_cli(
        capsys, "--scheduler", "lqf", "--ports", "4", "--slots", "60"
    )
    assert code == 0
    assert "mean maximum matching" not in stdout


def test_no_max_matching_flag(capsys):
    code, stdout, _ = run_cli(
        capsys,
        "--scheduler", "lcf_central", "--ports", "4", "--slots", "60",
        "--no-max-matching",
    )
    assert code == 0
    assert "mean maximum matching" not in stdout


def test_quiet_suppresses_summary(tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    code, stdout, _ = run_cli(
        capsys,
        "--scheduler", "pim", "--ports", "4", "--slots", "40",
        "--out", str(out), "--quiet",
    )
    assert code == 0
    assert stdout == ""
    assert out.exists()


@pytest.mark.parametrize("name", ["fifo", "outbuf"])
def test_special_switches_rejected(name, capsys):
    code, _, stderr = run_cli(capsys, "--scheduler", name)
    assert code == 2
    assert "no VOQ pipeline" in stderr


def test_bad_load_rejected(capsys):
    code, _, stderr = run_cli(capsys, "--load", "1.5")
    assert code == 2
    assert "outside" in stderr


def test_checkpointed_chrome_export_without_jsonl(tmp_path, capsys):
    # With no --out, the checkpoint/resume driver keeps the events in a
    # ring for --chrome instead of exporting an empty trace.
    chrome = tmp_path / "trace.json"
    code, _, _ = run_cli(
        capsys,
        "--ports", "4", "--slots", "80", "--warmup", "0",
        "--checkpoint", str(tmp_path / "run.ckpt"), "--stop-at", "40",
        "--chrome", str(chrome),
    )
    assert code == 0
    events = json.loads(chrome.read_text())["traceEvents"]
    assert any(event["ph"] != "M" for event in events)  # beyond metadata
