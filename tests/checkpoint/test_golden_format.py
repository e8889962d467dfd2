"""The golden checkpoint pin: regenerating it must be a byte no-op.

Drives ``tools/check_checkpoint_format.py`` the same way CI does. A
failure here means the on-disk checkpoint schema drifted — re-golden
with ``--update`` only when the change is deliberate, and bump
``CHECKPOINT_VERSION`` when it breaks old files.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
GOLDEN = REPO_ROOT / "tests" / "data" / "golden_checkpoint.json"


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "check_checkpoint_format",
        REPO_ROOT / "tools" / "check_checkpoint_format.py",
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_golden_checkpoint_matches(capsys):
    tool = _load_tool()
    assert tool.main([]) == 0
    assert "matches" in capsys.readouterr().out


def test_golden_is_valid_envelope():
    from repro.checkpoint import CHECKPOINT_VERSION, load_checkpoint

    payload = load_checkpoint(GOLDEN)
    envelope = json.loads(GOLDEN.read_text())
    assert envelope["version"] == CHECKPOINT_VERSION
    assert payload["kind"] == "simulation"
    # The pin exercises every serialised subsystem at once.
    run = payload["run"]
    assert run["faults"], "golden run must be faulted"
    assert run["adapt"], "golden run must be adaptive"
    assert run["admission"], "golden run must be admission-controlled"
    assert run["has_metrics"], "golden run must carry metrics"
    assert payload["state"]["metrics"], "metrics snapshot must be present"


def test_golden_resumes_to_completion(tmp_path):
    # The pinned file is not just stable bytes — it is a *live*
    # checkpoint that resumes and finishes.
    import shutil

    from repro.checkpoint import resume_simulation
    from repro.obs.metrics import MetricsRegistry

    working = tmp_path / "golden.ckpt"
    shutil.copy(GOLDEN, working)
    result = resume_simulation(working, metrics=MetricsRegistry())
    assert result.forwarded > 0
    assert result.shed >= 0


def test_divergence_reports_diff(tmp_path, capsys, monkeypatch):
    tool = _load_tool()
    tampered = tmp_path / "golden_checkpoint.json"
    envelope = json.loads(GOLDEN.read_text())
    envelope["payload"]["slot"] += 1
    tampered.write_text(json.dumps(envelope, sort_keys=True))
    monkeypatch.setattr(tool, "GOLDEN", tampered)
    monkeypatch.setattr(tool, "REPO_ROOT", tmp_path)
    assert tool.main([]) == 1
    assert "DIVERGED" in capsys.readouterr().err


def test_legacy_word_tuple_keys_resume_harmlessly(tmp_path):
    # Files written while VOQSet kept 64-bit word-tuple twins of its
    # masks (``row_words``/``col_words``) carry those keys; restoring
    # sets them as inert attributes, so the format version is unchanged
    # and such a file resumes to the straight run's exact result.
    from repro.checkpoint import load_checkpoint, resume_simulation, save_checkpoint
    from repro.sim.config import SimConfig
    from repro.sim.simulator import run_simulation

    config = SimConfig(n_ports=65, warmup_slots=10, measure_slots=60, seed=5)
    straight = run_simulation(config, "lcf_dist_rr", 0.9, fast=True)
    ckpt = tmp_path / "run.ckpt"
    run_simulation(
        config, "lcf_dist_rr", 0.9, fast=True, checkpoint_path=ckpt, stop_at_slot=35
    )

    payload = load_checkpoint(ckpt)
    voqs = payload["state"]["switch"]["voqs"]["state"]
    assert "row_words" not in voqs and "col_words" not in voqs

    def words(mask):
        return [mask >> 64 * w & (1 << 64) - 1 for w in range(2)]

    assert any(voqs["row_masks"]), "the cut must leave live requests"
    voqs["row_words"] = [words(mask) for mask in voqs["row_masks"]]
    voqs["col_words"] = [words(mask) for mask in voqs["col_masks"]]
    save_checkpoint(ckpt, payload)

    assert resume_simulation(ckpt).row() == straight.row()


def test_legacy_pattern_batch_keys_resume_harmlessly(tmp_path):
    # Files written while BernoulliUniform had a ``batch`` knob carry
    # its ``batch`` and (always empty at batch 1) ``_pending`` keys;
    # restoring sets them as inert attributes, so the format version is
    # unchanged and such a file resumes to the straight run's exact
    # result and generator position.
    from repro.checkpoint import load_checkpoint, resume_simulation, save_checkpoint
    from repro.sim.config import SimConfig
    from repro.sim.simulator import run_simulation

    config = SimConfig(n_ports=5, warmup_slots=10, measure_slots=90, seed=3)
    straight = run_simulation(config, "lcf_central_rr", 0.8, collect_percentiles=True)
    ckpt = tmp_path / "run.ckpt"
    run_simulation(
        config, "lcf_central_rr", 0.8, collect_percentiles=True,
        checkpoint_path=ckpt, stop_at_slot=37,
    )

    payload = load_checkpoint(ckpt)
    pattern = payload["state"]["pattern"]
    assert "_pending" not in pattern and "batch" not in pattern
    pattern["_pending"] = []
    pattern["batch"] = 1
    save_checkpoint(ckpt, payload)

    resumed = resume_simulation(ckpt)
    assert resumed.row() == straight.row()
    assert resumed.percentiles == straight.percentiles
