"""The tail rule, the seed rule and the correctness gate."""

import argparse
import dataclasses
import json
import math

import pytest

import repro
import run
import tracing
import workloads

TINY = workloads.Workload(
    name="tiny",
    config=repro.SimConfig(n_ports=4, warmup_slots=20, measure_slots=60, seed=3),
    sweep_schedulers=("lcf_central", "wfront"),
    sweep_loads=(0.5, 0.9),
)


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    samples = [float(k) for k in range(63, 0, -1)]
    value, percentile, count = run.tail_percentile(samples)
    assert (value, count) == (53.0, 63)
    assert sum(s > value for s in samples) == 10
    assert percentile == pytest.approx(100 * 53 / 63)


def test_tail_needs_more_samples_than_the_margin():
    value, percentile, count = run.tail_percentile([1.0] * 10 + [2.0])
    assert (value, count) == (1.0, 11)
    assert percentile == pytest.approx(100 / 11)
    with pytest.raises(ValueError):
        run.tail_percentile([1.0] * 10)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_reaches_only_the_config_seed(name):
    base = workloads.WORKLOADS[name]
    seeded = base.with_seed(77)
    assert seeded.config == base.config.with_(seed=77)
    assert dataclasses.replace(seeded, config=base.config) == base
    for before, after in zip(base.points(), seeded.points()):
        assert dataclasses.replace(after, seed=before.seed) == before
        assert after.seed - 77 == before.seed - base.config.seed


def test_gate_passes_the_fast_engine_and_catches_a_perturbed_statistic():
    result = TINY.run_pass()
    reference = TINY.reference_digests()
    assert set(result.digests) == {p.label for p in TINY.points()}
    assert workloads.compare(result.digests, reference) == set()

    label = "sweep/lcf_central@0.9#3"
    perturbed = dict(result.digests)
    mean = float.fromhex(perturbed[label][3])
    perturbed[label] = perturbed[label][:3] + [math.nextafter(mean, math.inf).hex()] + perturbed[label][4:]
    assert workloads.compare(perturbed, reference) == {label}

    raised = dict(result.digests, **{label: None})
    assert workloads.compare(raised, reference) == {label}


def test_path_misses_flag_only_points_off_their_path():
    record = {"kind": "point", "load": 0.5, "seeds": [3], "slots": 80, "columnar": 0}
    kernel_off = dict(record, scheduler="lcf_central", steps=80)
    no_kernel = dict(record, scheduler="wfront", steps=80)
    kernel_on = dict(record, scheduler="lcf_central", steps=0, load=0.9)
    assert workloads.path_misses(TINY, [kernel_off, no_kernel, kernel_on]) == {
        "sweep/lcf_central@0.5#3"
    }

    wide = workloads.WORKLOADS["wide_n128"]
    block = {"kind": "replicate", "scheduler": "islip", "load": 0.9, "seeds": [1, 2], "slots": 0, "steps": 0}
    assert workloads.path_misses(wide, [dict(block, columnar=2)]) == set()
    assert workloads.path_misses(wide, [dict(block, columnar=0)]) == {
        "columnar/islip@0.9#1",
        "columnar/islip@0.9#2",
    }


def test_unchecked_workload_times_its_passes_without_a_probe(monkeypatch):
    monkeypatch.setattr(tracing, "PathProbe", None)
    observed = dataclasses.replace(TINY, path_checked=False)
    result, missed = run.timed_pass(observed)
    assert missed == set()
    assert set(result.digests) == {p.label for p in TINY.points()}
    with pytest.raises(TypeError):
        run.timed_pass(TINY)


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "fig12_n16", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_names_match_benchmark_json():
    declared = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    assert run.WORKLOAD_NAMES == tuple(w["name"] for w in declared["workloads"])
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    passes = [TINY.run_pass()] * 6
    e2e, _ = run.end_to_end([0.5], passes, failed=0, attempted=24, rss_mb=1.0)
    assert list(e2e) == [m["name"] for m in declared["end_to_end"]]
    assert [m["unit"] for m in e2e.values()] == [m["unit"] for m in declared["end_to_end"]]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.root():
            traced = TINY.run_pass()
    finally:
        tracer.restore()
    samples = len(passes) * len(TINY.points())
    layers = run.per_layer(tracer, traced, passes[0].wall_s, TINY, samples, workloads.PAPER_SCHEDULERS)
    assert list(layers) == [m["name"] for m in declared["per_layer"]]
    assert layers["trace.wall_s"]["value"] == tracer.total_s(tracing.ROOT) > 0
    assert layers["harness.self_s"]["value"] == tracer.self_s(tracing.ROOT)
    assert layers["point.samples"]["value"] == samples == 24
    assert layers["point.tail_pct"]["value"] == pytest.approx(100 * 14 / 24)
    assert [m["unit"] for m in layers.values()] == [m["unit"] for m in declared["per_layer"]]


def test_reference_chunks_cover_each_run_once():
    wide = workloads.WORKLOADS["wide_n128"]
    chunks = wide.reference_chunks(4)
    labels = [p.label for chunk in chunks for p in chunk]
    assert sorted(labels) == sorted(p.label for p in wide.points())
    home = {}
    for index, chunk in enumerate(chunks):
        for point in chunk:
            assert home.setdefault(point.run_key, index) == index


def test_setup_probe_stops_at_the_first_slot():
    seconds = run.setup_once(argparse.Namespace(workload="fig12_observed", seed=2))
    assert 0 < seconds < 60
