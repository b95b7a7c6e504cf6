"""Tests of the benchmark itself: workloads, digests, span arithmetic, tracer."""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import outcome, run, tracer, worker, workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_is_deterministic_and_seeded(name):
    first = workloads.runs(name, 7)
    assert first == workloads.runs(name, 7)
    assert len(first) >= 100
    other = workloads.runs(name, 8)
    assert [(r["name"], r["params"]) for r in other] == \
        [(r["name"], r["params"]) for r in first]
    assert [r["seed"] for r in other] != [r["seed"] for r in first]


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError):
        workloads.runs("no-such-sweep", 0)


def test_digest_check_rejects_a_tampered_outcome():
    first = workloads.runs("pair-sweep", outcome.DEFAULT_SEED)[0]
    good = worker._call(first)
    pinned = outcome.load_pins()["pair-sweep"]["runs"]
    assert outcome.problems(first, good) == []
    assert outcome.digest(good) == pinned[0]

    tampered = copy.deepcopy(good)
    lo, hi = tampered["asserts"][0][3]
    tampered["asserts"][0][3] = [lo, hi + 1]
    assert outcome.problems(first, tampered)
    assert outcome.pin_mismatches(pinned, [outcome.digest(tampered)]) == [0]

    renamed = copy.deepcopy(good)
    renamed["configs"]["Y1"] = "0" * 16
    assert outcome.problems(first, renamed) == []
    assert outcome.pin_mismatches(pinned, [outcome.digest(renamed)]) == [0]


def test_check_counts_a_tampered_run_and_fails_the_digest():
    pin = outcome.load_pins()["pair-sweep"]
    digests = list(pin["runs"])
    digests[3] = "f" * 16
    rep = {"digests": digests, "problems": []}
    verdict = run.check("pair-sweep", outcome.DEFAULT_SEED,
                        {"reps": [rep], "traced": None})
    assert (verdict["failed"], verdict["digest_ok"], verdict["correct"]) == (1, False, False)


def test_spectrum_invariants():
    spec = {"kind": "spectrum", "name": "sigma0", "params": {"m": 1, "eps": 0, "a": 2}}
    assert outcome.problems(spec, outcome.spectrum_outcome([-1, 0, 0, 0, 0, 1])) == []
    assert outcome.problems(spec, outcome.spectrum_outcome([-1, 0, 0, 0, 0, 0]))
    assert outcome.problems(spec, outcome.spectrum_outcome([-1, 0, 0, 0, 1]))
    odd = {"kind": "spectrum", "name": "sigma1", "params": {"m": 1, "eps": 0, "a": 0}}
    assert outcome.problems(odd, outcome.spectrum_outcome([-2, -1, 0, 1])) == []


def _span(name, start, end, parent, cells=0):
    return [name, start, end, parent, 0, cells]


def test_self_time_arithmetic_on_a_synthetic_tree():
    spans = [
        _span("engine.script", 0.0, 10.0, -1),
        _span("oracle.sheaves.cohomology", 1.0, 4.0, 0),
        _span("oracle.linalg.certify", 1.0, 3.5, 1),
        _span("oracle.linalg.rank_mod_p", 1.5, 2.5, 2, cells=6),
        _span("oracle.linalg.rank_exact", 2.5, 3.0, 2, cells=4),
        _span("oracle.linalg.certify", 3.6, 4.0, 1),
        _span("oracle.linalg.rank_mod_p", 3.7, 3.9, 5, cells=6),
        _span("engine.graph.propagate", 5.0, 9.0, 0),
    ]
    assert tracer.self_times(spans) == pytest.approx(
        [3.0, 0.1, 1.0, 1.0, 0.5, 0.2, 0.2, 4.0])
    m = tracer.layer_metrics(spans, {s[0] for s in spans})
    assert m["engine.script.self_s"] == pytest.approx(3.0)
    assert m["oracle.linalg.rank_mod_p_s"] == pytest.approx(1.2)
    assert (m["oracle.linalg.rank_mod_p_calls"], m["oracle.linalg.rank_mod_p_cells"]) == (2, 12)
    assert m["oracle.linalg.certified_ratio"] == 0.5
    assert m["engine.script.runs"] == 1


def test_self_time_counts_overlapping_children_once():
    spans = [_span("monad", 0.0, 6.0, -1),
             _span("engine.graph.propagate", 1.0, 3.0, 0),
             _span("engine.graph.propagate", 2.0, 5.0, 0),
             _span("engine.graph.propagate", 5.5, 7.0, 0)]
    assert tracer.self_times(spans)[0] == pytest.approx(1.5)


def test_tracer_tolerates_a_missing_target(monkeypatch):
    from p3bundles.oracle import linalg, sheaves

    monkeypatch.delattr(sheaves, "line_restriction_block")
    original = linalg.rank_mod_p
    t = tracer.Tracer(tracer.TARGETS + (("monad", "p3bundles.no_such_module", "spectrum"),))
    t.install()
    try:
        assert linalg.rank_mod_p([(1, 2), (2, 4)]) == 1
    finally:
        t.uninstall()
    assert linalg.rank_mod_p is original
    assert t.missing == ["p3bundles.oracle.sheaves.line_restriction_block",
                         "p3bundles.no_such_module.spectrum"]
    m = t.metrics()
    assert "oracle.linalg.block_s" not in m
    assert "oracle.linalg.block_cache_hit_ratio" not in m
    assert (m["oracle.linalg.rank_mod_p_calls"], m["oracle.linalg.rank_mod_p_cells"]) == (1, 4)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run_matches_the_pins(name):
    runs = workloads.runs(name, outcome.DEFAULT_SEED)[:2]
    t = tracer.Tracer()
    t.install()
    try:
        rep = worker.execute(runs, t)
    finally:
        t.uninstall()
    assert rep["problems"] == []
    assert rep["digests"] == outcome.load_pins()[name]["runs"][:2]
    root = "monad.self_s" if name == "spectrum-sweep" else "engine.script.self_s"
    assert t.metrics()[root] > 0


def test_command_fails_without_the_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pair-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_benchmark_json_names_what_the_command_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
