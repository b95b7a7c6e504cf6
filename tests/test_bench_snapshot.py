"""The summarising half of tools/bench_snapshot.py, on made-up run results."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_snapshot.py"
_spec = importlib.util.spec_from_file_location("bench_snapshot", _PATH)
bench_snapshot = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_snapshot)


def _run(runs_per_s, rss, failed=0):
    return {"correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": {"runs_per_s": runs_per_s, "peak_rss_mb": rss}}


def test_last_json_line_skips_the_human_lines():
    out = "workload=x\n  runs_per_s 3 1/s\n{\"correct\": true}\n\n"
    assert bench_snapshot.last_json_line(out) == {"correct": True}
    with pytest.raises(ValueError):
        bench_snapshot.last_json_line("\n")


def test_summarize_medians_ranges_and_failures():
    runs = [_run(4.0, 90), _run(6.0, 92, failed=1), _run(5.0, 91),
            {"error": "exit 2: boom"}]
    s = bench_snapshot.summarize(runs)
    assert s["median"] == {"peak_rss_mb": 91, "runs_per_s": 5.0}
    assert s["q1"] == {"peak_rss_mb": 90.5, "runs_per_s": 4.5}
    assert s["q3"] == {"peak_rss_mb": 91.5, "runs_per_s": 5.5}
    assert s["range"] == {"peak_rss_mb": [90, 92], "runs_per_s": [4.0, 6.0]}
    assert (s["attempted"], s["failed"], s["errors"]) == (30, 1, ["exit 2: boom"])


def test_compare_counts_wins_in_each_metric_direction():
    first = [_run(4.0, 100), _run(5.0, 100), _run(6.0, 100)]
    second = [_run(8.0, 90), _run(4.0, 95), _run(12.0, 101)]
    c = bench_snapshot.compare(first, second,
                               {"runs_per_s": "higher", "peak_rss_mb": "lower",
                                "setup_s": "lower"})
    assert c["runs_per_s"] == {"median_ratio": 8.0 / 5.0, "second_wins": 2, "pairs": 3,
                               "first_iqr": 1.0, "gain_exceeds_first_iqr": True}
    assert c["peak_rss_mb"] == {"median_ratio": 0.95, "second_wins": 2, "pairs": 3,
                                "first_iqr": 0.0, "gain_exceeds_first_iqr": True}
    assert "setup_s" not in c


def test_compare_needs_a_gain_beyond_the_first_trees_iqr():
    """Medians 5.0 -> 5.8 against a first-tree IQR of 1.0 (quartiles 4.5, 5.5)
    do not resolve; a slower second tree never clears the rule."""
    first = [_run(4.0, 100), _run(5.0, 100), _run(6.0, 100)]
    near = [_run(4.8, 100), _run(5.8, 100), _run(6.8, 100)]
    far = [_run(6.0, 100), _run(7.0, 100), _run(8.0, 100)]
    slower = [_run(1.0, 100), _run(2.0, 100), _run(3.0, 100)]
    better = {"runs_per_s": "higher"}
    assert bench_snapshot.quartiles([4.0, 5.0, 6.0]) == (4.5, 5.5)
    assert bench_snapshot.quartiles([7.0]) == (7.0, 7.0)
    near_c = bench_snapshot.compare(first, near, better)["runs_per_s"]
    assert (near_c["second_wins"], near_c["gain_exceeds_first_iqr"]) == (3, False)
    assert bench_snapshot.compare(first, far, better)["runs_per_s"]["gain_exceeds_first_iqr"]
    assert not bench_snapshot.compare(first, slower, better)["runs_per_s"][
        "gain_exceeds_first_iqr"]


def test_pairs_alternate_which_tree_runs_first():
    labels = ["parent", "change"]
    orders = [bench_snapshot.pair_order(labels, i) for i in range(4)]
    assert orders == [labels, labels[::-1], labels, labels[::-1]]
    assert labels == ["parent", "change"]


def test_snapshots_append_to_the_out_file(tmp_path):
    out = tmp_path / "BENCH.json"
    bench_snapshot.append_snapshot(out, {"seed": 0})
    doc = bench_snapshot.append_snapshot(out, {"seed": 7})
    assert doc == {"snapshots": [{"seed": 0}, {"seed": 7}]}
    assert json.loads(out.read_text("utf-8")) == doc


def test_workloads_come_from_the_trees_benchmark_spec(tmp_path, capsys):
    root = _PATH.parents[1]
    with pytest.raises(SystemExit) as exc:
        bench_snapshot.main(["--tree", f"here={root}", "--workload", "no-such-sweep",
                             "--out", str(tmp_path / "BENCH.json")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    spec = json.loads((root / "BENCHMARK.json").read_text("utf-8"))
    assert all(w["name"] in err for w in spec["workloads"])
    assert not (tmp_path / "BENCH.json").exists()


def test_traced_runs_ride_in_the_first_pairs_in_the_pairs_order(monkeypatch):
    calls = []

    def fake_run(tree, workload, seed, trace):
        calls.append((str(tree), trace))
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {"runs_per_s": float(len(calls))}}

    monkeypatch.setattr(bench_snapshot, "bench_run", fake_run)
    monkeypatch.setattr(bench_snapshot, "machine", dict)
    spec = {"end_to_end": [{"name": "runs_per_s", "better": "higher"}]}
    snap = bench_snapshot.snapshot({"parent": Path("p"), "change": Path("c")}, spec,
                                   ["w"], runs=4, seed=0, acceptance=False)
    assert calls == [("p", 0), ("c", 0), ("p", 1), ("c", 1),
                     ("c", 0), ("p", 0), ("c", 1), ("p", 1),
                     ("p", 0), ("c", 0), ("p", 1), ("c", 1),
                     ("c", 0), ("p", 0)]
    change = snap["trees"]["change"]["workloads"]["w"]
    assert len(change["runs"]) == 4 and len(change["traced"]) == 3
    assert [r["metrics"]["runs_per_s"] for r in change["traced"]] == [4.0, 7.0, 12.0]
    assert change["traced_median"] == {"runs_per_s": 7.0}
    assert snap["first_in_pair"]["w"] == ["parent", "change", "parent", "change"]
    one = bench_snapshot.snapshot({"here": Path("h")}, spec, ["w"], runs=1, seed=0,
                                  acceptance=False)
    assert len(one["trees"]["here"]["workloads"]["w"]["traced"]) == 1
