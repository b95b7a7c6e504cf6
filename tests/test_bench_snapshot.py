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
    assert s["range"] == {"peak_rss_mb": [90, 92], "runs_per_s": [4.0, 6.0]}
    assert (s["attempted"], s["failed"], s["errors"]) == (30, 1, ["exit 2: boom"])


def test_compare_counts_wins_in_each_metric_direction():
    first = [_run(4.0, 100), _run(5.0, 100), _run(6.0, 100)]
    second = [_run(8.0, 90), _run(4.0, 95), _run(12.0, 101)]
    c = bench_snapshot.compare(first, second,
                               {"runs_per_s": "higher", "peak_rss_mb": "lower",
                                "setup_s": "lower"})
    assert c["runs_per_s"] == {"median_ratio": 8.0 / 5.0, "second_wins": 2, "pairs": 3}
    assert c["peak_rss_mb"] == {"median_ratio": 0.95, "second_wins": 2, "pairs": 3}
    assert "setup_s" not in c


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
