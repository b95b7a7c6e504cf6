"""Benchmark snapshot: repeated runs of the unmodified benchmark, summarised.

    python3 tools/bench_snapshot.py --tree change=. --runs 3 --out BENCH.json
    python3 tools/bench_snapshot.py --tree parent=../parent --tree change=. \\
        --runs 10 --workload conic-sweep --acceptance --out BENCH.json

For each tree (a checkout with ``perfbench/run.py`` and ``src/``) and each
workload, it runs ``python3 perfbench/run.py --workload W --seed S --trace 0``
``--runs`` times, then once with ``--trace 1``, and reads the JSON object on
the last line of each invocation's standard output.  The run length is the
benchmark's own default.  With two trees the runs come in pairs, one run of
each tree, and the tree that runs first alternates from pair to pair, so
neither slow drifts of the machine nor the position in a pair favour one
tree.  ``--acceptance`` also runs ``acceptance.run_all`` once per tree in a
fresh process and records its per-criterion wall times (11 is the cold
second pass) and peak RSS.

The workloads and each metric's better direction come from the first tree's
``BENCHMARK.json``.  The snapshot holds, per tree and workload: every run's
end-to-end metrics, their medians and min-max ranges, the traced per-layer
metrics, and how many runs were attempted and failed.  With two trees it
records which tree ran first in each pair and adds, per metric, the ratio of
the medians (second over first) and how many of the pairs the second tree
won.  The snapshot is appended to the ``snapshots`` list of ``--out``, which
is created if it does not exist.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

ACCEPTANCE = """\
import json, resource, time
from p3bundles.acceptance import run_all
t0 = time.monotonic()
report, timings = run_all(0)
print(json.dumps({"wall_s": time.monotonic() - t0,
                  "criterion_s": {str(k): v for k, v in sorted(timings.items())},
                  "passed": report["passed"], "report_hash": report["report_hash"],
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def last_json_line(stdout: str) -> dict:
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def bench_run(tree: Path, workload: str, seed: int, trace: int) -> dict:
    """One invocation of the tree's own benchmark command; its result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
           str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    result = last_json_line(proc.stdout)
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def acceptance_run(tree: Path) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-c", ACCEPTANCE], cwd=tree, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    return last_json_line(proc.stdout)


def summarize(runs: list[dict]) -> dict:
    """Medians and min-max ranges of the end-to-end metrics over the runs."""
    ok = [r["metrics"] for r in runs if "metrics" in r]
    names = sorted({n for m in ok for n in m})
    return {
        "median": {n: statistics.median(m[n] for m in ok) for n in names},
        "range": {n: [min(m[n] for m in ok), max(m[n] for m in ok)] for n in names},
        "attempted": sum(r.get("attempted", 0) for r in runs),
        "failed": sum(r.get("failed", 0) for r in runs),
        "errors": [r["error"] for r in runs if "error" in r],
    }


def compare(first: list[dict], second: list[dict], better: dict[str, str]) -> dict:
    """Per metric: ratio of the medians (second / first) and pairs the second won."""
    out = {}
    pairs = [(a["metrics"], b["metrics"]) for a, b in zip(first, second)
             if "metrics" in a and "metrics" in b]
    for name, direction in better.items():
        values = [(a[name], b[name]) for a, b in pairs if name in a and name in b]
        if not values:
            continue
        wins = sum((b > a) if direction == "higher" else (b < a) for a, b in values)
        ratio = (statistics.median(b for _, b in values)
                 / statistics.median(a for a, _ in values))
        out[name] = {"median_ratio": ratio, "second_wins": wins, "pairs": len(values)}
    return out


def pair_order(labels: list[str], i: int) -> list[str]:
    """The order in which pair ``i`` runs the trees: reversed on odd pairs."""
    return labels if i % 2 == 0 else labels[::-1]


def machine() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": metadata.version("numpy")}


def snapshot(trees: dict[str, Path], spec: dict, workloads: list[str], runs: int,
             seed: int, acceptance: bool) -> dict:
    labels = list(trees)
    out: dict = {"machine": machine(), "seed": seed, "runs": runs, "workloads": workloads,
                 "trees": {label: {"workloads": {}} for label in labels}}
    for workload in workloads:
        timed: dict[str, list[dict]] = {label: [] for label in labels}
        firsts = []
        for i in range(runs):
            order = pair_order(labels, i)
            firsts.append(order[0])
            for label in order:
                timed[label].append(bench_run(trees[label], workload, seed, 0))
                print(f"{workload} run {i + 1}/{runs} {label}: {timed[label][-1]}",
                      file=sys.stderr)
        for label in labels:
            traced = bench_run(trees[label], workload, seed, 1)
            out["trees"][label]["workloads"][workload] = {
                "runs": timed[label], **summarize(timed[label]),
                "traced": traced}
        if len(labels) == 2:
            better = {m["name"]: m["better"] for m in spec["end_to_end"]}
            out.setdefault("first_in_pair", {})[workload] = firsts
            out.setdefault("compare", {})[workload] = compare(
                timed[labels[0]], timed[labels[1]], better)
    if acceptance:
        for label in labels:
            out["trees"][label]["acceptance"] = acceptance_run(trees[label])
    return out


def append_snapshot(path: Path, snap: dict) -> dict:
    """``path``'s snapshot file with ``snap`` appended to its ``snapshots``."""
    doc = json.loads(path.read_text("utf-8")) if path.exists() else {"snapshots": []}
    doc["snapshots"].append(snap)
    path.write_text(json.dumps(doc, indent=1) + "\n", "utf-8")
    return doc


def _tree(arg: str) -> tuple[str, Path]:
    label, sep, path = arg.partition("=")
    if not sep or not label:
        raise argparse.ArgumentTypeError("expected LABEL=PATH")
    tree = Path(path).resolve()
    if not (tree / "perfbench" / "run.py").is_file():
        raise argparse.ArgumentTypeError(f"{tree} has no perfbench/run.py")
    return label, tree


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", type=_tree, action="append", required=True,
                    help="LABEL=PATH of a checkout; give two to compare them")
    ap.add_argument("--workload", action="append",
                    help="a workload of the first tree's BENCHMARK.json (default: all)")
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--acceptance", action="store_true")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    trees = dict(args.tree)
    if len(trees) != len(args.tree):
        ap.error("tree labels must be distinct")
    spec = json.loads((args.tree[0][1] / "BENCHMARK.json").read_text("utf-8"))
    known = [w["name"] for w in spec["workloads"]]
    unknown = sorted(set(args.workload or ()) - set(known))
    if unknown:
        ap.error(f"unknown workload {', '.join(unknown)}; choose from {', '.join(known)}")
    snap = snapshot(trees, spec, args.workload or known, args.runs, args.seed,
                    args.acceptance)
    append_snapshot(args.out, snap)
    return 0


if __name__ == "__main__":
    sys.exit(main())
