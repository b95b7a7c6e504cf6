"""Benchmark command for p3bundles.

    python3 perfbench/run.py --workload pair-sweep --seed 0 --seconds 40 --trace 0

Runs the workload's fixed run list in fresh worker processes, one at a time,
until ``--seconds`` is spent, checks every outcome and prints each metric by
name with its unit.  The last line of standard output is one JSON object:
the end-to-end metrics, or with ``--trace 1`` the per-layer metrics of one
extra repetition run under the tracer.  ``--pin`` re-pins the digests of the
default seed in digests.json.

Exit codes: 0 every outcome is correct; 1 an outcome is wrong (the result
line is still printed); 2 the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT))

from perfbench import outcome, tracer, workloads  # noqa: E402

OUT = BENCH / "out"
SETUP_SAMPLES = 7  # set-up-only workers per invocation, besides the repetitions
TIME_LIMIT_S = 170  # every worker is ended by then

END_TO_END = (("setup_s", "s"), ("runs_per_s", "1/s"), ("run_p50_s", "s"),
              ("run_p90_s", "s"), ("peak_rss_mb", "MB"))
OVERHEAD = "trace.overhead_ratio"


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


PER_LAYER = tuple(
    [(m, _layer_unit(m)) for ms in tracer.SPAN_METRICS.values() for m in ms if m]
    + [(m, "ratio") for m in (*tracer.CACHE_METRICS, tracer.CERTIFIED_RATIO, OVERHEAD)])


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated as ``statistics.quantiles`` does."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class BenchError(RuntimeError):
    """The benchmark could not run."""


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    # Fixed string hashing, so set iteration order does not vary per process.
    env["PYTHONHASHSEED"] = "0"
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def spawn(workload: str, seed: int, mode: str, started: float,
          spans: Path | None = None) -> dict:
    """One fresh worker process, waited for; its JSON result."""
    remaining = TIME_LIMIT_S - (time.monotonic() - started)
    if remaining <= 0:
        raise BenchError("time limit reached before the next worker")
    cmd = [sys.executable, "-m", "perfbench.worker", workload, str(seed), mode,
           repr(time.time())]
    if spans is not None:
        cmd.append(str(spans))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(), capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker did not finish in {remaining:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Set-up samples, then timed repetitions (and one traced) within the window."""
    started = time.monotonic()
    deadline = started + seconds
    # A traced invocation reports no set-up time, so it skips the extra samples.
    setups = [] if trace else [spawn(workload, seed, "setup", started)
                               for _ in range(SETUP_SAMPLES)]
    reps: list[dict] = []
    traced = None
    spans = OUT / f"spans-{workload}-seed{seed}.json"
    while True:
        t0 = time.monotonic()
        reps.append(spawn(workload, seed, "run", started))
        took = time.monotonic() - t0
        if trace and traced is None:
            OUT.mkdir(exist_ok=True)
            traced = spawn(workload, seed, "trace", started, spans)
        if time.monotonic() + took > deadline:
            break
    return {"setups": setups, "reps": reps, "traced": traced}


def check(workload: str, seed: int, m: dict) -> dict:
    """Failed runs against the pins (default seed) or the first repetition."""
    pin = None
    if seed == outcome.DEFAULT_SEED:
        pin = outcome.load_pins().get(workload)
        if pin is None:
            raise BenchError(f"no pinned digests for {workload}; run --pin")
    reference = pin["runs"] if pin else m["reps"][0]["digests"]
    attempted = failed = 0
    problems = []
    for rep in m["reps"] + ([m["traced"]] if m["traced"] else []):
        bad = {i for i, _ in rep["problems"]}
        bad |= set(outcome.pin_mismatches(reference, rep["digests"]))
        attempted += len(rep["digests"])
        failed += len(bad)
        problems += rep["problems"]
    digest_ok = (pin is None
                 or outcome.workload_digest(m["reps"][0]["digests"]) == pin["digest"])
    return {"attempted": attempted, "failed": failed, "digest_ok": digest_ok,
            "pinned": pin is not None, "problems": problems[:10],
            "correct": failed == 0 and digest_ok}


def end_to_end(m: dict) -> dict:
    """Latencies and throughput pooled over the untraced repetitions."""
    reps = m["reps"]
    latencies = [t for r in reps for t in r["latencies"]]
    return {
        "setup_s": statistics.median(w["setup_s"] for w in m["setups"] + reps),
        "runs_per_s": len(latencies) / sum(r["wall_s"] for r in reps),
        "run_p50_s": percentile(latencies, 50),
        "run_p90_s": percentile(latencies, 90),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
    }


def per_layer(m: dict) -> dict:
    traced = m["traced"]
    out = dict(traced["layers"])
    out[OVERHEAD] = traced["wall_s"] / statistics.median(r["wall_s"] for r in m["reps"]) - 1
    return out


def _nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def report(args, m: dict, verdict: dict) -> dict:
    rep0 = m["reps"][0]
    env = {"python": rep0["python"], "numpy": rep0["numpy"], "nproc": _nproc(),
           "workload": args.workload, "seed": args.seed,
           "runs_per_rep": len(rep0["latencies"]), "reps": len(m["reps"]),
           "traced_reps": int(m["traced"] is not None)}
    print(" ".join(f"{k}={v}" for k, v in env.items()))
    e2e = end_to_end(m)
    for name, unit in END_TO_END:
        print(f"  {name:<14} {e2e[name]:.6g} {unit}")
    print(f"  {'fail_ratio':<14} {verdict['failed'] / verdict['attempted']:.6g} ratio"
          f"  ({verdict['failed']} of {verdict['attempted']} runs)")
    if verdict["pinned"]:
        print(f"  digest         {'matches' if verdict['digest_ok'] else 'DIFFERS from'}"
              f" the pin for seed {args.seed}")
    for i, msg in verdict["problems"]:
        print(f"  run {i}: {msg}", file=sys.stderr)
    layers = None
    if m["traced"] is not None:
        layers = per_layer(m)
        wall = m["traced"]["wall_s"]
        print(f"  traced repetition: {wall:.4g} s; missing targets: "
              f"{m['traced']['missing_targets'] or 'none'}")
        for name, unit in PER_LAYER:
            if name not in layers:
                print(f"  {name:<36} absent")
                continue
            share = f"  {layers[name] / wall:6.1%} of traced wall" if unit == "s" else ""
            print(f"  {name:<36} {layers[name]:.6g} {unit}{share}")
    result = {"env": env, "end_to_end": e2e, "per_layer": layers, "verdict": verdict,
              "setup_samples": [w["setup_s"] for w in m["setups"] + m["reps"]],
              "reps": [{"wall_s": r["wall_s"], "rss_mb": r["rss_mb"]} for r in m["reps"]]}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1), "utf-8")
    if args.trace:
        metrics = {n: {"value": layers[n], "unit": u} for n, u in PER_LAYER if n in layers}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END}
    return {"correct": verdict["correct"], "attempted": verdict["attempted"],
            "failed": verdict["failed"], "metrics": metrics}


def pin() -> None:
    """Re-pin every workload's run digests for the default seed."""
    started = time.monotonic()
    pins = {}
    for name in workloads.WORKLOADS:
        rep = spawn(name, outcome.DEFAULT_SEED, "run", started)
        if rep["problems"]:
            raise BenchError(f"{name}: refusing to pin wrong outcomes: {rep['problems'][:3]}")
        pins[name] = {"digest": outcome.workload_digest(rep["digests"]),
                      "runs": rep["digests"]}
    outcome.DIGESTS.write_text(json.dumps(
        {"seed": outcome.DEFAULT_SEED, "workloads": pins}, indent=1) + "\n", "utf-8")
    print(f"pinned {', '.join(pins)} at seed {outcome.DEFAULT_SEED} in {outcome.DIGESTS}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=outcome.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true", help="re-pin the default-seed digests")
    args = ap.parse_args(argv)
    if not args.pin and args.workload is None:
        ap.error("--workload is required")
    if not (ROOT / "src" / "p3bundles" / "__init__.py").is_file():
        print(f"p3bundles sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.pin:
            pin()
            return 0
        m = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        result = report(args, m, check(args.workload, args.seed, m))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
