"""One benchmark repetition in a fresh process.

    python -m perfbench.worker WORKLOAD SEED MODE SPAWNED [SPANS]

MODE is ``setup`` (set up, then exit), ``run`` or ``trace``.  SPAWNED is the
parent's ``time.time()`` just before it started this process, so set-up time
counts interpreter start.  SPANS is where a traced repetition writes its
spans.  The result is one JSON line on standard output.  The package caches
are process-global and unbounded, so each repetition needs its own process.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time

from perfbench import outcome, workloads
from perfbench.tracer import Tracer


def setup() -> str:
    """Import the package and numpy and load the bundled scripts; numpy's version."""
    from importlib import resources

    import numpy

    import p3bundles.monad  # noqa: F401
    from p3bundles.engine import load_bundled_script

    for entry in resources.files("p3bundles.scripts").iterdir():
        if entry.name.endswith(".les"):
            load_bundled_script(entry.name)
    return numpy.__version__


def _call(run: dict) -> dict:
    # Look the entry points up on their modules at call time, where the
    # tracer patches them.
    from p3bundles import monad
    from p3bundles.engine import script

    params = run["params"]
    if run["kind"] == "script":
        report = script.run_script(run["name"], params=dict(params), seed=run["seed"])
        return outcome.script_outcome(report)
    spec = monad.MonadSpec.create(monad.Series(run["name"]), params["m"],
                                  params["eps"], params["a"])
    return outcome.spectrum_outcome(monad.spectrum(spec, seed=run["seed"]))


def execute(runs: list[dict], tracer=None) -> dict:
    """Run the list once; per-run latency, digest and invariant problems."""
    latencies, digests, problems = [], [], []
    start = time.perf_counter()
    for i, run in enumerate(runs):
        if tracer is not None:
            tracer.run_id = i
        t0 = time.perf_counter()
        try:
            got, error = _call(run), None
        except Exception as exc:  # a failing run is recorded, not fatal
            got, error = outcome.error_outcome(exc), exc
        latencies.append(time.perf_counter() - t0)
        digests.append(outcome.digest(got))
        if error is None:
            problems += [[i, p] for p in outcome.problems(run, got)]
        else:
            problems.append([i, f"{type(error).__name__}: {error}"[:300]])
    wall = time.perf_counter() - start
    return {"wall_s": wall, "latencies": latencies, "digests": digests,
            "problems": problems}


def main(argv: list[str]) -> int:
    workload, seed, mode, spawned = argv[0], int(argv[1]), argv[2], float(argv[3])
    numpy_version = setup()
    result = {"setup_s": time.time() - spawned, "python": platform.python_version(),
              "numpy": numpy_version}
    if mode != "setup":
        runs = workloads.runs(workload, seed)
        tracer = None
        if mode == "trace":
            tracer = Tracer()
            tracer.install()
        rep = execute(runs, tracer)
        result.update(rep)
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.metrics()
            result["missing_targets"] = tracer.missing
            tracer.dump(argv[4], {"workload": workload, "seed": seed,
                                  "runs": runs, "wall_s": rep["wall_s"]})
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
