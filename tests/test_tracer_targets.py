"""The benchmark's tracer still finds every layer it wraps.

The tracer skips a target that no longer resolves, by design, so a renamed
function or a call that stops going through its module global would silently
drop per-layer metrics.  This run checks that every target resolves, that
each counted layer is reached by a spectrum and a script replay, that the
metrics are the strict JSON a traced benchmark run prints, and that each
workload's first runs give every declared per-layer metric it feeds.
"""

import json
import math
import sys
from pathlib import Path

import pytest

from p3bundles import clear_caches, monad
from p3bundles.engine import graph, script
from p3bundles.oracle import linalg
from p3bundles.oracle.configs import ruling_line

_ROOT = Path(__file__).resolve().parents[1]
_BENCHMARK = _ROOT / "BENCHMARK.json"
if str(_ROOT) not in sys.path:
    sys.path.insert(0, str(_ROOT))

from perfbench import tracer, worker, workloads  # noqa: E402


def fed_layer_metrics() -> set[str]:
    """The per-layer metrics of BENCHMARK.json that the tracer itself reports
    (the run command adds the tracing overhead from wall times)."""
    declared = {m["name"] for m in json.loads(_BENCHMARK.read_text("utf-8"))["per_layer"]}
    fed = {m for ms in tracer.SPAN_METRICS.values() for m in ms if m}
    fed |= {*tracer.CACHE_METRICS, tracer.CERTIFIED_RATIO}
    return declared & fed


def test_every_target_resolves_and_every_layer_is_reached():
    clear_caches()  # so every layer runs rather than answer from a memo
    propagate_code = graph.DeductionGraph.propagate.__code__
    propagations = []

    def count_propagations(frame, event, arg):
        # every call of the function's code, however it was looked up
        if event == "call" and frame.f_code is propagate_code:
            propagations.append(1)

    t = tracer.Tracer()
    t.install()
    sys.setprofile(count_propagations)
    try:
        spec = monad.MonadSpec.create(monad.Series.SIGMA0, 1, 0, 5)
        monad.spectrum(spec)
        script.run_script("prop1", params={"m": 1, "eps": 0, "a": 5})
    finally:
        sys.setprofile(None)
        t.uninstall()
    assert t.missing == []
    metrics = t.metrics()
    for name in ("oracle.configs.sample_calls", "oracle.sheaves.cohomology_calls",
                 "oracle.linalg.block_calls", "oracle.linalg.rank_mod_p_calls",
                 "engine.graph.propagate_calls"):
        assert metrics[name] > 0, name
    assert metrics["engine.graph.propagate_calls"] == len(propagations)
    assert sorted(fed_layer_metrics() - set(metrics)) == []
    # the result line of a traced benchmark run must stay strict JSON
    assert json.loads(json.dumps(metrics, allow_nan=False)) == metrics


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_a_traced_workload_feeds_every_declared_layer_metric(workload):
    """From cold caches, the first run of each script or series of a
    workload's seed-0 list gives every per-layer metric the tracer feeds a
    finite value; a traced benchmark run whose result line lacked one would
    be malformed."""
    firsts = {}
    for run in workloads.runs(workload, 0):
        firsts.setdefault((run["kind"], run["name"]), run)
    clear_caches()
    t = tracer.Tracer()
    t.install()
    try:
        for run in firsts.values():
            worker._call(run)
    finally:
        t.uninstall()
    assert t.missing == []
    metrics = t.metrics()
    assert sorted(fed_layer_metrics() - set(metrics)) == []
    assert [name for name, value in metrics.items() if not math.isfinite(value)] == []


def test_clear_caches_works_while_the_tracer_is_installed():
    linalg.line_restriction_block(ruling_line((0, 1)), 2)
    t = tracer.Tracer()
    t.install()
    try:
        clear_caches()
    finally:
        t.uninstall()
    assert linalg.line_restriction_block.cache_info().currsize == 0
