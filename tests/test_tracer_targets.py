"""The benchmark's tracer still finds every layer it wraps.

The tracer skips a target that no longer resolves, by design, so a renamed
function or a call that stops going through its module global would silently
drop per-layer metrics.  This run checks that every target resolves and that
each counted layer is reached by a spectrum and a script replay.
"""

import importlib.util
from pathlib import Path

from p3bundles import monad
from p3bundles.engine import script
from p3bundles.oracle import clear_caches, linalg
from p3bundles.oracle.configs import ruling_line

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracer", _PATH)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def test_every_target_resolves_and_every_layer_is_reached():
    clear_caches()  # so the oracle layers run rather than answer from cache
    t = tracer.Tracer()
    t.install()
    try:
        spec = monad.MonadSpec.create(monad.Series.SIGMA0, 1, 0, 5)
        monad.spectrum(spec)
        script.run_script("prop1", params={"m": 1, "eps": 0, "a": 5})
    finally:
        t.uninstall()
    assert t.missing == []
    metrics = t.metrics()
    for name in ("oracle.configs.sample_calls", "oracle.sheaves.cohomology_calls",
                 "oracle.linalg.block_calls", "oracle.linalg.rank_mod_p_calls",
                 "engine.graph.propagate_calls"):
        assert metrics[name] > 0, name


def test_clear_caches_works_while_the_tracer_is_installed():
    linalg.line_restriction_block(ruling_line((0, 1)), 2)
    t = tracer.Tracer()
    t.install()
    try:
        clear_caches()
    finally:
        t.uninstall()
    assert linalg.line_restriction_block.cache_info().currsize == 0
