from p3bundles.engine.graph import (
    Contradiction,
    DeductionGraph,
    EngineError,
    GraphError,
    Interval,
)
from p3bundles.engine.script import (
    RUN_FAILURES,
    AssertionNotEntailed,
    ScriptError,
    ScriptReport,
    load_bundled_script,
    run_script,
    run_script_text,
)

__all__ = [
    "AssertionNotEntailed",
    "Contradiction",
    "DeductionGraph",
    "EngineError",
    "GraphError",
    "Interval",
    "RUN_FAILURES",
    "ScriptError",
    "ScriptReport",
    "load_bundled_script",
    "run_script",
    "run_script_text",
]
