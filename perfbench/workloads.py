"""Run lists of the benchmark workloads, generated from a workload seed.

A run is one call into the public API: one bundled proof-script replay
(``engine.script.run_script``) or one spectrum recovery (``monad.spectrum``).
The grids mirror acceptance criteria 5 and 6 and are written out here rather
than imported, so that a workload stays the same when the program's own
constants move.  The program only ever sees the generated parameters and
seeds.
"""

from __future__ import annotations

import hashlib

WORKLOADS = ("pair-sweep", "conic-sweep", "spectrum-sweep")

PROP1_GRID = tuple((m, eps, a)
                   for a in range(5, 13)
                   for eps in (0, 1)
                   for m in range(1, a - 3 - eps + 1))
MODIFIED_GRID = tuple((a - 4, a, d) for a in (12, 13, 14) for d in range(1, 6))
PROP2_GRID = tuple((m, eps, a)
                   for m in (1, 2, 3)
                   for eps in (0, 1)
                   for a in range(2 * (m + eps) + 4, 2 * (m + eps) + 9))

# Every strict-range spec of both series up to a = 11 ...
SPECTRUM_SPECS = tuple(
    [("sigma0", m, eps, a)
     for a in range(5, 12) for eps in (0, 1) for m in range(1, a - 4 - eps + 1)]
    + [("sigma1", m, eps, a)
       for a in range(5, 12) for eps in (0, 1) for m in range(1, a + 1)
       if a >= 2 * (m + eps) + 3])
# ... plus the heaviest a = 12 sigma0 spec that keeps a repetition near 10 s:
# its mod-p certificates rarely close, so the exact fallback dominates it.
SPECTRUM_TAIL = (("sigma0", 9, 1, 12),)

# Passes over each grid, chosen so that a repetition has at least 100 runs.
PAIR_PASSES = 4
PROP2_PASSES = 2
MODIFIED_PASSES = 3
SPECTRUM_PASSES = 2


def run_seed(seed: int, label: str) -> int:
    """Seed handed to the program for one run, derived from the workload seed."""
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % (2 ** 31)


def _script_run(seed: int, script: str, params: dict) -> dict:
    return {"kind": "script", "name": script, "params": params, "seed": seed}


def _spectrum_run(seed: int, spec: tuple) -> dict:
    series, m, eps, a = spec
    return {"kind": "spectrum", "name": series,
            "params": {"m": m, "eps": eps, "a": a}, "seed": seed}


def runs(workload: str, seed: int) -> list[dict]:
    """The fixed run list of one repetition of ``workload``.

    As in the acceptance suite, all runs of one pass over a grid share one
    seed, so runs that sample the same configuration reuse the caches.
    """
    out: list[dict] = []
    if workload == "pair-sweep":
        for p in range(PAIR_PASSES):
            s = run_seed(seed, f"pair-sweep:{p}")
            out += [_script_run(s, "prop1", {"m": m, "eps": eps, "a": a})
                    for m, eps, a in PROP1_GRID]
    elif workload == "conic-sweep":
        for p in range(max(PROP2_PASSES, MODIFIED_PASSES)):
            s = run_seed(seed, f"conic-sweep:{p}")
            if p < PROP2_PASSES:
                out += [_script_run(s, "prop2", {"m": m, "eps": eps, "a": a})
                        for m, eps, a in PROP2_GRID]
            if p < MODIFIED_PASSES:
                out += [_script_run(s, "prop1-modified", {"m": m, "a": a, "d": d})
                        for m, a, d in MODIFIED_GRID]
    elif workload == "spectrum-sweep":
        for p in range(SPECTRUM_PASSES):
            s = run_seed(seed, f"spectrum-sweep:{p}")
            out += [_spectrum_run(s, spec) for spec in SPECTRUM_SPECS]
        s = run_seed(seed, "spectrum-sweep:tail")
        out += [_spectrum_run(s, spec) for spec in SPECTRUM_TAIL]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return out
