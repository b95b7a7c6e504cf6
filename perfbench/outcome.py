"""What makes a run correct: its outcome, the outcome's digest, and the
invariants checked on every seed.

The outcome of a script replay is its status, each assert's target and
interval, the agreement counts and the configuration hashes; that of a
spectrum run is the recovered tuple.  ``report_hash`` is deliberately left
out, so rewording the derivation chains does not count as a wrong answer.
For the default workload seed every run's digest is pinned in
``digests.json``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent / "digests.json"
DEFAULT_SEED = 0


def script_outcome(report) -> dict:
    return {
        "status": "entailed" if report.passed else "not-entailed",
        "asserts": [[a["target"], a["relation"], a["expected"], a["interval"]]
                    for a in report.asserts],
        "checked": report.agreement.get("checked", 0),
        "mismatches": len(report.agreement.get("mismatches", ())),
        "configs": {label: cfg["hash"] for label, cfg in sorted(report.configs.items())},
    }


def spectrum_outcome(entries) -> dict:
    return {"status": "recovered", "spectrum": list(entries)}


def error_outcome(exc: BaseException) -> dict:
    return {"status": f"raised {type(exc).__name__}"}


def digest(outcome: dict) -> str:
    text = json.dumps(outcome, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def workload_digest(run_digests: list[str]) -> str:
    return hashlib.sha256("\n".join(run_digests).encode("utf-8")).hexdigest()


def spectrum_length(series: str, m: int, eps: int, a: int) -> int:
    """c2 of the monad bundle, which is the length of its spectrum."""
    load = 2 * m + eps
    return load + a * a if series == "sigma0" else 2 * load + a * (a + 1)


def problems(run: dict, outcome: dict) -> list[str]:
    """Invariants every correct outcome meets, whatever the seed."""
    status = outcome["status"]
    if run["kind"] == "script":
        if status != "entailed":
            return [f"status {status}"]
        out = []
        if not outcome["asserts"]:
            out.append("no asserts")
        for target, relation, expected, (lo, hi) in outcome["asserts"]:
            entailed = (lo == hi == expected if relation == "="
                        else hi is not None and hi <= expected)
            if not entailed:
                out.append(f"assert {target} {relation} {expected}: interval [{lo}, {hi}]")
        if outcome["checked"] < 1:
            out.append("no agreement slots checked")
        if outcome["mismatches"]:
            out.append(f"{outcome['mismatches']} agreement mismatches")
        return out
    if status != "recovered":
        return [f"status {status}"]
    entries = outcome["spectrum"]
    p = run["params"]
    n = spectrum_length(run["name"], p["m"], p["eps"], p["a"])
    out = []
    if len(entries) != n:
        out.append(f"spectrum has {len(entries)} entries, expected {n}")
    mirror = sorted(-k if run["name"] == "sigma0" else -1 - k for k in entries)
    if mirror != sorted(entries):
        out.append("spectrum is not symmetric")
    return out


def load_pins() -> dict:
    """Pinned run digests per workload for the default seed."""
    if not DIGESTS.exists():
        return {}
    return json.loads(DIGESTS.read_text("utf-8"))["workloads"]


def pin_mismatches(pinned: list[str], got: list[str]) -> list[int]:
    """Indices of the runs in ``got`` whose digest differs from the pin."""
    return [i for i, d in enumerate(got) if i >= len(pinned) or pinned[i] != d]
