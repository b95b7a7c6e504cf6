"""Acceptance gate: one test per criterion, each printing its pass/fail line.

The full suite runs once per session (criterion 11 already runs the core
twice inside); every test then checks its criterion's verdict and that the
measured wall-clock stayed inside the budget the criteria pin down.
"""

import pytest

from p3bundles import acceptance, clear_caches, monad
from p3bundles.acceptance import BUDGETS, _Context, run_all
from p3bundles.engine.script import ScriptRunner
from p3bundles.oracle import SamplingFailed, config_hash, sheaves

# report_hash of run_all(seed=0), pinned with the golden corpus of
# tests/test_golden.py; a refactor must leave it unchanged
REPORT_HASH = "36699441249f46c5c9188a7066b756d9722df069797ef4fca0c7a1578d5519fb"

TITLES = {
    1: "dimension table, c1 = 0 series, exact",
    2: "dimension table, c1 = -1 series, discrepancy flagged",
    3: "twelve catalogued spectra via profile recovery",
    4: "two-route Euler-characteristic identities on the full grid",
    5: "pair-construction scripts entailed across the strict grid",
    6: "conic-construction scripts entailed across the strict grid",
    7: "oracle/engine agreement, zero mismatches",
    8: "charge coverage from 146 up, no gaps",
    9: "exact density values and upward trend",
    10: "dimension bounds against the reference counts",
    11: "byte-identical reports across two runs",
}


@pytest.fixture(scope="session")
def acceptance_run():
    report, timings = run_all(seed=0)
    return report, timings


@pytest.mark.parametrize("cid", sorted(TITLES))
def test_criterion(cid, acceptance_run, capsys):
    report, timings = acceptance_run
    crit = next(c for c in report["criteria"] if c["id"] == cid)
    verdict = "PASS" if crit["passed"] else "FAIL"
    with capsys.disabled():
        print(f"\ncriterion {cid:>2} [{verdict}] {TITLES[cid]} "
              f"({timings[cid]:.2f}s / {BUDGETS[cid]}s)")
    assert crit["passed"], crit
    assert timings[cid] < BUDGETS[cid], f"criterion {cid} over budget"


def test_overall_verdict(acceptance_run):
    report, timings = acceptance_run
    assert report["passed"]
    assert sum(timings.values()) < 15 * 60


def test_report_is_canonical(acceptance_run):
    from p3bundles.jsonio import canonical_json

    report, _ = acceptance_run
    canonical_json(report)  # floats or exotic types anywhere would raise
    assert report["report_hash"]


def test_report_hash_is_pinned(acceptance_run):
    report, _ = acceptance_run
    assert report["report_hash"] == REPORT_HASH


@pytest.mark.parametrize("params,error", [
    ({"m": 1, "eps": 0, "a": 5}, "SamplingFailed"),      # the sampler gives up
    ({"m": 1, "eps": 0, "a": 5, "d": 3}, "ScriptError"),  # prop1 declares no d
])
def test_failed_runs_are_recorded_not_raised(monkeypatch, params, error):
    if error == "SamplingFailed":
        def give_up(m, seed):
            raise SamplingFailed("ruling configuration")

        monkeypatch.setattr("p3bundles.engine.script.sample_ruling", give_up)
    ctx = _Context(0)
    outcome = ctx.run("prop1", **params)
    assert outcome["status"] == f"failed: {error}"
    assert outcome["detail"]


def test_the_second_pass_deduces_everything_again(monkeypatch):
    """Criterion 11 compares two passes; after the reset between them the
    second deduces every script and builds every profile graph again,
    where the memos would otherwise answer it."""
    built = []
    deduce, pinned_graph = ScriptRunner.deduce, monad._pinned_graph

    def counting_deduce(self):
        built.append(self.name)
        return deduce(self)

    def counting_graph(spec, twists, vectors):
        built.append("profile")
        return pinned_graph(spec, twists, vectors)

    def criterion(ctx):
        ran = [ctx.run("prop1", m=1, eps=0, a=5, seed=s) for s in range(3)]
        spec = monad.MonadSpec.create(monad.Series.SIGMA0, 1, 0, 5)
        spectra = {monad.spectrum(spec, seed=s) for s in range(3)}
        return {"passed": all(o["status"] == "entailed" for o in ran) and len(spectra) == 1}

    monkeypatch.setattr(ScriptRunner, "deduce", counting_deduce)
    monkeypatch.setattr(monad, "_pinned_graph", counting_graph)
    monkeypatch.setattr(acceptance, "_CRITERIA", ((5, "three seeds of one run", criterion),))
    clear_caches()
    report, _ = run_all(seed=0)
    assert report["passed"]
    # once per pass: the seeds of a pass share one deduction and one graph
    assert built == ["prop1", "profile"] * 2


def test_the_second_pass_misses_every_oracle_memo(monkeypatch):
    """After the reset between the passes of criterion 11, the second pass
    finds the cohomology-vector and configuration-hash memos empty, and
    computes every entry again: as many misses, and hits, as the first."""
    memos = (sheaves.ideal_cohomology, sheaves.serre_cohomology, config_hash)
    passes = []

    def criterion(ctx):
        start = [memo.cache_info().currsize for memo in memos]
        ran = [ctx.run("prop1", m=1, eps=0, a=5, seed=s) for s in range(3)]
        spec = monad.MonadSpec.create(monad.Series.SIGMA0, 1, 0, 5)
        spectra = {monad.spectrum(spec, seed=s) for s in range(3)}
        passes.append((start, [memo.cache_info()[:2] for memo in memos]))
        return {"passed": all(o["status"] == "entailed" for o in ran) and len(spectra) == 1}

    monkeypatch.setattr(acceptance, "_CRITERIA", ((5, "three seeds of one run", criterion),))
    clear_caches()
    report, _ = run_all(seed=0)
    assert report["passed"]
    (start, counts), (second_start, second_counts) = passes
    assert start == second_start == [0, 0, 0]
    assert second_counts == counts and all(misses for _, misses in counts)
