"""Two series of rank-2 bundles obtained as monad cohomology.

Each member starts from a direct sum of two extension bundles (the ruling
construction for c1 = 0, the nodal-conic construction for c1 = -1) and kills
the outer line-bundle factors O(left) and O(right).  This module carries the
exact bookkeeping for those families: Chern data, h^1 profiles pinned through
the deduction engine against oracle instances, spectrum recovery, component
dimensions, and the intermediate Euler-characteristic identities, each checked
by two independent routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from math import comb
from typing import Iterable, Mapping

from p3bundles.chern import ChernCharacter
from p3bundles.engine.graph import DeductionGraph, Kind, Node
from p3bundles.engine.script import RUN_FAILURES, run_script
from p3bundles.engine import EngineError, Interval
from p3bundles.oracle import (
    GeometryConfig,
    sample_conics,
    sample_ruling,
    serre_cohomology,
)
from p3bundles.rng import child_seed
from p3bundles.tables import CohomologyVector


class Series(Enum):
    SIGMA0 = "sigma0"  # c1 = 0, outer factors O(-a), O(a)
    SIGMA1 = "sigma1"  # c1 = -1, outer factors O(-a-1), O(a)

    @property
    def e(self) -> int:
        """c1 of the series; the display constants are formulas in it."""
        return 0 if self is Series.SIGMA0 else -1


class Regime(Enum):
    STRICT = "strict"
    EXTENDED = "extended"


class InvalidSpec(ValueError):
    """Parameters fall outside the proved range and the curated small cases."""


class Unpinned(EngineError):
    """The engine left an h^1 value loose; some oracle fact is missing."""

    def __init__(self, twist: int, interval: object = None):
        detail = f" (interval {interval})" if interval is not None else ""
        super().__init__(f"h1 at twist {twist} is not pinned{detail}")
        self.twist = twist


class InconsistentProfile(ValueError):
    """No integer multiset reproduces the given h^1 profile."""


# Small-parameter cases outside the proved inequalities that are still
# components; membership is the only admission ticket for EXTENDED specs.
EXTENDED_SMALL_CASES: frozenset[tuple[Series, int, int, int]] = frozenset({
    (Series.SIGMA0, 1, 0, 2),
    (Series.SIGMA0, 1, 1, 2),
    (Series.SIGMA0, 2, 0, 2),
    (Series.SIGMA0, 2, 1, 2),
    (Series.SIGMA0, 3, 0, 2),
    (Series.SIGMA0, 3, 1, 2),
    (Series.SIGMA0, 4, 0, 2),
    (Series.SIGMA0, 1, 0, 4),
    (Series.SIGMA1, 1, 0, 4),
    (Series.SIGMA1, 1, 1, 5),
    (Series.SIGMA1, 2, 0, 5),
})


def pair_chain_top(a: int) -> int:
    """Largest summand index the prop1 pair chain runs at twist a: a - 4 from
    a = 5 on, and 0, below every summand index, before."""
    return a - 4 if a >= 5 else 0


def in_strict_range(series: Series, m: int, eps: int, a: int) -> bool:
    m2 = m + eps  # the larger summand's index, not MonadSpec.load
    if series is Series.SIGMA0:
        return (a <= 12 and m2 <= pair_chain_top(a)) or (a >= 12 and m2 <= a + 1)
    return a >= 2 * m2 + 3


def charge(series: Series, load: int, a: int) -> int:
    """c2 = (1 - e) load + a (a - e) of the bundle on summands of total charge ``load``."""
    e = series.e
    return (1 - e) * load + a * (a - e)


@dataclass(frozen=True)
class MonadSpec:
    series: Series
    m: int
    eps: int
    a: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise InvalidSpec("m must be a positive integer")
        if self.eps not in (0, 1):
            raise InvalidSpec("eps must be 0 or 1")
        if self.a < 2:
            raise InvalidSpec("a must be at least 2")
        if self.regime is Regime.EXTENDED and self.key not in EXTENDED_SMALL_CASES:
            raise InvalidSpec(
                f"(m,eps,a)=({self.m},{self.eps},{self.a}) is not a curated "
                "extended-regime case")

    @classmethod
    def create(cls, series: Series, m: int, eps: int, a: int) -> "MonadSpec":
        """Same as ``MonadSpec(series, m, eps, a)``, under the name callers use."""
        return cls(series, m, eps, a)

    @cached_property  # evaluated once, by __post_init__
    def regime(self) -> Regime:
        strict = in_strict_range(self.series, self.m, self.eps, self.a)
        return Regime.STRICT if strict else Regime.EXTENDED

    @property
    def key(self) -> tuple[Series, int, int, int]:
        return (self.series, self.m, self.eps, self.a)

    @property
    def e(self) -> int:
        return self.series.e

    @property
    def load(self) -> int:
        """Total second Chern class of the two extension summands."""
        return 2 * self.m + self.eps

    @property
    def summand_params(self) -> tuple[int, int]:
        return (self.m, self.m + self.eps)

    @property
    def n(self) -> int:
        return charge(self.series, self.load, self.a)

    @property
    def outer_twists(self) -> tuple[int, int]:
        """(left, right) twists of the line-bundle factors killed by the monad."""
        return (self.e - self.a, self.a)

    def describe(self) -> dict:
        return {"series": self.series.value, "m": self.m, "eps": self.eps,
                "a": self.a, "regime": self.regime.value, "e": self.e, "n": self.n}


def summand_character(series: Series, mi: int) -> ChernCharacter:
    return ChernCharacter.from_classes(2, series.e, (1 - series.e) * mi, 0)


def cohomology_chern(spec: MonadSpec) -> ChernCharacter:
    """Character of the monad cohomology: middle term minus outer factors."""
    m1, m2 = spec.summand_params
    middle = summand_character(spec.series, m1) + summand_character(spec.series, m2)
    left, right = spec.outer_twists
    ch = middle - ChernCharacter.of_line_bundle(left) - ChernCharacter.of_line_bundle(right)
    c1, c2, c3 = ch.chern_classes()
    # c3 = 0 is asserted for the c1 = -1 series, not derived
    if (ch.rank, c1, c2, c3) != (2, spec.e, spec.n, 0):
        raise EngineError(f"character bookkeeping broke: got {(ch.rank, c1, c2, c3)}")
    return ch


def component_dimension(spec: MonadSpec) -> int:
    a, load = spec.a, spec.load
    if spec.series is Series.SIGMA0:
        return 4 * comb(a + 3, 3) + load * (10 - a) - 11
    return 4 * comb(a + 3, 3) + 2 * comb(a + 3, 2) - load * (2 * a - 19) - 17


def expected_dimension(e: int, n: int) -> int:
    return 8 * n - 3 + 2 * e


# ---------------------------------------------------------------------------
# h^1 profiles through the deduction engine


def _summand_configs(spec: MonadSpec, seed: int) -> list[GeometryConfig]:
    sampler = sample_ruling if spec.series is Series.SIGMA0 else sample_conics
    return [sampler(mi, child_seed(seed, f"summand:{i}"))
            for i, mi in enumerate(spec.summand_params, start=1)]


def _summand_vectors(configs: list[GeometryConfig],
                     twists: list[int]) -> tuple[tuple[CohomologyVector, ...], ...]:
    """Per summand, its cohomology vector at each twist, ascending.  They are
    asked highest twist first: Serre duality asks the ideal at -t-4-s, so the
    ideal twists come lowest first, and a regularity record that h0_ideal
    sets answers every higher one."""
    return tuple(tuple(reversed([serre_cohomology(cfg, t) for t in reversed(twists)]))
                 for cfg in configs)


def _pinned_graph(spec: MonadSpec, twists: list[int],
                  vectors: tuple[tuple[CohomologyVector, ...], ...]) -> DeductionGraph:
    """One unpropagated graph per sweep: 0 -> K -> E1+E2 -> O(right) -> 0
    stacked on 0 -> O(left) -> K -> F -> 0, with oracle pins on the summands."""
    graph = DeductionGraph()
    graph.add_node(Node("O", Kind.LINE, params=(0,)))
    for i, mi in enumerate(spec.summand_params, start=1):
        graph.add_node(Node(f"E{i}", Kind.SHEAF, locally_free=True,
                            chern=summand_character(spec.series, mi)))
    graph.add_sum("bbE", ["E1", "E2"], locally_free=True)
    graph.add_node(Node("K", Kind.SHEAF))
    graph.add_node(Node("F", Kind.SHEAF, locally_free=True, chern=cohomology_chern(spec)))
    left, right = spec.outer_twists
    graph.add_triple("TK", [("K", 0), ("bbE", 0), ("O", right)])
    graph.add_triple("TE", [("O", left), ("K", 0), ("F", 0)])
    for t in twists:
        graph.materialize("TK", t)
        graph.materialize("TE", t)
    for i, vecs in enumerate(vectors, start=1):
        for t, vec in zip(twists, vecs):
            for degree in range(4):
                graph.add_value_fact("ORACLE", f"E{i}", t, degree, vec[degree])
    return graph


# Profiles kept by h1_intervals: a spectrum sweep over the 74 strict specs
# up to a = 11 asks one per spec and twist range.
PROFILES = 256


@lru_cache(maxsize=PROFILES)
def _pinned_h1(spec: MonadSpec, lo: int, hi: int,
               vectors: tuple[tuple[CohomologyVector, ...], ...]) -> tuple[tuple, ...]:
    """(lo, hi) of h^1(F(t)) for t in [lo, hi]: a function of the oracle
    vectors of the summands, never of the configurations behind them."""
    twists = list(range(lo, hi + 1))
    graph = _pinned_graph(spec, twists, vectors)
    return tuple((iv.lo, iv.hi) for iv in (graph.interval("F", t, 1) for t in twists))


def h1_intervals(spec: MonadSpec, lo: int, hi: int, seed: int = 0) -> dict[int, Interval]:
    """h^1 interval of the monad bundle at every twist in [lo, hi], from one
    graph.  The summands are sampled at ``seed`` and their vectors asked each
    time; the graph's answer is memoised on those vectors."""
    if lo > hi:
        raise ValueError("empty twist interval")
    twists = list(range(lo, hi + 1))
    vectors = _summand_vectors(_summand_configs(spec, seed), twists)
    return {t: Interval(*bounds) for t, bounds in zip(twists, _pinned_h1(spec, lo, hi, vectors))}


def h1_profile(spec: MonadSpec, lo: int, hi: int, seed: int = 0) -> dict[int, int]:
    """Pinned h^1 of the monad bundle for every twist in [lo, hi].

    Raises Unpinned where the engine cannot close the interval; that is the
    normal outcome for twists >= 1, where the rank of the evaluation map onto
    sections of the outer line bundle is not controlled by any fact.
    """
    profile: dict[int, int] = {}
    for t, iv in h1_intervals(spec, lo, hi, seed).items():
        if not iv.pinned:
            raise Unpinned(t, iv)
        profile[t] = iv.value
    return profile


# ---------------------------------------------------------------------------
# spectrum recovery


def spectrum_h1(entries: Iterable[int], l: int) -> int:
    """h^1 at twist l <= -1 determined by a spectrum: sections of
    O(k+l+1) on the line, summed over entries."""
    return sum(max(0, k + l + 2) for k in entries)


def recover_spectrum(profile: Mapping[int, int], e: int, expected_len: int) -> tuple[int, ...]:
    """Unique multiset reproducing a contiguous negative-twist profile.

    ``profile`` maps twists -1, -2, ..., -S to h^1 values.  Successive first
    differences of f(s) = h1(-s) count the entries >= s-1; the negative half
    is filled in by the c1-symmetry k -> e - k (through 0 for e = 0, through
    -1/2 for e = -1).
    """
    if e not in (0, -1):
        raise ValueError("e must be 0 or -1")
    depth = -min(profile)
    if set(profile) != {-s for s in range(1, depth + 1)}:
        raise InconsistentProfile("profile must cover a contiguous range from -1 down")
    f = {s: profile[-s] for s in range(1, depth + 1)}
    if depth < 2 or f[depth] != 0 or f[depth - 1] != 0:
        raise InconsistentProfile("profile window too narrow to certify stabilization")
    above = {j: f[j + 1] - f[j + 2] for j in range(depth - 1)}
    if any(v < 0 for v in above.values()):
        raise InconsistentProfile("h^1 profile is not non-increasing")
    counts = {j: above[j] - above.get(j + 1, 0) for j in above}
    if any(v < 0 for v in counts.values()):
        raise InconsistentProfile("first differences of the profile are not non-increasing")
    # entry -> multiplicity; the mirrors e - j are negative, so no key repeats
    multiplicity = {**counts, **{e - j: c for j, c in counts.items() if e - j != j}}
    total = sum(multiplicity.values())
    if total != expected_len:
        raise InconsistentProfile(f"recovered {total} entries, expected {expected_len}")
    # spectrum_h1 over the distinct entries, each term times its multiplicity
    for s in range(1, depth + 1):
        if sum(c * max(0, k - s + 2) for k, c in multiplicity.items()) != f[s]:
            raise InconsistentProfile(f"recovered multiset misses the profile at -{s}")
    return tuple(k for k in sorted(multiplicity) for _ in range(multiplicity[k]))


def spectrum(spec: MonadSpec, seed: int = 0) -> tuple[int, ...]:
    depth = spec.a + 3
    profile = h1_profile(spec, -depth, -1, seed=seed)
    return recover_spectrum(profile, spec.e, spec.n)


def format_spectrum(entries: Iterable[int]) -> str:
    """Compact multiset notation, e.g. (-1,0^4,1)."""
    parts = []
    run: list[int] = []
    for k in sorted(entries):
        if run and run[0] != k:
            parts.append(run)
            run = []
        run.append(k)
    if run:
        parts.append(run)
    return "(" + ",".join(
        f"{r[0]}^{len(r)}" if len(r) > 1 else f"{r[0]}" for r in parts) + ")"


# ---------------------------------------------------------------------------
# Euler-characteristic identities, each computed two independent ways


def _entry(quantity: str, closed_form: int, chi_route: int, inputs: list[str]) -> dict:
    return {"quantity": quantity, "closed_form": closed_form, "chi_route": chi_route,
            "inputs": inputs, "equal": closed_form == chi_route}


def _top_sections(series: Series, load: int, a: int) -> int:
    """Printed closed form of h0(bbE(a - e)), the sections at the top twist."""
    if series is Series.SIGMA0:
        return 4 * comb(a + 3, 3) - load * (a + 2)
    return 4 * comb(a + 3, 3) + 2 * comb(a + 3, 2) - load * (2 * a + 5)


def identity_report(series: Series, m: int, eps: int, a: int) -> list[dict]:
    """Section counts and h^1 sizes feeding the dimension count.

    Every quantity appears twice: once from the printed closed form, once from
    character arithmetic plus the stability inputs (h^0 of the Hom-type pieces
    vanishes; the two summands are stable and non-isomorphic).  The h^2/h^3
    vanishings behind the chi routes are the ones certified by the bundled
    proof scripts.  The identities are pure arithmetic, so any (m, eps, a)
    grid point is accepted regardless of regime.
    """
    s = -series.e  # O(s) = det^-1: E1(s)*E2 = Hom(E1, E2), S2 E(s) = End_0 E
    ch1 = summand_character(series, m)
    ch2 = summand_character(series, m + eps)
    bbE = ch1 + ch2
    t12 = ch1.twist(s) * ch2
    sym_chi = ch1.sym2().twist(s).chi() + t12.chi() + ch2.sym2().twist(s).chi()
    if series is Series.SIGMA0:
        top, pair, sym = "a", "E1*E2", "S2 bbE"
        closed = (8 * m + 4 * eps - 4, 24 * m + 12 * eps - 10, 32 * m + 16 * eps - 14)
    else:
        top, pair, sym = "a+1", "E1(1)*E2", "S2 bbE(1)"
        closed = (16 * m + 8 * eps - 6, 48 * m + 24 * eps - 16, 64 * m + 32 * eps - 22)
    return [
        _entry(f"h0(bbE({top}))", _top_sections(series, 2 * m + eps, a),
               (ch1.twist(a + s) + ch2.twist(a + s)).chi(),
               [f"h1=h2=h3 of both summands vanish at twist {top}"]),
        _entry(f"h1({pair})", closed[0], -t12.chi(),
               [f"h0({pair})=0 by stability", "h2,h3 vanish along the pair chain"]),
        _entry(f"h1({sym})", closed[1], -sym_chi,
               [f"h0({sym})=0 by stability", "h2,h3 of each S2 summand vanish"]),
        _entry("h1(End bbE)", closed[2], 2 - (bbE * bbE.dual()).chi(),
               ["h0(End bbE)=2: identity endomorphisms of two non-isomorphic "
                "stable summands", "h2,h3 vanish"]),
    ]


# ---------------------------------------------------------------------------
# middle-term vanishing report


def _condition(target: str, value: int, expected: int = 0) -> dict:
    return {"target": target, "expected": expected, "oracle_value": value,
            "established_on_instance": value == expected}


def _script_plan(spec: MonadSpec) -> list[tuple[str, dict[str, int]]]:
    m, eps, a = spec.m, spec.eps, spec.a
    if spec.series is Series.SIGMA1:
        return [("prop2", {"m": m, "eps": eps, "a": a})]
    top = pair_chain_top(a)
    if m + eps <= top:
        return [("prop1", {"m": m, "eps": eps, "a": a})]
    if a >= 12:
        # Oversized summands go through the modification chain one at a time.
        plan: list[tuple[str, dict[str, int]]] = []
        for mi in sorted(set(spec.summand_params)):
            if mi <= top:
                plan.append(("prop1", {"m": mi, "eps": 0, "a": a}))
            else:
                plan.append(("prop1-modified", {"m": top, "a": a, "d": mi - top}))
        return plan
    # Extended small cases: attempt the pair chain and report what happens.
    return [("prop1", {"m": m, "eps": eps, "a": a})]


def middle_term_checks(spec: MonadSpec, seed: int = 0) -> dict:
    """Vanishing report for the monad middle term bbE = E1 + E2.

    The c1 = 0 series is checked against the four instanton-style conditions
    h0(-1) = h1(-2) = h2(-2) = h3(-3) = 0.  The condition list is reported in
    two readings (with and without the h1 clause) because published uses of it
    disagree on whether the h1 clause belongs; the report takes no side.  The
    c1 = -1 series is checked against the vanishing list of its own chain.
    Every value is measured on sampled witness configurations, and the bundled
    proof scripts are replayed as engine evidence with full derivation chains.
    """
    configs = _summand_configs(spec, seed)

    def total(t: int, degree: int) -> int:
        return sum(serre_cohomology(cfg, t)[degree] for cfg in configs)

    a = spec.a
    conditions: list[dict] = []
    readings: dict | None = None
    if spec.series is Series.SIGMA0:
        four = [
            _condition("h0(bbE(-1))", total(-1, 0)),
            _condition("h1(bbE(-2))", total(-2, 1)),
            _condition("h2(bbE(-2))", total(-2, 2)),
            _condition("h3(bbE(-3))", total(-3, 3)),
        ]
        conditions.extend(four)
        readings = {
            "as_printed": all(c["established_on_instance"] for c in four),
            "without_h1_clause": all(
                c["established_on_instance"] for c in four if "h1" not in c["target"]),
            "h1_clause_value": four[1]["oracle_value"],
        }
        top = "a"
    else:
        conditions.append(_condition("h0(bbE)", total(0, 0)))
        conditions.append(_condition("h1(bbE(-a))", total(-a, 1)))
        conditions.append(_condition("h2(bbE(-a))", total(-a, 2)))
        for i, cfg in enumerate(configs, start=1):
            conditions.append(_condition(
                f"h1(E{i}(a-3))", serre_cohomology(cfg, a - 3)[1]))
            conditions.append(_condition(
                f"h1(E{i}(a))", serre_cohomology(cfg, a)[1]))
        top = "a+1"
    conditions.append(_condition(f"h1(bbE({top}))", total(a - spec.e, 1)))
    conditions.append(_condition(f"h0(bbE({top}))", total(a - spec.e, 0),
                                 expected=_top_sections(spec.series, spec.load, a)))

    evidence: list[dict] = []
    for idx, (script, params) in enumerate(_script_plan(spec)):
        run_seed = child_seed(seed, f"evidence:{idx}") % (2 ** 31)
        entry: dict = {"script": script, "params": params, "seed": run_seed}
        try:
            report = run_script(script, params=params, seed=run_seed)
        except RUN_FAILURES as exc:
            entry["status"] = "failed"
            entry["error"] = f"{type(exc).__name__}: {exc}"
        else:
            entry["status"] = "entailed"
            entry["asserts"] = report.asserts
            entry["report_hash"] = report.report_hash
        evidence.append(entry)

    return {
        "spec": spec.describe(),
        "conditions": conditions,
        "readings": readings,
        "engine_evidence": evidence,
        "established": all(c["established_on_instance"] for c in conditions)
        and all(ev["status"] == "entailed" for ev in evidence),
    }
