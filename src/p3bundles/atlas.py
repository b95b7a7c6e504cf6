"""Enumeration and analytics over the moduli-component series.

The two monad-built series are swept over their proved parameter ranges,
compared against the instanton components (dimension 8n-3) and the odd-c1
family at dimension 16m-5, and shipped alongside a small curated table of
published low-degree rows.  Coverage and density questions about the set of
realized second Chern classes are answered exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable, Optional

from p3bundles.monad import (
    InvalidSpec,
    MonadSpec,
    Regime,
    Series,
    charge,
    component_dimension,
    expected_dimension,
    format_spectrum,
)


class Family(Enum):
    SIGMA0 = "sigma0"
    SIGMA1 = "sigma1"
    INSTANTON = "instanton"
    HARTSHORNE = "hartshorne"


class Flag(Enum):
    TYPO_SUSPECT = "typo-suspect"
    EXTENDED_REGIME = "extended-regime"


# Known families mentioned for context only; no dimension data is carried for
# them and none is ever fabricated.
NAME_STUBS: tuple[str, ...] = ("Ein", "Vedernikov", "Rao", "Barth-Hulek")


@dataclass(frozen=True)
class ComponentRecord:
    family: Family
    e: int
    n: int
    params: Optional[tuple[int, int, int]]  # (m, eps, a) where applicable
    dimension: int
    expected: int
    spectrum: Optional[tuple[int, ...]] = None
    flags: frozenset[Flag] = field(default_factory=frozenset)
    note: str = ""

    def __post_init__(self) -> None:
        if self.dimension < self.expected:
            raise ValueError(
                f"{self.family.value} record at n={self.n}: dimension "
                f"{self.dimension} below the lower bound {self.expected}")
        if self.family is Family.INSTANTON and self.dimension != 8 * self.n - 3:
            raise ValueError("instanton components have dimension 8n-3")
        if self.family is Family.HARTSHORNE:
            if self.n % 2 or self.dimension != 8 * self.n - 5:
                raise ValueError("the odd-c1 family lives at n = 2m with dimension 16m-5")

    def to_dict(self) -> dict:
        return {
            "family": self.family.value,
            "e": self.e,
            "n": self.n,
            "params": list(self.params) if self.params else None,
            "dimension": self.dimension,
            "expected": self.expected,
            "spectrum": list(self.spectrum) if self.spectrum else None,
            "flags": sorted(f.value for f in self.flags),
            "note": self.note,
        }


def _monad_record(spec: MonadSpec, spectrum: Optional[tuple[int, ...]] = None,
                  flags: Iterable[Flag] = (), note: str = "") -> ComponentRecord:
    all_flags = set(flags)
    if spec.regime is Regime.EXTENDED:
        all_flags.add(Flag.EXTENDED_REGIME)
    return ComponentRecord(
        family=Family(spec.series.value), e=spec.e, n=spec.n,
        params=(spec.m, spec.eps, spec.a),
        dimension=component_dimension(spec), expected=expected_dimension(spec.e, spec.n),
        spectrum=spectrum, flags=frozenset(all_flags), note=note)


def enumerate_series(series: Series, n_max: int) -> list[ComponentRecord]:
    """Every strict-range parameter triple with n <= n_max, ordered by
    (n, a, m, eps)."""
    if n_max < 1:
        raise ValueError("n_max must be positive")
    found: list[ComponentRecord] = []
    a = 2
    while charge(series, 2, a) <= n_max:  # the smallest load is 2 (m=1, eps=0)
        for m in range(1, a + 2):
            for eps in (0, 1):
                try:
                    spec = MonadSpec(series, m, eps, a)
                except InvalidSpec:  # extended regime, not a curated case
                    continue
                if spec.regime is Regime.STRICT and spec.n <= n_max:
                    found.append(_monad_record(spec))
        a += 1
    found.sort(key=lambda r: (r.n, r.params[2], r.params[0], r.params[1]))
    return found


def coverage_sigma0(n_lo: int, n_hi: int) -> list[int]:
    """Values of n in [n_lo, n_hi] realized by no strict-range c1 = 0 record.

    The per-a ranges [a^2+2, (a+1)^2+1] attain both endpoints once a >= 12,
    so consecutive ranges tile the integers and the list is empty from 146 on.
    """
    hit = {rec.n for rec in enumerate_series(Series.SIGMA0, n_hi)}
    return [n for n in range(n_lo, n_hi + 1) if n not in hit]


def density_sigma1(r: int) -> Fraction:
    """Fraction of the even integers 2, 4, ..., 2r realized as c2 of a
    strict-range c1 = -1 record, as an exact rational.

    Works interval-wise: at each a the realized n/2 fill
    [a(a+1)/2 + 2, a(a+1)/2 + 2*floor((a-3)/2)] completely.
    """
    if r < 1:
        raise ValueError("r must be positive")
    marked = bytearray(r + 1)
    a = 5
    while True:
        half_base = a * (a + 1) // 2
        lo = half_base + 2
        if lo > r:
            break
        hi = min(half_base + 2 * ((a - 3) // 2), r)
        if hi >= lo:
            marked[lo:hi + 1] = b"\x01" * (hi - lo + 1)
        a += 1
    return Fraction(sum(marked), r)


# ---------------------------------------------------------------------------
# curated low-degree table
#
# The rows are catalogue data, kept exactly as published; value disagreements
# with the closed-form dimension are flagged, never silently corrected.

def _sig0_small_spectrum(n: int) -> tuple[int, ...]:
    return tuple([-1] + [0] * (n - 2) + [1])


_CURATED: tuple[dict, ...] = (
    {"series": Series.SIGMA0, "params": (1, 0, 2), "n": 6, "dimension": 45,
     "spectrum": _sig0_small_spectrum(6)},
    {"series": Series.SIGMA0, "params": (1, 1, 2), "n": 7, "dimension": 53,
     "spectrum": _sig0_small_spectrum(7)},
    {"series": Series.SIGMA0, "params": (2, 0, 2), "n": 8, "dimension": 61,
     "spectrum": _sig0_small_spectrum(8)},
    {"series": Series.SIGMA0, "params": (2, 1, 2), "n": 9, "dimension": 69,
     "spectrum": _sig0_small_spectrum(9)},
    {"series": Series.SIGMA0, "params": (3, 0, 2), "n": 10, "dimension": 77,
     "spectrum": _sig0_small_spectrum(10)},
    {"series": Series.SIGMA0, "params": (3, 1, 2), "n": 11, "dimension": 85,
     "spectrum": _sig0_small_spectrum(11)},
    {"series": Series.SIGMA0, "params": (4, 0, 2), "n": 12, "dimension": 93,
     "spectrum": _sig0_small_spectrum(12)},
    {"series": Series.SIGMA0, "params": (1, 0, 4), "n": 18, "dimension": 141,
     "spectrum": (-3, -2, -2, -1, -1, -1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 2, 3),
     "flags": (Flag.TYPO_SUSPECT,),
     "note": "catalogue labels this dimension with the n=12 subscript; the "
             "value matches the closed form and is kept"},
    {"series": Series.SIGMA1, "params": (1, 0, 4), "n": 24, "dimension": 187,
     "spectrum": (-4, -3, -3, -2, -2, -2, -1, -1, -1, -1, -1, -1,
                  0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 2, 3)},
    {"series": Series.SIGMA1, "params": (1, 0, 5), "n": 34, "dimension": 281,
     "spectrum": (-5, -4, -4, -3, -3, -3, -2, -2, -2, -2,
                  -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0,
                  1, 1, 1, 1, 2, 2, 2, 3, 3, 4)},
    {"series": Series.SIGMA1, "params": (1, 1, 5), "n": 36, "dimension": 290,
     "spectrum": (-5, -4, -4, -3, -3, -3, -2, -2, -2, -2,
                  -1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0,
                  1, 1, 1, 1, 2, 2, 2, 3, 3, 4),
     "flags": (Flag.TYPO_SUSPECT,),
     "note": "catalogue prints dimension 281 (and an n=34 subscript) for this "
             "row; the closed form gives 290, which is emitted"},
    {"series": Series.SIGMA1, "params": (2, 0, 5), "n": 38, "dimension": 299,
     "spectrum": (-5, -4, -4, -3, -3, -3, -2, -2, -2, -2,
                  -1, -1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                  1, 1, 1, 1, 2, 2, 2, 3, 3, 4),
     "flags": (Flag.TYPO_SUSPECT,),
     "note": "catalogue labels this dimension with the n=36 subscript; the "
             "value matches the closed form and is kept"},
)


def curated_components() -> list[ComponentRecord]:
    """The published low-degree rows, cross-checked against the closed form."""
    out: list[ComponentRecord] = []
    for row in _CURATED:
        m, eps, a = row["params"]
        spec = MonadSpec.create(row["series"], m, eps, a)
        rec = _monad_record(spec, spectrum=row["spectrum"],
                            flags=row.get("flags", ()), note=row.get("note", ""))
        if rec.n != row["n"] or rec.dimension != row["dimension"]:
            raise AssertionError(
                f"curated row {row['params']} disagrees with the closed form: "
                f"({rec.n}, {rec.dimension}) vs ({row['n']}, {row['dimension']})")
        if len(row["spectrum"]) != rec.n:
            raise AssertionError(f"curated spectrum length off at n={rec.n}")
        out.append(rec)
    return out


def instanton_record(n: int) -> ComponentRecord:
    return ComponentRecord(Family.INSTANTON, 0, n, None,
                           8 * n - 3, expected_dimension(0, n))


def hartshorne_record(n: int) -> ComponentRecord:
    if n % 2 or n < 2:
        raise ValueError("the odd-c1 family needs n = 2m with m >= 1")
    return ComponentRecord(Family.HARTSHORNE, -1, n, None,
                           8 * n - 5, expected_dimension(-1, n))


def compare(e: int, n: int) -> dict:
    """All known records at (e, n), with strict dimension separations marked."""
    if e not in (0, -1):
        raise ValueError("e must be 0 or -1")
    series = next(s for s in Series if s.e == e)
    records = [rec for rec in enumerate_series(series, n) if rec.n == n]
    records.extend(rec for rec in curated_components()
                   if rec.e == e and rec.n == n)
    if e == 0:
        records.append(instanton_record(n))
    elif n % 2 == 0 and n >= 2:
        records.append(hartshorne_record(n))
    separations = []
    for one in records:
        for other in records:
            if one.family is other.family:
                continue
            if one.dimension > other.dimension:
                separations.append({
                    "larger": {"family": one.family.value, "params":
                               list(one.params) if one.params else None,
                               "dimension": one.dimension},
                    "smaller": {"family": other.family.value, "params":
                                list(other.params) if other.params else None,
                                "dimension": other.dimension},
                })
    return {
        "e": e,
        "n": n,
        "records": [rec.to_dict() for rec in records],
        "separations": separations,
        "name_stubs": list(NAME_STUBS),
    }


# ---------------------------------------------------------------------------
# table emission

TSV_COLUMNS = ("family", "e", "n", "m", "eps", "a", "dimension", "expected",
               "spectrum", "flags", "note")


def records_to_tsv(records: Iterable[ComponentRecord]) -> str:
    lines = ["\t".join(TSV_COLUMNS)]
    for rec in records:
        m, eps, a = rec.params if rec.params else ("", "", "")
        lines.append("\t".join(str(x) for x in (
            rec.family.value, rec.e, rec.n, m, eps, a, rec.dimension, rec.expected,
            format_spectrum(rec.spectrum) if rec.spectrum else "",
            ",".join(sorted(f.value for f in rec.flags)), rec.note)))
    return "\n".join(lines) + "\n"
