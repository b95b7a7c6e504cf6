"""Series enumeration, coverage, density, and the curated component table."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p3bundles.atlas import (
    ComponentRecord,
    Family,
    Flag,
    NAME_STUBS,
    TSV_COLUMNS,
    compare,
    coverage_sigma0,
    curated_components,
    density_sigma1,
    enumerate_series,
    hartshorne_record,
    instanton_record,
    records_to_tsv,
)
from p3bundles import monad as monad_module
from p3bundles.monad import (
    EXTENDED_SMALL_CASES,
    MonadSpec,
    Series,
    component_dimension,
    in_strict_range,
)


def brute_force(series: Series, n_max: int):
    """Triple loop over every conceivable (m, eps, a), no early exits."""
    rows = []
    for a in range(2, n_max):
        for eps in (0, 1):
            for m in range(1, n_max):
                if not in_strict_range(series, m, eps, a):
                    continue
                spec = MonadSpec.create(series, m, eps, a)
                if spec.n <= n_max:
                    rows.append((spec.n, a, m, eps))
    return sorted(rows)


@pytest.mark.parametrize("series", [Series.SIGMA0, Series.SIGMA1])
def test_enumeration_matches_brute_force(series):
    records = enumerate_series(series, 220)
    got = sorted((r.n, r.params[2], r.params[0], r.params[1]) for r in records)
    assert got == brute_force(series, 220)


@pytest.mark.parametrize("series", [Series.SIGMA0, Series.SIGMA1])
def test_enumeration_evaluates_the_strict_range_once_per_record(monkeypatch, series):
    calls = []

    def counted(*args):
        calls.append(args[1:])
        return in_strict_range(*args)

    monkeypatch.setattr(monad_module, "in_strict_range", counted)
    records = enumerate_series(series, 400)
    assert records
    for rec in records:
        assert calls.count(rec.params) == 1


def test_enumeration_is_sorted_and_bounded():
    records = enumerate_series(Series.SIGMA0, 400)
    keys = [(r.n, r.params[2], r.params[0], r.params[1]) for r in records]
    assert keys == sorted(keys)
    assert all(r.n <= 400 for r in records)


def test_charge_interval_endpoints_attained():
    """For each a the realized charges fill [a^2+2, (a+1)^2+1]; both ends
    appear once the tail branch opens up."""
    records = enumerate_series(Series.SIGMA0, 400)
    charges = {r.n for r in records}
    for a in (12, 13, 14, 15, 16, 17, 18):
        assert a * a + 2 in charges
        assert (a + 1) * (a + 1) + 1 in charges


def test_coverage_window_from_146():
    assert coverage_sigma0(146, 2000) == []
    missing = coverage_sigma0(1, 146)
    assert 146 not in missing
    assert missing and missing == sorted(missing)


def test_coverage_agrees_with_enumeration():
    covered = {r.n for r in enumerate_series(Series.SIGMA0, 300)}
    missing = coverage_sigma0(1, 300)
    assert set(missing) == set(range(1, 301)) - covered


@given(st.integers(min_value=1, max_value=400))
@settings(max_examples=20, deadline=None)
def test_density_matches_enumeration(r):
    # density counts realized even charges n <= 2r against the r slots
    realized = {rec.n for rec in enumerate_series(Series.SIGMA1, 2 * r)}
    assert density_sigma1(r) == Fraction(len(realized), r)


def test_density_known_values():
    assert density_sigma1(1) == 0
    assert density_sigma1(17) == Fraction(1, 17)
    assert density_sigma1(1000) == Fraction(77, 100)
    assert density_sigma1(10 ** 6) > density_sigma1(10 ** 3)


def test_density_gap_shrinks():
    gaps = [1 - density_sigma1(10 ** k) for k in range(3, 7)]
    assert all(b <= a for a, b in zip(gaps, gaps[1:]))


def test_curated_table_shape():
    records = curated_components()
    assert len(records) == 12
    by_family = {}
    for rec in records:
        by_family.setdefault(rec.family, []).append(rec)
    assert len(by_family[Family.SIGMA0]) == 8
    assert len(by_family[Family.SIGMA1]) == 4
    for rec in records:
        assert rec.spectrum is not None and len(rec.spectrum) == rec.n
        spec = MonadSpec.create(
            Series.SIGMA0 if rec.e == 0 else Series.SIGMA1, *rec.params)
        assert rec.dimension == component_dimension(spec)


def test_non_strict_rows_are_exactly_the_admitted_cases():
    rows = {(Series(rec.family.value), *rec.params) for rec in curated_components()
            if not in_strict_range(Series(rec.family.value), *rec.params)}
    assert rows == EXTENDED_SMALL_CASES


def test_typo_suspect_rows():
    flagged = [rec for rec in curated_components() if Flag.TYPO_SUSPECT in rec.flags]
    assert {(rec.e, rec.n) for rec in flagged} == {(0, 18), (-1, 36), (-1, 38)}
    # the n = 36 row is the one whose catalogued dimension disagrees: we emit
    # the closed-form 290, never the printed 281
    row = next(rec for rec in flagged if rec.n == 36)
    assert row.dimension == 290
    assert row.note


def test_component_record_validation():
    with pytest.raises(ValueError):
        ComponentRecord(Family.SIGMA0, 0, 6, (1, 0, 2), dimension=40, expected=45)
    with pytest.raises(ValueError):
        ComponentRecord(Family.INSTANTON, 0, 5, (), dimension=38, expected=37)
    with pytest.raises(ValueError):
        ComponentRecord(Family.HARTSHORNE, -1, 5, (), dimension=35, expected=35)


def test_reference_family_records():
    inst = instanton_record(7)
    assert inst.dimension == 8 * 7 - 3 == inst.expected
    hart = hartshorne_record(24)
    assert hart.dimension == 8 * 24 - 5 == hart.expected


def test_compare_at_146():
    result = compare(0, 146)
    families = {rec["family"]: rec for rec in result["records"]}
    assert families["sigma0"]["dimension"] == 1805
    assert families["instanton"]["dimension"] == 1165
    assert any(s["larger"]["family"] == "sigma0"
               and s["smaller"]["family"] == "instanton"
               for s in result["separations"])
    assert result["name_stubs"] == list(NAME_STUBS)


def test_compare_at_24_odd():
    result = compare(-1, 24)
    dims = sorted(rec["dimension"] for rec in result["records"])
    assert dims == [187, 187]
    assert result["separations"] == []


def test_compare_never_fabricates():
    result = compare(0, 5)
    assert [rec["family"] for rec in result["records"]] == ["instanton"]
    joined = str(result)
    for stub in NAME_STUBS:
        assert f"'{stub}':" not in joined  # stubs carry no numeric payload


def test_tsv_emission_is_stable():
    records = curated_components()
    text = records_to_tsv(records)
    lines = text.splitlines()
    assert lines[0] == "\t".join(TSV_COLUMNS)
    assert len(lines) == len(records) + 1
    assert all(line.count("\t") == len(TSV_COLUMNS) - 1 for line in lines)
