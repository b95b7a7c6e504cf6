"""Monad families: parameter validation, profiles, spectra, dimensions."""

from dataclasses import fields

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from p3bundles import clear_caches, monad
from p3bundles.atlas import enumerate_series
from p3bundles.monad import (
    EXTENDED_SMALL_CASES,
    InconsistentProfile,
    InvalidSpec,
    MonadSpec,
    Regime,
    Series,
    Unpinned,
    cohomology_chern,
    component_dimension,
    expected_dimension,
    format_spectrum,
    h1_profile,
    identity_report,
    in_strict_range,
    middle_term_checks,
    recover_spectrum,
    spectrum,
    spectrum_h1,
    summand_character,
)
from p3bundles.oracle import SamplingFailed, linalg, sheaves
from p3bundles.tables import CohomologyVector


# -- parameter validation ----------------------------------------------------

@pytest.mark.parametrize("series,m,eps,a", [
    (Series.SIGMA0, 0, 0, 5),
    (Series.SIGMA0, 1, 2, 5),
    (Series.SIGMA0, 2, 0, 5),     # m + eps > a - 4, not curated
    (Series.SIGMA0, 1, 0, 3),
    (Series.SIGMA1, 1, 0, 3),     # below 2(m+eps)+3 and not curated
    (Series.SIGMA1, 5, 1, 7),
])
def test_invalid_parameters_rejected(series, m, eps, a):
    with pytest.raises(InvalidSpec):
        MonadSpec.create(series, m, eps, a)


def test_spec_takes_exactly_its_parameters():
    assert [f.name for f in fields(MonadSpec)] == ["series", "m", "eps", "a"]
    assert MonadSpec.create(Series("sigma0"), 1, 0, 5) == MonadSpec(Series.SIGMA0, 1, 0, 5)
    with pytest.raises(InvalidSpec, match=r"\(m,eps,a\)=\(2,0,5\) is not a curated "
                       "extended-regime case"):
        MonadSpec(Series.SIGMA0, 2, 0, 5)


def test_regime_inference():
    assert MonadSpec.create(Series.SIGMA0, 1, 0, 5).regime is Regime.STRICT
    assert MonadSpec.create(Series.SIGMA0, 1, 0, 2).regime is Regime.EXTENDED
    assert MonadSpec.create(Series.SIGMA1, 1, 0, 5).regime is Regime.STRICT
    assert MonadSpec.create(Series.SIGMA1, 1, 0, 4).regime is Regime.EXTENDED


def test_strict_range_branches():
    # window branch: 5 <= a <= 12 with m + eps <= a - 4
    assert in_strict_range(Series.SIGMA0, 1, 0, 5)
    assert not in_strict_range(Series.SIGMA0, 2, 0, 5)
    # tail branch: a >= 12 allows loads up to a + 1
    assert in_strict_range(Series.SIGMA0, 13, 0, 12)
    assert not in_strict_range(Series.SIGMA0, 14, 0, 12)
    assert in_strict_range(Series.SIGMA1, 1, 0, 5)
    assert not in_strict_range(Series.SIGMA1, 1, 0, 4)


def test_curated_cases_all_construct():
    for series, m, eps, a in EXTENDED_SMALL_CASES:
        spec = MonadSpec.create(series, m, eps, a)
        assert spec.regime in (Regime.STRICT, Regime.EXTENDED)


# -- characters and dimensions -------------------------------------------------

def test_cohomology_sheaf_classes():
    even = MonadSpec.create(Series.SIGMA0, 2, 0, 6)
    assert cohomology_chern(even).chern_classes() == (0, 2 * 2 + 0 + 36, 0)
    odd = MonadSpec.create(Series.SIGMA1, 1, 0, 5)
    assert cohomology_chern(odd).chern_classes() == (-1, 4 + 0 + 30, 0)


def test_charge_and_parity():
    spec = MonadSpec.create(Series.SIGMA1, 1, 1, 5)
    assert spec.n == 36 and spec.e == -1
    assert spec.summand_params == (1, 2)
    assert spec.outer_twists == (-6, 5)


@st.composite
def strict_specs(draw):
    series = draw(st.sampled_from(Series))
    a = draw(st.integers(min_value=5, max_value=40))
    m = draw(st.integers(min_value=1, max_value=a + 1))
    eps = draw(st.integers(min_value=0, max_value=1))
    assume(in_strict_range(series, m, eps, a))
    return MonadSpec.create(series, m, eps, a)


@given(strict_specs(), st.lists(st.integers(min_value=0, max_value=8),
                                min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_series_constants_match_the_per_series_formulas(spec, upper):
    m, eps, a = spec.m, spec.eps, spec.a
    if spec.series is Series.SIGMA0:
        e, n, left = 0, 2 * m + eps + a * a, -a
        classes = [(0, mi, 0) for mi in (m, m + eps)]
        entries = upper + [-k for k in upper if k > 0]
        mirror = [-k for k in entries]
    else:
        e, n, left = -1, 2 * (2 * m + eps) + a * (a + 1), -a - 1
        classes = [(-1, 2 * mi, 0) for mi in (m, m + eps)]
        entries = upper + [-1 - k for k in upper]
        mirror = [-1 - k for k in entries]
    assert (spec.e, spec.n, spec.outer_twists) == (e, n, (left, a))
    assert [summand_character(spec.series, mi).chern_classes()
            for mi in spec.summand_params] == classes
    assert cohomology_chern(spec).chern_classes() == (e, n, 0)
    depth = max(upper) + 3
    profile = {-s: spectrum_h1(entries, -s) for s in range(1, depth + 1)}
    recovered = recover_spectrum(profile, spec.e, len(entries))
    assert recovered == tuple(sorted(entries)) == tuple(sorted(mirror))


@pytest.mark.parametrize("row,dim", [
    ((1, 0, 2), 45), ((1, 1, 2), 53), ((2, 0, 2), 61), ((2, 1, 2), 69),
    ((3, 0, 2), 77), ((3, 1, 2), 85), ((4, 0, 2), 93), ((1, 0, 4), 141),
])
def test_dimension_table_even(row, dim):
    spec = MonadSpec.create(Series.SIGMA0, *row)
    assert component_dimension(spec) == dim


@pytest.mark.parametrize("row,dim", [
    ((1, 0, 4), 187), ((1, 0, 5), 281), ((1, 1, 5), 290), ((2, 0, 5), 299),
])
def test_dimension_table_odd(row, dim):
    spec = MonadSpec.create(Series.SIGMA1, *row)
    assert component_dimension(spec) == dim


def test_expected_dimension():
    assert expected_dimension(0, 6) == 45
    assert expected_dimension(-1, 24) == 187


def test_odd_series_excess_factors():
    """dim - expected = (2a-3)((a-1)(a-2)/3 - load) for the c1 = -1 series."""
    for m, eps, a in ((1, 0, 5), (1, 1, 5), (2, 0, 5), (1, 0, 7), (2, 1, 9)):
        spec = MonadSpec.create(Series.SIGMA1, m, eps, a)
        excess = component_dimension(spec) - expected_dimension(spec.e, spec.n)
        assert excess == (2 * a - 3) * ((a - 1) * (a - 2) // 3 - spec.load) \
            or (a - 1) * (a - 2) % 3 != 0


# -- h1 profiles and spectra ---------------------------------------------------

def test_profile_pins_negative_twists():
    spec = MonadSpec.create(Series.SIGMA0, 1, 0, 2)
    profile = h1_profile(spec, -5, -1)
    assert profile == {-5: 0, -4: 0, -3: 0, -2: 1, -1: 6}


def test_profile_pinned_at_zero_but_not_beyond():
    # stability still pins twist 0 (no sections to evaluate); twist 1 is open
    spec = MonadSpec.create(Series.SIGMA0, 1, 0, 2)
    assert h1_profile(spec, 0, 0) == {0: 10}
    with pytest.raises(Unpinned) as exc_info:
        h1_profile(spec, -1, 1)
    assert exc_info.value.twist == 1


def test_the_profile_memo_answers_another_seed_with_copies():
    spec = MonadSpec.create(Series.SIGMA0, 1, 0, 5)
    clear_caches()
    first = monad.h1_intervals(spec, -8, -1)
    first[-2].lo = 0  # the caller's copy
    second = monad.h1_intervals(spec, -8, -1, seed=1)
    assert monad._pinned_h1.cache_info().hits == 1
    assert second[-2].pinned and second[-2].value == 20


def test_the_profile_memo_misses_on_other_summand_vectors(monkeypatch):
    spec = MonadSpec.create(Series.SIGMA0, 1, 0, 5)
    clear_caches()
    assert h1_profile(spec, -8, -1)[-2] == 20
    serre = monad.serre_cohomology

    def doctored(cfg, t):
        v = serre(cfg, t)
        # h1 and h2 up by one keep chi; the bundle's h1 moves with them
        return CohomologyVector(v.h0, v.h1 + 1, v.h2 + 1, v.h3) if t == -2 else v

    monkeypatch.setattr(monad, "serre_cohomology", doctored)
    misses = monad._pinned_h1.cache_info().misses
    assert h1_profile(spec, -8, -1)[-2] == 22
    assert monad._pinned_h1.cache_info().misses == misses + 1


def test_spectrum_small_even_case():
    spec = MonadSpec.create(Series.SIGMA0, 1, 0, 2)
    entries = spectrum(spec)
    assert entries == (-1, 0, 0, 0, 0, 1)
    assert format_spectrum(entries) == "(-1,0^4,1)"


def test_spectrum_odd_case():
    spec = MonadSpec.create(Series.SIGMA1, 1, 0, 4)
    entries = spectrum(spec)
    assert len(entries) == 24
    assert format_spectrum(entries) == "(-4,-3^2,-2^3,-1^6,0^6,1^3,2^2,3)"


@pytest.mark.parametrize("series,row", [
    (Series.SIGMA0, (2, 1, 2)),
    (Series.SIGMA0, (1, 0, 4)),
    (Series.SIGMA1, (1, 0, 5)),
])
def test_spectrum_symmetry_and_regeneration(series, row):
    spec = MonadSpec.create(series, *row)
    entries = spectrum(spec, seed=11)
    mirrored = tuple(sorted(-k if spec.e == 0 else -1 - k for k in entries))
    assert mirrored == entries
    profile = h1_profile(spec, -(spec.a + 3), -1, seed=11)
    for l, value in profile.items():
        assert spectrum_h1(entries, l) == value


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=8, deadline=None)
def test_spectrum_is_seed_independent(seed):
    spec = MonadSpec.create(Series.SIGMA0, 1, 1, 2)
    assert spectrum(spec, seed=seed) == (-1, 0, 0, 0, 0, 0, 1)


# -- spectrum recovery corner cases --------------------------------------------

def test_a_profile_builds_no_twist_above_a_regularity_record(monkeypatch):
    builds = []

    def counting(lines, k, lower):
        builds.append((lines, k))
        return count(lines, k, lower)

    count = sheaves._count
    clear_caches()
    monkeypatch.setattr(sheaves, "_count", counting)
    spec = MonadSpec.create(Series.SIGMA0, 2, 1, 9)
    monad.h1_intervals(spec, -spec.a - 3, -1)
    records = {cfg.lines: k for cfg, k in sheaves._regular_from.items()}
    clear_caches()
    # the Serre half asks the ideal twists -2..a lowest first, so the record
    # answers every twist above it
    assert len(records) == 2 and {lines for lines, _ in builds} == set(records)
    assert [(lines, k) for lines, k in builds if k > records[lines]] == []


@pytest.fixture
def exact_ranks(monkeypatch):
    """Count the `rank_exact` calls, from cold caches."""
    calls = []

    def counting(rows):
        calls.append(len(rows))
        return rank_exact(rows)

    rank_exact = linalg.rank_exact
    clear_caches()
    monkeypatch.setattr(linalg, "rank_exact", counting)
    yield calls
    clear_caches()


@pytest.mark.parametrize("m, eps, a, n", [(19, 0, 24, 614), (25, 1, 25, 676)])
def test_a_ruling_spectrum_at_paper_scale_needs_no_exact_rank(exact_ranks, m, eps, a, n):
    # every summand curve is ruling lines on S, so each certificate closes
    # in the (k+1)^2 quadric columns of piece B
    entries = spectrum(MonadSpec.create(Series.SIGMA0, m, eps, a))
    assert len(entries) == n and entries == tuple(sorted(-k for k in entries))
    assert exact_ranks == []


def test_the_sigma0_series_replays_from_n_146(exact_ranks):
    records = [r for r in enumerate_series(Series.SIGMA0, 170) if r.n >= 146]
    assert len(records) == 25
    for record in records:
        spec = MonadSpec.create(Series.SIGMA0, *record.params)
        assert middle_term_checks(spec)["established"], record.params
        entries = spectrum(spec)
        assert len(entries) == record.n and entries == tuple(sorted(-k for k in entries))
    assert exact_ranks == []


def test_a_sigma1_spectrum_with_eleven_conics_splits_along_the_quadric(monkeypatch):
    # the first record whose summands need 11 and 12 conics: every exact
    # rank left is piece B of the residual split, in (k+1)^2 columns
    shapes = []

    def recording(rows):
        shapes.append((len(rows), len(rows[0])))
        return rank_exact(rows)

    rank_exact = linalg.rank_exact
    clear_caches()
    monkeypatch.setattr(linalg, "rank_exact", recording)
    entries = spectrum(MonadSpec.create(Series.SIGMA1, 10, 1, 25))
    clear_caches()
    assert len(entries) == 692 and entries == tuple(sorted(-1 - k for k in entries))
    assert shapes == [(143, 12 ** 2), (168, 13 ** 2)]


def test_recovery_checks_the_profile_from_the_entry_counts(monkeypatch):
    # the check costs O(distinct entries) per twist, not one sum over all n
    entries = [0] * 4000 + [1] * 300 + [-1] * 300 + [2, -2]
    profile = {-s: spectrum_h1(entries, -s) for s in range(1, 6)}
    monkeypatch.setattr(monad, "spectrum_h1", None)
    assert recover_spectrum(profile, 0, len(entries)) == tuple(sorted(entries))


def test_recovery_rejects_gaps():
    with pytest.raises(InconsistentProfile):
        recover_spectrum({-1: 4, -3: 0, -4: 0}, 0, 4)


def test_recovery_rejects_unstabilized_windows():
    with pytest.raises(InconsistentProfile):
        recover_spectrum({-1: 6, -2: 1}, 0, 6)


def test_recovery_rejects_increasing_tails():
    with pytest.raises(InconsistentProfile):
        recover_spectrum({-1: 1, -2: 2, -3: 0, -4: 0}, 0, 1)


def test_recovery_rejects_wrong_length():
    profile = {-1: 6, -2: 1, -3: 0, -4: 0, -5: 0}
    assert len(recover_spectrum(profile, 0, 6)) == 6
    with pytest.raises(InconsistentProfile):
        recover_spectrum(profile, 0, 7)


def test_recovery_needs_legal_parity():
    with pytest.raises(ValueError):
        recover_spectrum({-1: 1, -2: 0, -3: 0}, 1, 1)


# -- two-route identities -------------------------------------------------------

def test_identity_report_examples():
    rows = {r["quantity"]: r for r in identity_report(Series.SIGMA0, 1, 0, 5)}
    assert rows["h0(bbE(a))"]["closed_form"] == 210
    assert rows["h1(E1*E2)"]["closed_form"] == 4
    assert rows["h1(S2 bbE)"]["closed_form"] == 14
    assert rows["h1(End bbE)"]["closed_form"] == 18
    assert all(r["equal"] for r in rows.values())

    rows = {r["quantity"]: r for r in identity_report(Series.SIGMA1, 1, 0, 5)}
    assert rows["h0(bbE(a+1))"]["closed_form"] == 250
    assert rows["h1(E1(1)*E2)"]["closed_form"] == 10
    assert rows["h1(S2 bbE(1))"]["closed_form"] == 32
    assert rows["h1(End bbE)"]["closed_form"] == 42
    assert all(r["equal"] for r in rows.values())


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=1),
       st.integers(min_value=5, max_value=15))
@settings(max_examples=30)
def test_identity_routes_always_agree(m, eps, a):
    for series in (Series.SIGMA0, Series.SIGMA1):
        assert all(r["equal"] for r in identity_report(series, m, eps, a))


# -- middle-term report ----------------------------------------------------------

def test_middle_term_checks_strict_case():
    spec = MonadSpec.create(Series.SIGMA0, 1, 0, 5)
    out = middle_term_checks(spec)
    assert out["established"]
    assert out["readings"]["as_printed"] == out["readings"]["without_h1_clause"]
    assert out["readings"]["h1_clause_value"] == 0
    assert all(ev["status"] == "entailed" for ev in out["engine_evidence"])


def test_middle_term_checks_failing_extended_case():
    """(3,1,2) is catalogued, but its witnesses fail the high-twist vanishing;
    the report must say so rather than smooth it over."""
    spec = MonadSpec.create(Series.SIGMA0, 3, 1, 2)
    out = middle_term_checks(spec)
    assert not out["established"]
    failed = [c for c in out["conditions"] if not c["established_on_instance"]]
    assert failed


def test_middle_term_checks_odd_series():
    spec = MonadSpec.create(Series.SIGMA1, 1, 0, 5)
    out = middle_term_checks(spec)
    assert out["established"]
    assert out["readings"] is None
    assert [ev["script"] for ev in out["engine_evidence"]] == ["prop2"]


def test_middle_term_checks_records_a_failed_evidence_run(monkeypatch):
    def run_script(script, params, seed):
        raise SamplingFailed("ruling configuration")

    monkeypatch.setattr(monad, "run_script", run_script)
    out = middle_term_checks(MonadSpec.create(Series.SIGMA0, 1, 0, 5))
    assert [ev["status"] for ev in out["engine_evidence"]] == ["failed"]
    assert out["engine_evidence"][0]["error"] == "SamplingFailed: ruling configuration"
    assert not out["established"]


@pytest.mark.xfail(strict=True, reason=(
    "sample_conics can return a configuration that is not of maximal rank; "
    "the generic transfer of ROADMAP item 5 needs a general sample"))
def test_a_sampled_conic_summand_has_maximal_rank():
    """sigma1 (4,0,11) at seed 937564958: the first summand is 5 conics with
    h^0(I_Y(5)) = 2 and h^1(I_Y(5)) = 1, where seed 700908090 gives 1 and 0.
    Making the sampler general flips this test."""
    spec = MonadSpec.create(Series.SIGMA1, 4, 0, 11)
    general = monad._summand_configs(spec, 700908090)[0]
    assert sheaves.ideal_cohomology(general, 5).as_tuple() == (1, 0, 0, 0)
    cfg = monad._summand_configs(spec, 937564958)[0]
    assert sheaves.ideal_cohomology(cfg, 5).h1 == 0
