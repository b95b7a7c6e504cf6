"""Geometric oracle: sampled configurations and exact linear algebra.

Specific dimension values asserted here were computed by the oracle itself on
fixed seeds and double-checked against the engine during agreement sweeps; the
rest are structural invariants that hold for every sample.
"""

from math import comb, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p3bundles.oracle import (
    GeometryConfig,
    Line,
    SamplingFailed,
    clear_caches,
    config_hash,
    h0_ideal,
    ideal_cohomology,
    join_configs,
    marked_point_evaluation_surjective,
    partner_part,
    restriction_onto_lines_surjective,
    ruling_part,
    sample_conics,
    sample_modification,
    sample_ruling,
    serre_cohomology,
    structure_cohomology,
)
from p3bundles.oracle import sheaves
from p3bundles.oracle.configs import (
    lines_disjoint,
    line_inside_quadric,
    quadric_value,
)
from p3bundles.oracle.linalg import (
    PRIME,
    exact_restriction_rows,
    full_row_rank,
    line_restriction_block,
    monomial_exponents,
    nullity_certified,
    rank_exact,
    rank_mod_p,
)
from p3bundles.tables import chi_p3_line_bundle

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)
charges = st.integers(min_value=1, max_value=4)


@given(charges, seeds)
@settings(max_examples=25)
def test_ruling_samples_are_disjoint_ruling_lines(m, seed):
    cfg = sample_ruling(m, seed)
    assert cfg.curve == "lines" and cfg.components == m + 1
    assert all(line_inside_quadric(l) for l in cfg.lines)
    for i, la in enumerate(cfg.lines):
        for lb in cfg.lines[i + 1:]:
            assert lines_disjoint(la, lb)


@given(charges, seeds)
@settings(max_examples=10)
def test_conic_samples_split_into_ruling_and_partner(m, seed):
    cfg = sample_conics(m, seed)
    assert cfg.curve == "conics" and cfg.components == m + 1
    ruling = ruling_part(cfg)
    partner = partner_part(cfg)
    assert ruling.components == partner.components == m + 1
    assert all(line_inside_quadric(l) for l in ruling.lines)
    # marked points sit on the quadric, one on each partner line
    assert len(cfg.marked) == m + 1
    assert all(quadric_value(mp.point) == 0 for mp in cfg.marked)


@given(st.integers(min_value=1, max_value=5), seeds)
@settings(max_examples=10)
def test_modification_lines_are_secant(d, seed):
    cfg = sample_modification(d, seed)
    assert cfg.components == d and len(cfg.marked) == 2 * d
    assert not any(line_inside_quadric(l) for l in cfg.lines)
    assert all(quadric_value(mp.point) == 0 for mp in cfg.marked)
    # second-ruling coordinates pairwise distinct, so evaluations decouple
    vs = [mp.v for mp in cfg.marked]
    assert len(set(vs)) == len(vs)


def test_sampling_is_seed_deterministic():
    a = sample_ruling(3, 17)
    b = sample_ruling(3, 17)
    c = sample_ruling(3, 18)
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)


def test_join_rejects_meeting_lines():
    cfg = sample_ruling(2, 0)
    with pytest.raises(SamplingFailed):
        join_configs(cfg, cfg)


@given(charges, seeds, st.integers(min_value=-3, max_value=8))
@settings(max_examples=20, deadline=None)
def test_ideal_chi_identity(m, seed, k):
    cfg = sample_ruling(m, seed)
    vec = ideal_cohomology(cfg, k)
    assert vec.chi() == chi_p3_line_bundle(k) - structure_cohomology(cfg, k).chi()
    assert vec.h0 == h0_ideal(cfg, k)
    assert min(vec.as_tuple()) >= 0


@given(charges, seeds)
@settings(max_examples=20, deadline=None)
def test_h0_ideal_monotone_in_degree(m, seed):
    cfg = sample_ruling(m, seed)
    values = [h0_ideal(cfg, k) for k in range(0, 7)]
    assert all(b >= a for a, b in zip(values, values[1:]))


@given(charges, seeds)
@settings(max_examples=15, deadline=None)
def test_restriction_surjectivity_matches_h1(m, seed):
    cfg = sample_ruling(m, seed)
    for k in range(0, 5):
        assert restriction_onto_lines_surjective(cfg, k) == (ideal_cohomology(cfg, k).h1 == 0)


def test_forms_through_ruling_lines():
    # two skew lines: no plane contains both, quadrics through them are a P^3
    cfg = sample_ruling(1, 0)
    assert h0_ideal(cfg, 1) == 0
    assert h0_ideal(cfg, 2) == 4
    assert ideal_cohomology(cfg, 0).h1 == 1
    # five ruling lines: only the quadric in degree 2, only its multiples in
    # degree 3, and the four missed cubic conditions reappear as h^1
    big = sample_ruling(4, 0)
    assert h0_ideal(big, 2) == 1
    assert h0_ideal(big, 3) == 4
    assert ideal_cohomology(big, 3).h1 == 4


@given(charges, seeds, st.integers(min_value=-6, max_value=6))
@settings(max_examples=20, deadline=None)
def test_extension_bundle_serre_duality(m, seed, l):
    """h^i(E(l)) = h^{3-i}(E(-l-4-c1)) for the rank-2 extension bundle."""
    cfg = sample_ruling(m, seed)
    c1 = 0
    lhs = serre_cohomology(cfg, l)
    rhs = serre_cohomology(cfg, -l - 4 - c1)
    assert lhs.as_tuple() == tuple(reversed(rhs.as_tuple()))


@given(charges, seeds, st.integers(min_value=-6, max_value=6))
@settings(max_examples=12, deadline=None)
def test_conic_bundle_serre_duality(m, seed, l):
    cfg = sample_conics(m, seed)
    c1 = -1
    lhs = serre_cohomology(cfg, l)
    rhs = serre_cohomology(cfg, -l - 4 - c1)
    assert lhs.as_tuple() == tuple(reversed(rhs.as_tuple()))


@given(charges, seeds)
@settings(max_examples=15, deadline=None)
def test_charge_reads_off_at_twist_minus_one(m, seed):
    # h^1(E(-1)) counts the spectrum entries at 0; for these samples that is m
    cfg = sample_ruling(m, seed)
    assert serre_cohomology(cfg, -1).as_tuple() == (0, m, 0, 0)


def test_marked_point_evaluation():
    cfg = sample_modification(2, 0)
    assert marked_point_evaluation_surjective(cfg, 2)
    assert not marked_point_evaluation_surjective(cfg, 0)


coords = st.integers(min_value=-2 ** 40, max_value=2 ** 40)
points = st.tuples(coords, coords, coords, coords)


@given(points, points, st.integers(min_value=0, max_value=25))
@settings(max_examples=30, deadline=None)
def test_restriction_block_mod_p_is_the_exact_block_reduced(p, q, k):
    line = Line(p, q)
    exact = exact_restriction_rows((line,), k)
    block = line_restriction_block(line, k)
    assert block.dtype == np.int64 and block.shape == (k + 1, comb(k + 3, 3))
    assert block.tolist() == [[x % PRIME for x in row] for row in exact]
    # column j holds the coefficients of x^e restricted to s*p + t*q in the
    # basis s^k, s^(k-1) t, ..., t^k.  A binary form of degree k is fixed by
    # its values at k+1 points (1, t), so comparing those checks every entry.
    columns = np.array(exact, dtype=object).T
    for t in range(-(k // 2), k + 1 - k // 2):
        powers = np.array([t ** r for r in range(k + 1)], dtype=object)
        on_line = [a + t * b for a, b in zip(p, q)]
        assert columns.dot(powers).tolist() == [
            prod(x ** n for x, n in zip(on_line, e)) for e in monomial_exponents(k)]


def test_clear_caches_empties_every_oracle_cache():
    cfg = sample_ruling(2, 0)
    ideal_cohomology(cfg, 3)
    assert h0_ideal.cache_info().currsize and line_restriction_block.cache_info().currsize
    clear_caches()
    assert h0_ideal.cache_info().currsize == 0
    assert line_restriction_block.cache_info().currsize == 0


def test_block_cache_has_a_fixed_bound():
    # one conic-sweep repetition asks for at most 1,689 distinct (line, k)
    assert line_restriction_block.cache_info().maxsize == 4096


@pytest.fixture
def exact_builds(monkeypatch):
    """Count the calls of `exact_restriction_rows`, from cold caches."""
    calls = []

    def counting(lines, k):
        calls.append(k)
        return exact_restriction_rows(lines, k)

    clear_caches()
    monkeypatch.setattr(sheaves, "exact_restriction_rows", counting)
    yield calls
    clear_caches()


def test_exact_rows_are_built_only_on_fallback(exact_builds):
    big = sample_ruling(4, 0)
    # h^1(I(4)) = 0: the chi bound pinches the modular rank
    assert h0_ideal(big, 4) == 10 and restriction_onto_lines_surjective(big, 4)
    assert exact_builds == []
    # h^0(I(3)) = h^1(I(3)) = 4: the certificate leaves a gap, so one exact build
    assert h0_ideal(big, 3) == 4
    assert exact_builds == [3]
    assert not restriction_onto_lines_surjective(big, 3)
    assert exact_builds == [3, 3]


huge = st.one_of(st.integers(min_value=-50, max_value=50),
                 st.integers(min_value=2 ** 63, max_value=2 ** 70),
                 st.integers(min_value=-2 ** 70, max_value=-2 ** 63),
                 st.sampled_from([PRIME, -PRIME, 2 * PRIME + 1]))


@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(st.lists(huge, min_size=n, max_size=n), min_size=1, max_size=6)))
@settings(max_examples=60, deadline=None)
def test_rank_mod_p_takes_int_tuples_and_int64_rows_alike(matrix):
    tuples = [tuple(row) for row in matrix]
    residues = [np.array([x % PRIME for x in row], dtype=np.int64) for row in matrix]
    assert rank_mod_p(tuples) == rank_mod_p(residues) <= rank_exact(tuples)
    n_cols = len(tuples[0])
    for rows in (tuples, residues):
        assert nullity_certified(rows, n_cols, exact_rows=lambda: tuples) \
            == n_cols - rank_exact(tuples)
        assert full_row_rank(rows, lambda: tuples) == (rank_exact(tuples) == len(tuples))


def test_empty_rows_keep_their_answers():
    assert rank_mod_p([]) == 0
    assert nullity_certified([], 10) == 10
    assert full_row_rank([]) is True
    no_lines = GeometryConfig("lines", 0, ())
    assert h0_ideal(no_lines, 2) == comb(5, 3)
    assert restriction_onto_lines_surjective(no_lines, 2)
