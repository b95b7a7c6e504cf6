"""Geometric oracle: sampled configurations and exact linear algebra.

Specific dimension values asserted here were computed by the oracle itself on
fixed seeds and double-checked against the engine during agreement sweeps; the
rest are structural invariants that hold for every sample.
"""

from dataclasses import replace
from itertools import combinations
from math import comb, prod
from random import Random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import Matrix

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
    quadric_restriction_onto_points_surjective,
    restriction_onto_lines_surjective,
    ruling_part,
    sample_conics,
    sample_modification,
    sample_ruling,
    serre_cohomology,
    structure_cohomology,
)
from p3bundles.oracle import linalg, sheaves
from p3bundles.oracle.configs import (
    lines_disjoint,
    line_inside_quadric,
    quadric_value,
    ruling_line,
)
from p3bundles.oracle.linalg import (
    PRIME,
    bidegree_exponents,
    evaluation_matrix,
    exact_restriction_rows,
    full_row_rank,
    line_restriction_block,
    monomial_exponents,
    nullity_certified,
    rank_exact,
    rank_mod_p,
    to_quadric_basis,
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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_samples_beyond_the_coordinate_pool_are_certified(seed):
    # 20 ruling lines, and 10 conics, need 20 distinct first-ruling coordinates
    ruling = sample_ruling(19, seed)
    assert ruling.components == 20
    assert all(line_inside_quadric(l) for l in ruling.lines)
    assert all(lines_disjoint(a, b) for a, b in combinations(ruling.lines, 2))
    conics = sample_conics(9, seed)
    k = conics.components
    assert k == 10
    components = [(conics.lines[i], conics.lines[k + i]) for i in range(k)]
    assert all(line_inside_quadric(r) and not line_inside_quadric(p)
               and not lines_disjoint(r, p) for r, p in components)
    for ca, cb in combinations(components, 2):
        assert all(lines_disjoint(a, b) for a in ca for b in cb)


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


@given(st.lists(st.integers(min_value=-2, max_value=2), min_size=16, max_size=16))
@settings(max_examples=300, deadline=None)
def test_lines_meet_exactly_where_their_determinant_vanishes(xs):
    first = Line(tuple(xs[0:4]), tuple(xs[4:8]))
    second = Line(tuple(xs[8:12]), tuple(xs[12:16]))
    assert lines_disjoint(first, second) == (Matrix(4, 4, xs).det() != 0)


def test_equal_configurations_compare_and_hash_equal():
    a, b = sample_conics(3, 5), sample_conics(3, 5)
    assert a is not b and a == b and hash(a) == hash(b)
    assert ruling_part(a) == ruling_part(b) and hash(ruling_part(a)) == hash(ruling_part(b))
    rebuilt = GeometryConfig(a.curve, a.components, tuple(list(a.lines)), a.serre_shift,
                             a.marked, a.ruling_count)
    assert rebuilt == a and hash(rebuilt) == hash(a) and len({a, b, rebuilt}) == 1
    assert a != sample_conics(3, 6) and a != replace(a, ruling_count=0)


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


small_points = st.lists(st.tuples(*[st.integers(min_value=-9, max_value=9)] * 4),
                        min_size=0, max_size=12)


@given(small_points, st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=3))
@settings(max_examples=40, deadline=None)
def test_evaluation_residues_are_the_exact_rows_reduced(coords, p, q):
    for exponents in (monomial_exponents(p), bidegree_exponents(p, q)):
        residues, build = evaluation_matrix(coords, exponents)
        exact = build()
        assert exact == [tuple(prod(x ** n for x, n in zip(point, e)) for e in exponents)
                         for point in coords]
        assert all(row.dtype == np.int64 for row in residues)
        assert [row.tolist() for row in residues] == [[x % PRIME for x in row] for row in exact]
        assert full_row_rank(residues, build) == full_row_rank(exact)


def test_marked_point_evaluation():
    cfg = sample_modification(2, 0)
    assert marked_point_evaluation_surjective(cfg, 2)
    assert not marked_point_evaluation_surjective(cfg, 0)


coords = st.integers(min_value=-2 ** 40, max_value=2 ** 40)
points = st.tuples(coords, coords, coords, coords)


def _quadric_basis_values(x, k):
    """The quadric basis of the degree-k forms, as the linalg docstring states
    it, evaluated at x: Q*m for the monomials m of degree k-2 in lex order,
    then the monomials not divisible by x0*x3 by degree in (x1, x3), then in
    (x2, x3)."""
    def value(e):
        return prod(a ** n for a, n in zip(x, e))

    quadric = x[0] * x[3] - x[1] * x[2]
    free = sorted((e for e in monomial_exponents(k) if not (e[0] and e[3])),
                  key=lambda e: (e[1] + e[3], e[2] + e[3]))
    return [quadric * value(e) for e in monomial_exponents(k - 2)] + [value(e) for e in free]


@given(points, points, st.integers(min_value=0, max_value=25))
@example((3, 0, -2, 0), (0, 3, 0, -2), 6)  # a ruling line: (k+1)^2 columns only
@settings(max_examples=30, deadline=None)
def test_restriction_block_mod_p_is_the_exact_block_reduced(p, q, k):
    line = Line(p, q)
    exact = exact_restriction_rows((line,), k)
    block = line_restriction_block(line, k)
    width = (k + 1) ** 2 if line_inside_quadric(line) else comb(k + 3, 3)
    assert block.dtype == np.int64 and block.shape == (k + 1, width)
    assert block.tolist() == [[x % PRIME for x in row] for row in exact]
    # column j holds the coefficients of the j-th basis form restricted to
    # s*p + t*q in the basis s^k, s^(k-1) t, ..., t^k.  A binary form of
    # degree k is fixed by its values at k+1 points (1, t), so comparing
    # those checks every entry; a line on S keeps the columns after the Q*m.
    columns = np.array(exact, dtype=object).T
    for t in range(-(k // 2), k + 1 - k // 2):
        powers = np.array([t ** r for r in range(k + 1)], dtype=object)
        on_line = [a + t * b for a, b in zip(p, q)]
        assert columns.dot(powers).tolist() == _quadric_basis_values(on_line, k)[-width:]


@given(charges, seeds, st.integers(min_value=0, max_value=12))
@settings(max_examples=15, deadline=None)
def test_the_q_columns_vanish_on_ruling_lines(m, seed, k):
    conics = sample_conics(m, seed)
    for lines in (sample_ruling(m, seed).lines, ruling_part(conics).lines):
        assert all(line_inside_quadric(l) for l in lines)
        full = to_quadric_basis(linalg._restriction_block(lines, k, None), k)
        assert not full[:, :comb(k + 1, 3)].any()
        # the cached narrow blocks are the other (k+1)^2 columns
        assert full[:, comb(k + 1, 3):].tolist() == [
            list(row) for line in lines for row in exact_restriction_rows((line,), k)]
    if k >= 2:  # a partner line leaves S, and Q*m does not vanish on it
        for line in partner_part(conics).lines:
            assert to_quadric_basis(linalg._restriction_block((line,), k, None), k)[
                :, :comb(k + 1, 3)].any()


@pytest.mark.parametrize("k", range(6))
def test_the_quadric_basis_is_unimodular(k):
    # the basis forms' monomial coordinates, one column each
    change = to_quadric_basis(np.eye(comb(k + 3, 3), dtype=np.int64).astype(object), k)
    assert change.shape == (comb(k + 3, 3), comb(k + 3, 3))
    assert abs(Matrix(change.tolist()).det()) == 1


small = st.integers(min_value=-3, max_value=3)


@st.composite
def monomial_blocks(draw):
    """A*B with small entries and an inner dimension up to the column count,
    whose columns are the degree-k monomials, k <= 4."""
    k = draw(st.integers(min_value=0, max_value=4))
    n_rows, inner = (draw(st.integers(min_value=0, max_value=9)) for _ in range(2))
    n_cols = comb(k + 3, 3)
    a = draw(st.lists(st.lists(small, min_size=inner, max_size=inner),
                      min_size=n_rows, max_size=n_rows))
    b = draw(st.lists(st.lists(small, min_size=n_cols, max_size=n_cols),
                      min_size=inner, max_size=inner))
    return k, [tuple(sum(x * b[i][j] for i, x in enumerate(row)) for j in range(n_cols))
               for row in a]


@given(monomial_blocks())
@settings(max_examples=80, deadline=None)
def test_the_quadric_basis_keeps_every_rank(case):
    k, rows = case
    moved = [tuple(row) for row in to_quadric_basis(
        np.array(rows, dtype=object).reshape(len(rows), comb(k + 3, 3)), k).tolist()]
    assert rank_exact(moved) == rank_exact(rows)
    assert rank_mod_p(moved) == rank_mod_p(rows)


def _whole_row_reduce(m):
    """Row echelon form mod PRIME by whole-row swaps, scalings and updates."""
    n_rows, n_cols = m.shape
    pivots = []
    for col in range(n_cols):
        row = len(pivots)
        if row >= n_rows:
            break
        nonzero = np.nonzero(m[row:, col])[0]
        if nonzero.size == 0:
            continue
        pivot_row = row + int(nonzero[0])
        if pivot_row != row:
            m[[row, pivot_row]] = m[[pivot_row, row]]
        m[row] = (m[row] * pow(int(m[row, col]), -1, PRIME)) % PRIME
        hit = np.nonzero(m[row + 1:, col])[0] + row + 1
        m[hit] = (m[hit] - m[hit, col][:, None] * m[row]) % PRIME
        pivots.append(col)
    return pivots


residues = st.one_of(st.just(0), st.just(0), st.just(1), st.just(PRIME - 1),
                     st.integers(min_value=0, max_value=PRIME - 1))


@given(st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.lists(st.lists(residues, min_size=n, max_size=n), min_size=1, max_size=12)))
@settings(max_examples=200, deadline=None)
def test_trimmed_elimination_is_the_whole_row_elimination(rows):
    trimmed = np.array(rows, dtype=np.int64)
    whole = trimmed.copy()
    pivots = linalg._row_reduce_mod_p(trimmed)
    assert pivots == _whole_row_reduce(whole)
    assert trimmed.tolist() == whole.tolist()


@pytest.mark.parametrize("k", [2, 3, 5])
@pytest.mark.parametrize("cfg", [
    sample_conics(2, 1), sample_ruling(5, 0),
    join_configs(sample_ruling(3, 0), sample_modification(2, 0, avoid=sample_ruling(3, 0))),
], ids=["conics", "ruling", "join"])
def test_trimmed_elimination_on_restriction_matrices(cfg, k):
    trimmed = np.vstack(sheaves._restriction_rows(cfg, k))
    whole = trimmed.copy()
    pivots = linalg._row_reduce_mod_p(trimmed)
    assert pivots == _whole_row_reduce(whole)
    assert trimmed.tolist() == whole.tolist()


@pytest.mark.parametrize("m, seed", [(16, 0), (17, 1), (25, 2)])
def test_modification_avoids_ruling_lines_past_the_pool(m, seed):
    # 17 or more ruling lines leave at most two pool values for the secant
    ruling = sample_ruling(m, seed)
    cfg = sample_modification(2, seed, avoid=ruling)
    assert not any(line_inside_quadric(l) for l in cfg.lines)
    assert all(lines_disjoint(a, b) for a in cfg.lines for b in ruling.lines)


# the (m, d) of the prop1-modified runs that the sigma0 records with
# 146 <= n <= 1000 plan at seed 0: at seeds 0-4 their m+1 ruling lines leave
# 1 to 6 pool values free, and pool draws alone could run out on them
PAPER_SCALE_MODIFICATIONS = [
    (12, 5), (14, 3), (14, 4), (15, 2), (15, 3), (15, 4), (15, 5), (19, 1), (19, 2), (19, 3),
    (19, 4), (19, 5), (21, 1), (21, 2), (21, 3), (21, 4), (21, 5), (25, 3), (25, 4), (25, 5)]


@pytest.mark.parametrize("m, d", PAPER_SCALE_MODIFICATIONS)
def test_modification_sampling_reaches_the_paper_scale_series(m, d):
    for seed in range(5):
        ruling = sample_ruling(m, seed)
        cfg = sample_modification(d, seed, avoid=ruling)
        assert len(cfg.lines) == d and not any(map(line_inside_quadric, cfg.lines))
        assert all(lines_disjoint(a, b) for i, a in enumerate(cfg.lines)
                   for b in cfg.lines[i + 1:] + ruling.lines)


def test_clear_caches_empties_every_oracle_cache():
    cfg = sample_ruling(2, 0)
    ideal_cohomology(cfg, 3)
    quadric_restriction_onto_points_surjective(sample_modification(1, 0).marked, 1, 1)
    assert h0_ideal.cache_info().currsize and line_restriction_block.cache_info().currsize
    assert quadric_restriction_onto_points_surjective.cache_info().currsize
    assert sheaves._regular_from
    clear_caches()
    assert h0_ideal.cache_info().currsize == 0
    assert line_restriction_block.cache_info().currsize == 0
    assert quadric_restriction_onto_points_surjective.cache_info().currsize == 0
    assert not sheaves._regular_from


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
    monkeypatch.setattr(linalg, "exact_restriction_rows", counting)
    yield calls
    clear_caches()


@pytest.fixture
def fallbacks(monkeypatch):
    """Count the `rank_exact` calls behind the certificates, by row count."""
    calls = []

    def counting(rows, *args):
        calls.append(len(rows))
        return rank_exact(rows, *args)

    monkeypatch.setattr(linalg, "rank_exact", counting)
    return calls


# five disjoint lines with coordinates in {-1, 0, 1}, the second and fourth
# on S: they lie on two independent cubics where the chi bound allows none
MIXED = GeometryConfig("lines", 5, (
    Line((1, 0, -1, 1), (1, 0, 1, -1)), Line((0, 1, 0, 1), (-1, 1, -1, 1)),
    Line((1, 0, 0, 1), (1, 1, 0, 1)), Line((-1, -1, 1, 1), (0, -1, 0, 1)),
    Line((0, -1, -1, -1), (0, 0, 0, -1))))


def test_exact_rows_are_built_only_on_fallback(exact_builds, fallbacks):
    # h^1(I(4)) = 0: the chi bound pinches the modular rank
    assert h0_ideal(MIXED, 4) == 10 and restriction_onto_lines_surjective(MIXED, 4)
    assert fallbacks == [] and exact_builds == []
    # h^0(I(3)) = h^1(I(3)) = 2: the certificate leaves a gap, and Bareiss
    # closes it on the integer rows, built once per fallback
    assert h0_ideal(MIXED, 3) == 2
    assert not restriction_onto_lines_surjective(MIXED, 3)
    assert fallbacks == [20, 20] and exact_builds == [3, 3]


def test_ruling_lines_certify_in_the_free_columns(fallbacks, monkeypatch):
    # five ruling lines at k = 3: h^0 = h^1 = 4, all of it the multiples of Q,
    # which the certificate counts without eliminating their columns
    shapes = []

    def recording(m):
        shapes.append(m.shape)
        return row_reduce(m)

    row_reduce = linalg._row_reduce_mod_p
    monkeypatch.setattr(linalg, "_row_reduce_mod_p", recording)
    clear_caches()
    big = sample_ruling(4, 0)
    assert [h0_ideal(big, k) for k in range(2, 9)] == [1, 4, 10, 26, 49, 80, 120]
    # 20 rows in 16 columns: no elimination needed to refuse surjectivity
    assert not restriction_onto_lines_surjective(big, 3)
    # (k+1)^2 columns at k = 2, 3, 4; the regularity record answers k >= 5
    assert fallbacks == [] and shapes == [(15, 9), (20, 16), (25, 25)]
    clear_caches()


def test_the_regularity_record_stays_keyed_on_the_chi_bound():
    # at k = 2 the 13 lines lie only on Q, so h^0 meets C(k+1, 3), the bound
    # the free columns are certified against, while h^1(I_Y(2)) = 30
    clear_caches()
    cfg = sample_ruling(12, 0)
    assert h0_ideal(cfg, 2) == 1 and ideal_cohomology(cfg, 2).h1 == 30
    assert cfg not in sheaves._regular_from
    clear_caches()


def _full_matrix_nullity(cfg, k):
    """h^0(I_Y(k)) from the whole restriction matrix, certified against the
    chi bound h^1(I_Y(k)) >= 0 as at every twist, with no regularity record.
    When every line lies on S the rows are its (k+1)^2 free columns, which
    have its rank: its Q columns are zero."""
    lower = sheaves.chi_ideal(cfg, k) - structure_cohomology(cfg, k).h1
    return nullity_certified(sheaves._restriction_rows(cfg, k), comb(k + 3, 3), lower,
                             lambda: exact_restriction_rows(cfg.lines, k))


@pytest.mark.parametrize("cfg", [
    sample_ruling(0, 0), sample_ruling(3, 0), sample_ruling(4, 0), sample_ruling(6, 3),
    sample_conics(0, 0), sample_conics(2, 1), sample_conics(4, 0),
    sample_modification(1, 0), sample_modification(3, 2),
    join_configs(sample_ruling(3, 0), sample_modification(2, 0, avoid=sample_ruling(3, 0))),
], ids=lambda cfg: f"{cfg.curve}-{len(cfg.lines)}-{config_hash(cfg)[:6]}")
@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_h0_above_the_regularity_record_is_the_full_nullity(cfg, order):
    twists = list(range(13))
    if order == "descending":
        twists.reverse()
    elif order == "shuffled":
        Random(len(cfg.lines)).shuffle(twists)
    clear_caches()
    got = {k: h0_ideal(cfg, k) for k in twists}
    clear_caches()
    assert got == {k: _full_matrix_nullity(cfg, k) for k in twists}


def test_four_ruling_lines_have_h1_at_twist_two():
    # the agreement sample with h^1(I_Y(k)) > 0 at a k >= 0
    cfg = sample_ruling(3, 0)
    assert ideal_cohomology(cfg, 2).h1 == 3 and ideal_cohomology(cfg, 3).h1 == 0


@pytest.fixture
def row_builds(monkeypatch):
    """Count the restriction matrices `h0_ideal` stacks, from cold caches."""
    calls = []

    def counting(cfg, k):
        calls.append(k)
        return restriction_rows(cfg, k)

    restriction_rows = sheaves._restriction_rows
    clear_caches()
    monkeypatch.setattr(sheaves, "_restriction_rows", counting)
    yield calls
    clear_caches()


def test_no_restriction_rows_above_a_certified_h1_vanishing(row_builds):
    big = sample_ruling(4, 0)
    # h^1(I(4)) = 0, h^1(O_Y(3)) = 0 and h^3(O(2)) = 0: I_Y is 5-regular
    assert ideal_cohomology(big, 4).h1 == 0 and row_builds == [4]
    assert [h0_ideal(big, k) for k in range(5, 13)] == [
        chi_p3_line_bundle(k) - 5 * (k + 1) for k in range(5, 13)]
    assert row_builds == [4]
    # below the record every twist is still computed
    assert ideal_cohomology(big, 3).h1 == 4 and row_builds == [4, 3]


def test_a_nodal_conic_starts_no_record_at_twist_zero(row_builds):
    # h^0(I(0)) meets the chi bound, but h^1(O_Y(-1)) = 1 for a nodal conic
    conic = sample_conics(0, 0)
    assert ideal_cohomology(conic, 0).h1 == 0 and sheaves._regular_from == {}
    assert h0_ideal(conic, 1) == 4 - 3 and row_builds == [0, 1]
    assert sheaves._regular_from == {conic: 1}
    h0_ideal(conic, 7)
    assert row_builds == [0, 1]


def test_each_exact_fallback_eliminates_mod_p_once(exact_builds, fallbacks, monkeypatch):
    passes = []

    def counting(m):
        passes.append(m.shape)
        return row_reduce(m)

    row_reduce = linalg._row_reduce_mod_p
    monkeypatch.setattr(linalg, "_row_reduce_mod_p", counting)
    assert h0_ideal(MIXED, 3) == 2 and fallbacks == [20]
    assert passes == [(20, 20)]
    assert not restriction_onto_lines_surjective(MIXED, 3) and fallbacks == [20, 20]
    assert passes == [(20, 20)] * 2
    # Bareiss reads the integer rows and eliminates nothing mod p
    assert rank_exact(exact_restriction_rows(MIXED.lines, 3)) == 18
    assert passes == [(20, 20)] * 2


def _per_line_rows(lines, k, modulus):
    """The restriction matrix stacked from each line's own block: the lines
    off S first, then the rows of the lines on S by power of t, zero in the
    Q columns when a line leaves S."""
    blocks = [(line_inside_quadric(line), linalg._line_block(line, k, modulus))
              for line in lines]
    off = [row for on, block in blocks if not on for row in block]
    width = comb(k + 3, 3) if off else (k + 1) ** 2
    return off + [np.concatenate([np.zeros(width - (k + 1) ** 2, block.dtype), block[j]])
                  for j in range(k + 1) for on, block in blocks if on]


_RULING = sample_ruling(3, 0)
STACKED = [sample_ruling(4, 0), sample_conics(2, 1), sample_modification(3, 2),
           join_configs(_RULING, sample_modification(2, 0, avoid=_RULING)), MIXED]


@pytest.mark.parametrize("cfg", STACKED,
                         ids=lambda cfg: f"{cfg.curve}-{len(cfg.lines)}-{config_hash(cfg)[:6]}")
def test_stacked_rows_are_the_per_line_blocks(cfg):
    for k in range(12):
        residues, reference = sheaves._restriction_rows(cfg, k), _per_line_rows(cfg.lines, k, PRIME)
        assert len(residues) == len(reference) == len(cfg.lines) * (k + 1)
        assert all(row.dtype == np.int64 and row.tobytes() == ref.tobytes()
                   for row, ref in zip(residues, reference))
        assert exact_restriction_rows(cfg.lines, k) == [
            tuple(row.tolist()) for row in _per_line_rows(cfg.lines, k, None)]


@pytest.mark.parametrize("cfg", [sample_conics(3, 0), sample_modification(3, 0), STACKED[3]],
                         ids=["conics", "modification", "joined"])
def test_only_blocks_of_lines_on_s_are_cached(cfg, monkeypatch):
    asked = set()

    def recording(line, k):
        asked.add((line, k))
        return block(line, k)

    block = sheaves.line_restriction_block
    clear_caches()
    monkeypatch.setattr(sheaves, "line_restriction_block", recording)
    for k in range(8):
        h0_ideal(cfg, k)
    assert all(line_inside_quadric(line) for line, _ in asked)
    assert line_restriction_block.cache_info().currsize == len(asked)
    assert bool(asked) == any(map(line_inside_quadric, cfg.lines))
    clear_caches()


def test_meeting_lines_refuse_surjectivity_without_a_rank(fallbacks, monkeypatch):
    eliminations = []
    monkeypatch.setattr(linalg, "rank_mod_p", lambda rows: eliminations.append(rows))
    for m in range(4):
        for seed in range(2):
            cfg = sample_conics(m, seed)
            assert all(not restriction_onto_lines_surjective(cfg, k) for k in range(1, 8))
    assert fallbacks == [] and eliminations == []
    # the exact rows agree: a nodal conic's two lines never have full row rank
    for m, k in ((0, 1), (0, 3), (1, 2)):
        rows = exact_restriction_rows(sample_conics(m, 0).lines, k)
        assert rank_exact(rows) < len(rows)


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
        assert nullity_certified(rows, n_cols, exact=lambda: tuples) == n_cols - rank_exact(tuples)
        assert full_row_rank(rows, lambda: tuples) == (rank_exact(tuples) == len(tuples))




@st.composite
def integer_matrices(draw):
    """A*B with small entries and inner dimension r, so the rank is at most r
    and columns without a pivot are common; then each row is left alone or
    scaled by +-PRIME (which kills it mod p, so rank_p < rank_Q) or by 2^64
    (past the int64 bound).  Empty and zero-width matrices included."""
    n_rows, n_cols, inner = (draw(st.integers(min_value=0, max_value=7)) for _ in range(3))
    a = draw(st.lists(st.lists(small, min_size=inner, max_size=inner),
                      min_size=n_rows, max_size=n_rows))
    b = draw(st.lists(st.lists(small, min_size=n_cols, max_size=n_cols),
                      min_size=inner, max_size=inner))
    scales = draw(st.lists(st.sampled_from([1, 1, 1, PRIME, -PRIME, 2 ** 64]),
                           min_size=n_rows, max_size=n_rows))
    return [tuple(scale * sum(x * b[i][j] for i, x in enumerate(row)) for j in range(n_cols))
            for row, scale in zip(a, scales)]


@given(integer_matrices())
@settings(max_examples=300, deadline=None)
def test_rank_exact_is_the_rational_rank(rows):
    n_cols = len(rows[0]) if rows else 0
    expected = Matrix(len(rows), n_cols, [x for row in rows for x in row]).rank()
    assert rank_exact(rows) == expected
    assert rank_mod_p(rows) <= expected


@pytest.mark.parametrize("rows, rank", [
    ([(PRIME, 0), (0, 1)], 2),              # rank_p = 1
    ([(PRIME,)], 1),                        # rank_p = 0
    ([(PRIME * 2 ** 40, 0), (0, 1)], 2),    # rank_p = 1 again, past int64
])
def test_an_unlucky_prime_leaves_the_answer_to_bareiss(rows, rank):
    # rank_p < rank_Q, so the certificate cannot close: Bareiss decides on the
    # integer rows, given as the rows or built from the residue rows' callable
    n_cols = len(rows[0])
    residues = [np.array([x % PRIME for x in row], dtype=np.int64) for row in rows]
    assert rank_mod_p(rows) < rank == rank_exact(rows)
    for given_rows, exact in ((rows, None), (residues, lambda: rows)):
        assert nullity_certified(given_rows, n_cols, 0, exact) == n_cols - rank
        assert full_row_rank(given_rows, exact) == (rank == len(rows))


def test_empty_rows_keep_their_answers():
    assert rank_mod_p([]) == 0
    assert rank_exact([]) == rank_exact([(), ()]) == 0
    assert nullity_certified([], 10) == 10
    assert full_row_rank([]) is True
    no_lines = GeometryConfig("lines", 0, ())
    assert h0_ideal(no_lines, 2) == comb(5, 3)
    assert restriction_onto_lines_surjective(no_lines, 2)
