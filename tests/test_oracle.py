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
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy import Matrix

from p3bundles.monad import InvalidSpec
from p3bundles.oracle import (
    ConfigurationError,
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
    point_on_line,
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
    quadric_exponents,
    rank_exact,
    rank_mod_p,
    restriction_matrix,
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


@given(st.lists(st.integers(min_value=-2, max_value=2), min_size=12, max_size=12))
@settings(max_examples=300, deadline=None)
def test_a_point_lies_on_a_line_exactly_where_the_three_rows_are_dependent(xs):
    line, x = Line(tuple(xs[0:4]), tuple(xs[4:8])), tuple(xs[8:12])
    assume(Matrix(2, 4, xs[:8]).rank() == 2)
    assert point_on_line(x, line) == (Matrix(3, 4, xs).rank() == 2)
    assert point_on_line(line.p, line) and point_on_line(line.q, line)


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
    ruling = sample_ruling(m, seed)
    for cfg in (ruling, sample_modification(m, seed),
                join_configs(ruling, sample_modification(m, seed, avoid=ruling))):
        for k in range(-3, 9):
            onto = restriction_onto_lines_surjective(cfg, k)
            assert onto == (ideal_cohomology(cfg, k).h1 == 0)
            # below twist 0 the target is 0; above, the whole matrix decides
            assert onto == (k < 0 or full_row_rank(*restriction_matrix(cfg.lines, k)))


def test_restriction_onto_lines_at_a_negative_twist_is_surjective():
    # the target (+) H^0(O_line(k)) is 0 for k < 0, whatever the lines
    for cfg in (sample_ruling(2, 0), sample_conics(1, 0), sample_modification(2, 0)):
        assert all(restriction_onto_lines_surjective(cfg, k) for k in range(-4, 0))
        assert ideal_cohomology(cfg, -1).as_tuple()[:2] == (0, 0)


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
        assert full_row_rank(residues, build) == (rank_exact(exact) == len(exact))


def test_marked_point_evaluation():
    cfg = sample_modification(2, 0)
    assert marked_point_evaluation_surjective(cfg, 2)
    assert not marked_point_evaluation_surjective(cfg, 0)


coords = st.integers(min_value=-2 ** 40, max_value=2 ** 40)
points = st.tuples(coords, coords, coords, coords)


def _assert_columns_restrict(exact, p, q, k, exponents):
    """Column j of ``exact`` holds the coefficients of the j-th monomial of
    ``exponents`` restricted to s*p + t*q in the basis s^k, s^(k-1) t, ...,
    t^k.  A binary form of degree k is fixed by its values at k+1 points
    (1, t), so comparing those checks every entry."""
    columns = np.array(exact, dtype=object).reshape(k + 1, len(exponents)).T
    for t in range(-(k // 2), k + 1 - k // 2):
        powers = np.array([t ** r for r in range(k + 1)], dtype=object)
        on_line = [a + t * b for a, b in zip(p, q)]
        assert columns.dot(powers).tolist() == [
            prod(a ** n for a, n in zip(on_line, e)) for e in exponents]


@given(points, points, st.integers(min_value=0, max_value=25))
@example((3, 0, -2, 0), (0, 3, 0, -2), 6)  # a ruling line: (k+1)^2 columns too
@settings(max_examples=30, deadline=None)
def test_restriction_block_mod_p_is_the_exact_block_reduced(p, q, k):
    line = Line(p, q)
    exact = exact_restriction_rows((line,), k)
    residues, build = restriction_matrix((line,), k)
    assert all(row.dtype == np.int64 for row in residues) and build() == exact
    assert [row.tolist() for row in residues] == [[x % PRIME for x in row] for row in exact]
    _assert_columns_restrict(exact, p, q, k, monomial_exponents(k))
    if line_inside_quadric(line):  # the cached block keeps the quadric columns
        exact = exact_restriction_rows((line,), k, True)
        block = line_restriction_block(line, k)
        assert block.dtype == np.int64 and block.shape == (k + 1, (k + 1) ** 2)
        assert block.tolist() == [[x % PRIME for x in row] for row in exact]
        _assert_columns_restrict(exact, p, q, k, quadric_exponents(k))


@pytest.mark.parametrize("k", range(8))
def test_the_quadric_columns_are_the_monomials_off_x0_x3(k):
    # by degree in (x1, x3), then in (x2, x3): one monomial per pair of degrees
    exponents = quadric_exponents(k)
    assert all(sum(e) == k and not (e[0] and e[3]) for e in exponents)
    assert [(e[1] + e[3], e[2] + e[3]) for e in exponents] == [
        (a, b) for a in range(k + 1) for b in range(k + 1)]


def _quadric_multiples(k):
    """Per monomial m of degree k-2, lex order: the positions of x0*x3*m and
    x1*x2*m among the degree-k monomials, so Q*m is the first minus the
    second."""
    index = {e: i for i, e in enumerate(monomial_exponents(k))}
    return ([index[(a + 1, b, c, d + 1)] for a, b, c, d in monomial_exponents(k - 2)],
            [index[(a, b + 1, c + 1, d)] for a, b, c, d in monomial_exponents(k - 2)],
            [index[e] for e in quadric_exponents(k)])


@pytest.mark.parametrize("k", range(6))
def test_the_quadric_basis_is_unimodular(k):
    # the multiples Q*m and the quadric columns, in monomial coordinates, one
    # column each, span the degree-k forms over Z: so the quadric columns
    # restrict to a basis of H^0(O_S(k)), the columns of piece B
    plus, minus, free = _quadric_multiples(k)
    change = np.zeros((comb(k + 3, 3), comb(k + 3, 3)), dtype=np.int64)
    for j, (a, b) in enumerate(zip(plus, minus)):
        change[a, j], change[b, j] = 1, -1
    for j, row in enumerate(free, start=len(plus)):
        change[row, j] = 1
    assert abs(Matrix(change.tolist()).det()) == 1


@given(charges, seeds, st.integers(min_value=0, max_value=12))
@settings(max_examples=15, deadline=None)
def test_the_q_columns_vanish_on_ruling_lines(m, seed, k):
    # Q*m vanishes on a line of S, so with every line on S the whole matrix
    # has the rank of the cached blocks, and h^0 is C(k+1, 3) plus B's nullity
    plus, minus, free = _quadric_multiples(k)
    conics = sample_conics(m, seed)
    for lines in (sample_ruling(m, seed).lines, ruling_part(conics).lines):
        full = np.array(exact_restriction_rows(lines, k), dtype=object)
        assert not (full[:, plus] - full[:, minus]).any()
        quadric_rows = exact_restriction_rows(lines, k, True)
        assert full[:, free].tolist() == [list(row) for row in quadric_rows]
    if k >= 2:  # a partner line leaves S, and Q*m does not vanish on it
        for line in partner_part(conics).lines:
            full = np.array(exact_restriction_rows((line,), k), dtype=object)
            assert (full[:, plus] - full[:, minus]).any()


small = st.integers(min_value=-3, max_value=3)


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
    trimmed = np.vstack(restriction_matrix(cfg.lines, k)[0])
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
    serre_cohomology(cfg, 1)
    config_hash(cfg)
    quadric_restriction_onto_points_surjective(sample_modification(1, 0).marked, 1, 1)
    assert h0_ideal.cache_info().currsize and line_restriction_block.cache_info().currsize
    assert quadric_restriction_onto_points_surjective.cache_info().currsize
    assert sheaves._regular_from
    memos = (ideal_cohomology, serre_cohomology, config_hash)
    assert all(memo.cache_info().currsize for memo in memos)
    clear_caches()
    assert h0_ideal.cache_info().currsize == 0
    assert line_restriction_block.cache_info().currsize == 0
    assert quadric_restriction_onto_points_surjective.cache_info().currsize == 0
    assert not sheaves._regular_from
    assert [memo.cache_info().currsize for memo in memos] == [0, 0, 0]


def test_vectors_and_hashes_are_memoised_per_configuration_and_twist():
    clear_caches()
    cfg = sample_conics(2, 0)
    assert ideal_cohomology(cfg, 4) is ideal_cohomology(cfg, 4)
    assert serre_cohomology(cfg, 2) is serre_cohomology(cfg, 2)
    assert config_hash(cfg) is config_hash(cfg)
    assert ideal_cohomology.cache_info().hits >= 1
    # a memoised vector is the one a cold cache computes
    vectors = [ideal_cohomology(cfg, k) for k in range(-2, 9)]
    clear_caches()
    assert [ideal_cohomology(cfg, k) for k in reversed(range(-2, 9))][::-1] == vectors


def test_a_violated_identity_raises_on_every_call_and_is_never_memoised(monkeypatch):
    """A doctored h^0 below the chi bound makes h^1 negative; the raise is
    not memoised, so the next call checks again, and so does the first call
    after the real h^0 is back."""
    cfg = sample_ruling(2, 0)  # chi(I_Y(3)) = 20 - 3 * 4 = 8
    calls = []

    def doctored(config, k):
        calls.append(k)
        return 0

    clear_caches()
    monkeypatch.setattr(sheaves, "h0_ideal", doctored)
    for _ in range(2):
        with pytest.raises(sheaves.OracleInternalError, match=r"h1\(I\(3\)\) = -8 < 0"):
            ideal_cohomology(cfg, 3)
    assert calls == [3, 3] and ideal_cohomology.cache_info().currsize == 0
    monkeypatch.undo()
    assert ideal_cohomology(cfg, 3).as_tuple() == (8, 0, 0, 0)


def test_block_cache_has_a_fixed_bound():
    # one conic-sweep repetition asks for at most 1,689 distinct (line, k)
    assert line_restriction_block.cache_info().maxsize == 4096


@pytest.fixture
def exact_builds(monkeypatch):
    """Count the calls of `exact_restriction_rows`, from cold caches."""
    calls = []

    def counting(lines, k, *args):
        calls.append(k)
        return exact_restriction_rows(lines, k, *args)

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
    # closes it on the integer rows, built once; surjectivity reads that h^0
    assert h0_ideal(MIXED, 3) == 2
    assert not restriction_onto_lines_surjective(MIXED, 3)
    assert fallbacks == [20] and exact_builds == [3]


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
    # piece B is certified against, while h^1(I_Y(2)) = 30
    clear_caches()
    cfg = sample_ruling(12, 0)
    assert h0_ideal(cfg, 2) == 1 and ideal_cohomology(cfg, 2).h1 == 30
    assert cfg not in sheaves._regular_from
    clear_caches()


def _full_matrix_nullity(cfg, k):
    """h^0(I_Y(k)) from the whole restriction matrix in the monomials of
    P^3, certified against the chi bound h^1(I_Y(k)) >= 0 as at every twist,
    with no regularity record and no split along S."""
    lower = sheaves.chi_ideal(cfg, k) - structure_cohomology(cfg, k).h1
    rows, exact = restriction_matrix(cfg.lines, k)
    return nullity_certified(rows, comb(k + 3, 3), lower, exact)


@pytest.mark.parametrize("cfg", [sample_ruling(2, 0), sample_conics(2, 0),
                                 sample_modification(2, 0)],
                         ids=["ruling", "conics", "modification"])
def test_twist_zero_is_counted_without_a_matrix(cfg, monkeypatch):
    # H^0(I_Y) = 0 for a nonempty curve, and H^0(O_P3) = 1 with no lines
    expected = _full_matrix_nullity(cfg, 0)
    lower = sheaves.chi_ideal(cfg, 0) - structure_cohomology(cfg, 0).h1

    def no_matrix(*args):
        raise AssertionError("a matrix was built at k = 0")

    monkeypatch.setattr(sheaves, "restriction_matrix", no_matrix)
    monkeypatch.setattr(sheaves, "nullity_certified", no_matrix)
    assert sheaves._count(cfg.lines, 0, lower) == expected == 0
    assert sheaves._count((), 0, 1) == 1


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


def _split_grid():
    """Ruling, conic, partner, modification and ruling+modification samples
    for m <= 5 at seeds 0 and 1, with the twists -1..2m+8."""
    for m in range(6):
        for seed in range(2):
            ruling, conics = sample_ruling(m, seed), sample_conics(m, seed)
            yield from (pytest.param(m, cfg, id=f"{kind}-m{m}-s{seed}") for kind, cfg in (
                ("ruling", ruling), ("conics", conics), ("partner", partner_part(conics)),
                ("modification", sample_modification(m + 1, seed)),
                ("ruling+modification",
                 join_configs(ruling, sample_modification(m + 1, seed + 100, avoid=ruling)))))


@pytest.mark.parametrize("m, cfg", [*_split_grid(), pytest.param(4, MIXED, id="mixed")])
def test_the_residual_split_is_the_whole_matrix(m, cfg, monkeypatch):
    splits = []

    def recording(on, points, k, lower):
        splits.append(k)
        return trace_nullity(on, points, k, lower)

    trace_nullity = sheaves._trace_nullity
    monkeypatch.setattr(sheaves, "_trace_nullity", recording)
    # each twist from cold caches, so no regularity record answers it
    for k in range(-1, 2 * m + 9):
        clear_caches()
        assert h0_ideal(cfg, k) == (_full_matrix_nullity(cfg, k) if k >= 0 else 0), k
    clear_caches()
    # MIXED has lines off S whose ends leave S, so it takes the whole matrix;
    # every other sample splits at least at the top twist
    assert (2 * m + 8 in splits) == (cfg != MIXED)


def test_ten_conics_split_where_the_whole_matrix_needs_bareiss(monkeypatch):
    # at k = 8, 9, 10 h^1 > 0 and each conic's node makes the whole matrix's
    # rows dependent, so its certificate cannot close (180 x 165, 200 x 220
    # and 220 x 286 went to Bareiss); split along S, the partners' rows at
    # k-2 are independent, and only B at k = 10 is left to Bareiss
    shapes = []

    def recording(rows):
        shapes.append((len(rows), len(rows[0])))
        return rank_exact(rows)

    monkeypatch.setattr(linalg, "rank_exact", recording)
    conics = sample_conics(9, 0)
    for k, h0 in ((8, 14), (9, 40), (10, 78)):
        clear_caches()
        assert h0_ideal(conics, k) == h0
    assert shapes == [(120, 11 ** 2)]
    clear_caches()


def test_configurations_with_the_same_lines_share_one_count():
    # the count depends on the lines alone: two configurations that differ
    # only in their extension data are counted apart, to the same h^0
    clear_caches()
    cfg = sample_ruling(3, 0)
    shifted = replace(cfg, serre_shift=(-2, 1))
    assert cfg != shifted and cfg.lines == shifted.lines
    assert h0_ideal(cfg, 2) == h0_ideal(shifted, 2) == 1
    assert h0_ideal.cache_info().misses == 2
    clear_caches()


def test_questions_a_configuration_cannot_answer_raise_a_configuration_error():
    # a ValueError, so the CLI still exits 2, that a caller tells from a bad spec
    assert issubclass(ConfigurationError, ValueError)
    assert not issubclass(ConfigurationError, InvalidSpec)
    with pytest.raises(ConfigurationError, match="^unknown curve type 'cubics'$"):
        structure_cohomology(GeometryConfig("cubics", 1, ()), 0)
    no_extension = GeometryConfig("lines", 0, ())
    for _ in range(2):  # a raise is not memoised
        with pytest.raises(ConfigurationError, match="^configuration has no extension data$"):
            serre_cohomology(no_extension, 0)


def test_four_ruling_lines_have_h1_at_twist_two():
    # the agreement sample with h^1(I_Y(k)) > 0 at a k >= 0
    cfg = sample_ruling(3, 0)
    assert ideal_cohomology(cfg, 2).h1 == 3 and ideal_cohomology(cfg, 3).h1 == 0


@pytest.fixture
def row_builds(monkeypatch):
    """Count the twists `h0_ideal` counts with matrices, from cold caches."""
    calls = []

    def counting(lines, k, lower):
        calls.append(k)
        return count(lines, k, lower)

    count = sheaves._count
    clear_caches()
    monkeypatch.setattr(sheaves, "_count", counting)
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
    # the ends of MIXED's lines off S leave S, so the whole matrix is eliminated
    assert h0_ideal(MIXED, 3) == 2 and fallbacks == [20]
    assert passes == [(20, 20)]
    # surjectivity reads the memoised h^0 and eliminates nothing
    assert not restriction_onto_lines_surjective(MIXED, 3) and fallbacks == [20]
    assert passes == [(20, 20)]
    # Bareiss reads the integer rows and eliminates nothing mod p
    assert rank_exact(exact_restriction_rows(MIXED.lines, 3)) == 18
    assert passes == [(20, 20)]


_RULING = sample_ruling(3, 0)
STACKED = [sample_ruling(4, 0), sample_conics(2, 1), sample_modification(3, 2),
           join_configs(_RULING, sample_modification(2, 0, avoid=_RULING)), MIXED]


@pytest.mark.parametrize("cfg", STACKED,
                         ids=lambda cfg: f"{cfg.curve}-{len(cfg.lines)}-{config_hash(cfg)[:6]}")
def test_stacked_rows_are_the_per_line_blocks(cfg):
    # one recursion over all the lines gives each line's own block, in order
    for k in range(12):
        residues, build = restriction_matrix(cfg.lines, k)
        reference = [row for line in cfg.lines for row in restriction_matrix((line,), k)[0]]
        assert len(residues) == len(reference) == len(cfg.lines) * (k + 1)
        assert all(row.dtype == np.int64 and row.tobytes() == ref.tobytes()
                   for row, ref in zip(residues, reference))
        assert build() == [row for line in cfg.lines for row in exact_restriction_rows((line,), k)]
        on = tuple(filter(line_inside_quadric, cfg.lines))
        assert [row.tobytes() for row in linalg._restriction_block(on, k, PRIME, True)] == [
            row.tobytes() for line in on for row in line_restriction_block(line, k)]


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


def _residues(rows):
    """Integer rows reduced mod PRIME, as the int64 rows `rank_mod_p` takes."""
    return [np.array([x % PRIME for x in row], dtype=np.int64) for row in rows]


huge = st.one_of(st.integers(min_value=-50, max_value=50),
                 st.integers(min_value=2 ** 63, max_value=2 ** 70),
                 st.integers(min_value=-2 ** 70, max_value=-2 ** 63),
                 st.sampled_from([PRIME, -PRIME, 2 * PRIME + 1]))


@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(st.lists(huge, min_size=n, max_size=n), min_size=1, max_size=6)))
@settings(max_examples=60, deadline=None)
def test_residue_rows_give_the_exact_answers_through_their_builder(matrix):
    tuples = [tuple(row) for row in matrix]
    residues = _residues(tuples)
    assert rank_mod_p(residues) <= rank_exact(tuples)
    n_cols = len(tuples[0])
    assert nullity_certified(residues, n_cols, 0, lambda: tuples) == n_cols - rank_exact(tuples)
    assert full_row_rank(residues, lambda: tuples) == (rank_exact(tuples) == len(tuples))




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
    assert rank_mod_p(_residues(rows)) <= expected


@pytest.mark.parametrize("rows, rank", [
    ([(PRIME, 0), (0, 1)], 2),              # rank_p = 1
    ([(PRIME,)], 1),                        # rank_p = 0
    ([(PRIME * 2 ** 40, 0), (0, 1)], 2),    # rank_p = 1 again, past int64
])
def test_an_unlucky_prime_leaves_the_answer_to_bareiss(rows, rank):
    # rank_p < rank_Q, so the certificate cannot close: Bareiss decides on the
    # integer rows that the residue rows' callable builds
    n_cols = len(rows[0])
    residues = _residues(rows)
    assert rank_mod_p(residues) < rank == rank_exact(rows)
    assert nullity_certified(residues, n_cols, 0, lambda: rows) == n_cols - rank
    assert full_row_rank(residues, lambda: rows) == (rank == len(rows))


def test_empty_rows_keep_their_answers():
    assert rank_mod_p([]) == 0
    assert rank_exact([]) == rank_exact([(), ()]) == 0
    assert nullity_certified([], 10, 0, lambda: []) == 10
    assert full_row_rank([], lambda: []) is True
    no_lines = GeometryConfig("lines", 0, ())
    assert h0_ideal(no_lines, 2) == comb(5, 3)
    assert restriction_onto_lines_surjective(no_lines, 2)
