"""Closed-form cohomology tables for the structure sheaves the engine pins."""

from math import comb

from hypothesis import given
from hypothesis import strategies as st

from p3bundles.tables import (
    chi_p3_line_bundle,
    h_disjoint_conics,
    h_disjoint_lines,
    h_p1,
    h_p3_line_bundle,
    h_points,
    h_quadric,
)

degrees = st.integers(min_value=-15, max_value=15)
counts = st.integers(min_value=1, max_value=8)


def test_p3_pinned_values():
    assert h_p3_line_bundle(0).as_tuple() == (1, 0, 0, 0)
    assert h_p3_line_bundle(2).as_tuple() == (comb(5, 3), 0, 0, 0)
    assert h_p3_line_bundle(-1).as_tuple() == (0, 0, 0, 0)
    assert h_p3_line_bundle(-4).as_tuple() == (0, 0, 0, 1)
    assert h_p3_line_bundle(-7).as_tuple() == (0, 0, 0, comb(6, 3))


@given(degrees)
def test_p3_chi_consistency(d):
    assert h_p3_line_bundle(d).chi() == chi_p3_line_bundle(d)


@given(degrees)
def test_p3_serre_duality(d):
    v = h_p3_line_bundle(d)
    w = h_p3_line_bundle(-d - 4)
    assert (v.h0, v.h3) == (w.h3, w.h0)


@given(degrees, degrees)
def test_quadric_chi_and_symmetry(p, q):
    assert h_quadric(p, q).chi() == (p + 1) * (q + 1)
    assert h_quadric(p, q) == h_quadric(q, p)


def test_quadric_mixed_signs():
    # O(p, q) with p >= 0 > q has only middle cohomology
    v = h_quadric(3, -2)
    assert v.h0 == 0 and v.h2 == 0
    assert v.h1 == 4 * 1
    assert h_quadric(1, 1).as_tuple() == (4, 0, 0, 0)
    assert h_quadric(-2, -2).as_tuple() == (0, 0, 1, 0)


@given(counts, degrees)
def test_disjoint_lines_chi(k, d):
    v = h_disjoint_lines(k, d)
    assert v.chi() == k * (d + 1)
    assert v.h2 == 0 and v.h3 == 0


@given(counts, degrees)
def test_disjoint_conics_chi(k, d):
    v = h_disjoint_conics(k, d)
    assert v.chi() == k * (2 * d + 1)


@given(counts, degrees)
def test_lines_scale_with_components(k, d):
    one = h_disjoint_lines(1, d)
    many = h_disjoint_lines(k, d)
    assert many.as_tuple() == tuple(k * x for x in one.as_tuple())


@given(degrees)
def test_p1_matches_line_table(d):
    h0, h1 = h_p1(d)
    assert (h0, h1) == (h_disjoint_lines(1, d).h0, h_disjoint_lines(1, d).h1)


def test_points_ignore_twist():
    assert h_points(5).as_tuple() == (5, 0, 0, 0)
    assert h_points(0).chi() == 0
