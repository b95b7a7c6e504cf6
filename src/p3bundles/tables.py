"""Closed-form cohomology tables for the standard sheaves the engine leans on.

Covers line bundles on P^1, P^3 and on the smooth quadric (= P^1 x P^1, via
the Kunneth formula), together with twisted structure sheaves of disjoint
lines, disjoint conics, and finite point sets.  Each entry returns the full
vector (h^0, h^1, h^2, h^3) as computed in the ambient P^3.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple


class CohomologyVector(NamedTuple):
    h0: int
    h1: int
    h2: int
    h3: int

    def chi(self) -> int:
        return self.h0 - self.h1 + self.h2 - self.h3

    def as_tuple(self) -> tuple[int, int, int, int]:
        return tuple(self)


def h_p1(d: int) -> tuple[int, int]:
    """(h^0, h^1) of O(d) on P^1."""
    return (max(0, d + 1), max(0, -d - 1))


def h_p3_line_bundle(d: int) -> CohomologyVector:
    """O(d) on P^3; middle cohomology always vanishes."""
    h0 = comb(d + 3, 3) if d >= 0 else 0
    h3 = comb(-d - 1, 3) if d <= -4 else 0
    return CohomologyVector(h0, 0, 0, h3)


def chi_p3_line_bundle(d: int) -> int:
    # (d+1)(d+2)(d+3)/6 is the Hilbert polynomial and is valid for every d
    return (d + 1) * (d + 2) * (d + 3) // 6


def h_quadric(p: int, q: int) -> CohomologyVector:
    """O(p, q) on P^1 x P^1, pushed forward to P^3 (h^3 = 0 since dim = 2).

    Kunneth: H^k = sum over i+j = k of H^i(O_P1(p)) x H^j(O_P1(q)).
    """
    a0, a1 = h_p1(p)
    b0, b1 = h_p1(q)
    return CohomologyVector(a0 * b0, a0 * b1 + a1 * b0, a1 * b1, 0)


def h_disjoint_lines(k: int, d: int) -> CohomologyVector:
    """O_Y(d) for Y a disjoint union of k lines."""
    h0, h1 = h_p1(d)
    return CohomologyVector(k * h0, k * h1, 0, 0)


def h_disjoint_conics(k: int, d: int) -> CohomologyVector:
    """O_Y(d) for Y a disjoint union of k conics.

    Each conic here is a pair of lines glued at one node; a section is a
    pair of degree-d forms agreeing at the node, which gives 2d + 1 in
    degree d >= 0 and nothing below, so chi = 2d + 1 settles h^1.
    """
    h0 = max(0, 2 * d + 1)
    h1 = h0 - (2 * d + 1)
    return CohomologyVector(k * h0, k * h1, 0, 0)


def h_points(k: int) -> CohomologyVector:
    """Structure sheaf of k reduced points (twisting is invisible)."""
    return CohomologyVector(k, 0, 0, 0)
