"""Exact cohomology of ideal sheaves and Serre-extension bundles.

For a reduced curve Y that is a disjoint union of lines or of nodal conics
(each the union of two lines), a form vanishes on Y iff it vanishes on every
component line, so h^0 of the twisted ideal sheaf is the kernel dimension of
the stacked line-restriction matrix.  The rest of the vector is forced:

    h^2(I_Y(k)) = h^1(O_Y(k)),   h^3(I_Y(k)) = h^3(O_P3(k)),
    h^1(I_Y(k)) = h^0(I_Y(k)) - chi(I_Y(k)) + h^1(O_Y(k)) - h^3(O_P3(k)),

valid for every k because the ambient middle cohomology of line bundles on
P^3 vanishes identically.  Rank-2 bundles arriving through an extension
0 -> O(s) -> E -> I_Y(t) -> 0 inherit h^0 and h^1 from the ideal side the
same way, and the top half of their vector comes from Serre duality.

The restriction matrix is stacked from int64 residues mod p, which give the
modular rank; only where that rank does not certify the answer are the
exact integer rows built, for Bareiss to decide (see ``linalg``).  The
blocks of lines on S, which recur across configurations, come from the
cached ``line_restriction_block``; the rows of the lines off S are built
per matrix, all in one recursion, and are not kept.

The matrix is written in the quadric's basis (see ``linalg``): the multiples
Q*m of Q = x0*x3 - x1*x2 by the C(k+1, 3) monomials of degree k-2, then the
(k+1)^2 monomials not divisible by x0*x3.  Up to the order of its columns
the change of basis is unitriangular over Z, with determinant +-1, so every
rank, over Q and modulo every prime, and with it h^0 and each certificate's
bound, is that of the monomial matrix.  The lines off S are stacked first,
so only their rows can take a pivot in a Q column.  When every line lies on
S, every Q*m vanishes on Y and the Q columns of the matrix are zero:
h^0(I_Y(k)) = C(k+1, 3) + the nullity of the (k+1)^2 free columns alone,
and only those are built, certified against the chi bound minus C(k+1, 3).
With one line off S, Q*m need not vanish on Y, C(k+1, 3) is no lower bound,
and the whole matrix is eliminated against the chi bound itself.

Above the regularity of I_Y no matrix is needed.  By Mumford's lemma, if
h^1(I_Y(k)) = 0, h^2(I_Y(k-1)) = h^1(O_Y(k-1)) = 0 and
h^3(I_Y(k-2)) = h^3(O_P3(k-2)) = 0, then I_Y is (k+1)-regular, so
h^1(I_Y(j)) = 0 for every j >= k.  With h^3(O_P3(j)) = 0 for j >= 0 the
identity above then reads h^0(I_Y(j)) = chi(I_Y(j)) - h^1(O_Y(j)), which is
exactly the chi bound ``lower`` that certifies every rank.  ``h0_ideal``
records, per configuration, the least twist at which a computed h^0 met that
bound while both side conditions hold in the tables, and answers every
higher twist with the bound.  The record is keyed on the chi bound, never on
the raised bound of a configuration on S: h^0 meets C(k+1, 3) where h^1
does not vanish.  The record is read, never forced: no twist is computed to
extend it.  It only answers twists above one already computed,
so callers that need a range of twists ask them lowest first, as
``monad`` does for the Serre-dual half of a profile.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

from p3bundles.oracle import linalg
from p3bundles.oracle.configs import (
    GeometryConfig,
    MarkedPoint,
    Point4,
    line_inside_quadric,
    lines_pairwise_disjoint,
)
from p3bundles.oracle.linalg import (
    bidegree_exponents,
    evaluation_matrix,
    full_row_rank,
    line_restriction_block,
    monomial_exponents,
    nullity_certified,
    stack_restriction_rows,
)
from p3bundles.tables import (
    CohomologyVector,
    h_disjoint_conics,
    h_disjoint_lines,
    h_p3_line_bundle,
    chi_p3_line_bundle,
)


class OracleInternalError(RuntimeError):
    """An exact identity came out violated; indicates a bug, never geometry."""


def structure_cohomology(cfg: GeometryConfig, k: int) -> CohomologyVector:
    if cfg.curve == "lines":
        return h_disjoint_lines(cfg.components, k)
    if cfg.curve == "conics":
        return h_disjoint_conics(cfg.components, k)
    raise ValueError(f"unknown curve type {cfg.curve!r}")


def chi_ideal(cfg: GeometryConfig, k: int) -> int:
    return chi_p3_line_bundle(k) - structure_cohomology(cfg, k).chi()


def _restriction_rows(cfg: GeometryConfig, k: int) -> list[np.ndarray]:
    """The int64 rows (residues mod p) of the restriction matrix in the
    quadric basis: the lines on S from the cached blocks, the lines off S
    built afresh."""
    return stack_restriction_rows(cfg.lines, k, line_restriction_block)


def _exact_rows(cfg: GeometryConfig, k: int) -> linalg.ExactRows:
    """Builds the same matrix's integer rows, for the exact fallback; through
    the module, where a caller may have rebound the name."""
    return lambda: linalg.exact_restriction_rows(cfg.lines, k)


# configuration -> least twist k computed with h^1(I_Y(k)) = 0 at which I_Y
# is known to be (k+1)-regular; see the module docstring
_regular_from: dict[GeometryConfig, int] = {}


@lru_cache(maxsize=None)
def h0_ideal(cfg: GeometryConfig, k: int) -> int:
    """dim of degree-k forms vanishing on the configuration curve."""
    if k < 0:
        return 0
    lower = chi_ideal(cfg, k) - structure_cohomology(cfg, k).h1  # h^1(I) >= 0; h^3(O(k)) = 0
    if k >= _regular_from.get(cfg, k + 1):
        return lower
    rows, exact = _restriction_rows(cfg, k), _exact_rows(cfg, k)
    if all(map(line_inside_quadric, cfg.lines)):
        # Q * S_{k-2} vanishes on Y, and the rows are the other (k+1)^2 columns
        multiples = comb(k + 1, 3)
        h0 = multiples + nullity_certified(rows, (k + 1) ** 2, lower - multiples, exact)
    else:
        h0 = nullity_certified(rows, comb(k + 3, 3), lower, exact)
    if (h0 == lower and structure_cohomology(cfg, k - 1).h1 == 0
            and h_p3_line_bundle(k - 2).h3 == 0):
        _regular_from[cfg] = k
    return h0


def clear_caches() -> None:
    """Forget every memoised h0, regularity record, quadric-point answer,
    line-restriction block and monomial table."""
    h0_ideal.cache_clear()
    quadric_restriction_onto_points_surjective.cache_clear()
    _regular_from.clear()
    # through its owner: a caller may have rebound this module's name to a wrapper
    linalg.line_restriction_block.cache_clear()
    for table in (linalg._monomials, linalg._degree_step, linalg._basis_columns):
        table.cache_clear()


def ideal_cohomology(cfg: GeometryConfig, k: int) -> CohomologyVector:
    h0 = h0_ideal(cfg, k)
    ov = structure_cohomology(cfg, k)
    amb = h_p3_line_bundle(k)
    h2 = ov.h1
    h3 = amb.h3
    h1 = h0 - chi_ideal(cfg, k) + h2 - h3
    if h1 < 0:
        raise OracleInternalError(
            f"h1(I({k})) = {h1} < 0 for curve {cfg.curve} x{cfg.components}")
    return CohomologyVector(h0, h1, h2, h3)


def serre_cohomology(cfg: GeometryConfig, l: int) -> CohomologyVector:
    """Full vector of the rank-2 extension bundle twisted by l."""
    if cfg.serre_shift is None:
        raise ValueError("configuration has no extension data")
    s, tshift = cfg.serre_shift
    c1 = s + tshift

    def bottom(lv: int) -> tuple[int, int]:
        ideal = ideal_cohomology(cfg, tshift + lv)
        return h_p3_line_bundle(s + lv).h0 + ideal.h0, ideal.h1

    h0, h1 = bottom(l)
    h3, h2 = bottom(-l - 4 - c1)
    return CohomologyVector(h0, h1, h2, h3)


def _evaluation_surjective(points: list[tuple[int, ...]], exponents) -> bool:
    """Do the values of the monomials of ``exponents`` at the points, one row
    per point, have full row rank?"""
    return full_row_rank(*evaluation_matrix(points, exponents))


def restriction_onto_points_surjective(points: list[Point4], k: int) -> bool:
    """Is H0(O_P3(k)) -> functions on the given points surjective?"""
    if k < 0:
        return len(points) == 0
    return _evaluation_surjective(points, monomial_exponents(k))


@lru_cache(maxsize=None)
def quadric_restriction_onto_points_surjective(points: tuple[MarkedPoint, ...],
                                               p: int, q: int) -> bool:
    """Is H0(O_S(p, q)) -> functions on the given quadric points surjective?
    Memoised: later runs of a pass ask the same points and bidegree again."""
    if p < 0 or q < 0:
        return len(points) == 0
    return _evaluation_surjective([(*mp.u, *mp.v) for mp in points], bidegree_exponents(p, q))


def restriction_onto_lines_surjective(cfg: GeometryConfig, k: int) -> bool:
    """Is H0(O_P3(k)) -> (+) H0(O_line(k)) over the component lines surjective?

    Equivalent to h^1(I(k)) = 0 when the components are disjoint lines.  When
    two components meet, as the lines of a nodal conic do, it is not, at any
    k >= 0: every form restricts to the same value at the common point on
    both lines, while the target has sections that differ there.  So that
    case is answered without a rank.
    """
    if k < 0:
        return not cfg.lines
    if not lines_pairwise_disjoint(cfg.lines):
        return False
    return full_row_rank(_restriction_rows(cfg, k), _exact_rows(cfg, k))


def marked_point_evaluation_surjective(cfg: GeometryConfig, k: int) -> bool:
    return restriction_onto_points_surjective([mp.point for mp in cfg.marked], k)
