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

h^0 is counted along the quadric S: Q = x0*x3 - x1*x2 = 0, by the
residual exact sequence of Y with respect to S (the methode d'Horace:
Hirschowitz 1981, Hartshorne-Hirschowitz 1982).  Split the lines of Y into
L, those inside S, and M, those off it.  No line of M lies in S, so the
residual (I_Y : Q) is I_M and

    0 -> I_M(k-2) --Q--> I_Y(k) -> I_{Y cap S, S}(k) -> 0

is exact.  When both ends of every line of M lie on S and the lines of M
are disjoint, each line of M meets S transversally in exactly its two ends,
so the trace Y cap S is reduced: L plus the ends of M that lie on no line
of L (a conic's node lies on its ruling half).  Piece A is the restriction
matrix of M at twist k-2, in the C(k+1, 3) monomials of P^3.  When A has
full row rank mod p, so over Q, h^1(I_M(k-2)) = 0 and

    h^0(I_Y(k)) = C(k+1, 3) - rows(A) + h^0(I_{Y cap S, S}(k)).

The last term is the nullity of piece B in the (k+1)^2 monomials of
bidegree (k, k) in S's coordinates (u, v) (see ``linalg``): the cached
``line_restriction_block`` rows of the lines of L, then each trace point's
values at them, read at its (u, v).  B is certified against the
chi bound minus h^0(I_M(k-2)).  With M empty, A has no rows and h^0 is
C(k+1, 3) plus the nullity of B.  Where A is not surjective mod p, or an
end of M leaves S, the whole restriction matrix in the C(k+3, 3) monomials
is certified against the chi bound itself.  Every matrix is stacked from
int64 residues mod p, which give the modular rank; only where that rank
does not certify the answer are the exact integer rows built, for Bareiss
to decide.  ``ideal_cohomology`` and ``serre_cohomology`` memoise whole
vectors per (configuration, twist), so ``h0_ideal`` counts once per
configuration and twist, on its first ask.

Above the regularity of I_Y no matrix is needed.  By Mumford's lemma, if
h^1(I_Y(k)) = 0, h^2(I_Y(k-1)) = h^1(O_Y(k-1)) = 0 and
h^3(I_Y(k-2)) = h^3(O_P3(k-2)) = 0, then I_Y is (k+1)-regular, so
h^1(I_Y(j)) = 0 for every j >= k.  With h^3(O_P3(j)) = 0 for j >= 0 the
identity above then reads h^0(I_Y(j)) = chi(I_Y(j)) - h^1(O_Y(j)), which is
exactly the chi bound ``lower`` that certifies every rank.  ``h0_ideal``
records, per configuration, the least twist at which a computed h^0 met that
bound while both side conditions hold in the tables, and answers every
higher twist with the bound.  The record is keyed on the chi bound, never on
the bound of piece B: with every line on S, h^0 meets C(k+1, 3) where
h^1 does not vanish.  The record is read, never forced: no twist is computed to
extend it.  It only answers twists above one already computed,
so callers that need a range of twists ask them lowest first, as
``monad`` does for the Serre-dual half of a profile.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from p3bundles.oracle import linalg
from p3bundles.oracle.configs import (
    GeometryConfig,
    Line,
    MarkedPoint,
    Point4,
    config_hash,
    line_inside_quadric,
    lines_pairwise_disjoint,
    point_on_line,
    quadric_coordinates,
    quadric_value,
)
from p3bundles.oracle.linalg import (
    bidegree_exponents,
    evaluation_matrix,
    full_row_rank,
    line_restriction_block,
    nullity_certified,
    restriction_matrix,
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


class ConfigurationError(ValueError):
    """A configuration the oracle was asked about cannot answer the question:
    its curve type is unknown, or it carries no extension data."""


def structure_cohomology(cfg: GeometryConfig, k: int) -> CohomologyVector:
    if cfg.curve == "lines":
        return h_disjoint_lines(cfg.components, k)
    if cfg.curve == "conics":
        return h_disjoint_conics(cfg.components, k)
    raise ConfigurationError(f"unknown curve type {cfg.curve!r}")


def chi_ideal(cfg: GeometryConfig, k: int) -> int:
    return chi_p3_line_bundle(k) - structure_cohomology(cfg, k).chi()


def _ends_on_s(line: Line) -> bool:
    return quadric_value(line.p) == 0 and quadric_value(line.q) == 0


def _trace_nullity(on: tuple[Line, ...], points: list[Point4], k: int, lower: int) -> int:
    """Piece B: the dimension of the forms of O_S(k) that vanish on the lines
    ``on`` of S and at the ``points`` of S, certified against ``lower``.  The
    rows of the lines come from their cached blocks by power of t, so each
    run of k+1 columns reaches the elimination together; one evaluation row
    per point follows, its (u, v) read as (v, u) to match the column order."""
    blocks = [line_restriction_block(line, k) for line in on]
    values, exact_values = evaluation_matrix(
        [(*v, *u) for u, v in map(quadric_coordinates, points)], bidegree_exponents(k, k))
    rows = [b[j] for j in range(k + 1) for b in blocks] + values
    return nullity_certified(rows, (k + 1) ** 2, lower,
                             lambda: linalg.exact_ruling_rows(on, k) + exact_values())


def _count(lines: tuple[Line, ...], k: int, lower: int) -> int:
    """h^0(I_Y(k)) for the union Y of ``lines``, k >= 0, given the chi bound
    ``lower``: split along S by the residual sequence where it applies (see
    the module docstring), else from the whole restriction matrix.  At k = 0
    the forms are the constants, and none but 0 vanishes on a line."""
    if k == 0:
        return 0 if lines else 1
    on = tuple(filter(line_inside_quadric, lines))
    off = tuple(line for line in lines if not line_inside_quadric(line))
    if all(map(_ends_on_s, off)) and lines_pairwise_disjoint(off):
        residual, _ = restriction_matrix(off, k - 2)
        if not residual or (len(residual) <= len(residual[0])
                            and linalg.rank_mod_p(residual) == len(residual)):
            # the split's two facts: (I_Y : Q) = I_M, and M meets S at its ends
            assert not any(map(line_inside_quadric, off)) and all(map(_ends_on_s, off))
            trace = [x for line in off for x in (line.p, line.q)
                     if not any(point_on_line(x, l) for l in on)]
            h0_residual = comb(k + 1, 3) - len(residual)
            return h0_residual + _trace_nullity(on, trace, k, lower - h0_residual)
    rows, exact = restriction_matrix(lines, k)
    return nullity_certified(rows, comb(k + 3, 3), lower, exact)


# configuration -> least twist k computed with h^1(I_Y(k)) = 0 at which I_Y
# is known to be (k+1)-regular; see the module docstring
_regular_from: dict[GeometryConfig, int] = {}


# 0 hits behind ideal_cohomology; stays: perfbench reads it for oracle.sheaves.h0_cache_hit_ratio
@lru_cache(maxsize=None)
def h0_ideal(cfg: GeometryConfig, k: int) -> int:
    """dim of degree-k forms vanishing on the configuration curve."""
    if k < 0:
        return 0
    lower = chi_ideal(cfg, k) - structure_cohomology(cfg, k).h1  # h^1(I) >= 0; h^3(O(k)) = 0
    if k >= _regular_from.get(cfg, k + 1):
        return lower
    h0 = _count(cfg.lines, k, lower)
    if (h0 == lower and structure_cohomology(cfg, k - 1).h1 == 0
            and h_p3_line_bundle(k - 2).h3 == 0):
        _regular_from[cfg] = k
    return h0


def clear_caches() -> None:
    """Forget every memoised cohomology vector and h0, regularity record,
    quadric-point answer, line-restriction block, monomial table and
    configuration hash.  The engine's memos are cleared with them by
    ``p3bundles.clear_caches``."""
    ideal_cohomology.cache_clear()
    serre_cohomology.cache_clear()
    config_hash.cache_clear()
    h0_ideal.cache_clear()
    quadric_restriction_onto_points_surjective.cache_clear()
    _regular_from.clear()
    # through its owner: a caller may have rebound this module's name to a wrapper
    linalg.line_restriction_block.cache_clear()
    for table in (linalg._monomials, linalg._degree_step):
        table.cache_clear()


@lru_cache(maxsize=None)
def ideal_cohomology(cfg: GeometryConfig, k: int) -> CohomologyVector:
    """Full vector of I_Y(k), memoised per (configuration, k).  The h^1 >= 0
    check runs on every miss, and a raise is not memoised."""
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


@lru_cache(maxsize=None)
def serre_cohomology(cfg: GeometryConfig, l: int) -> CohomologyVector:
    """Full vector of the rank-2 extension bundle twisted by l, memoised per
    (configuration, l)."""
    if cfg.serre_shift is None:
        raise ConfigurationError("configuration has no extension data")
    s, tshift = cfg.serre_shift
    c1 = s + tshift

    def bottom(lv: int) -> tuple[int, int]:
        ideal = ideal_cohomology(cfg, tshift + lv)
        return h_p3_line_bundle(s + lv).h0 + ideal.h0, ideal.h1

    h0, h1 = bottom(l)
    h3, h2 = bottom(-l - 4 - c1)
    return CohomologyVector(h0, h1, h2, h3)


@lru_cache(maxsize=None)
def quadric_restriction_onto_points_surjective(points: tuple[MarkedPoint, ...],
                                               p: int, q: int) -> bool:
    """Is H0(O_S(p, q)) -> functions on the given quadric points surjective?
    Memoised: later runs of a pass ask the same points and bidegree again."""
    if p < 0 or q < 0:
        return len(points) == 0
    return full_row_rank(*evaluation_matrix([(*mp.u, *mp.v) for mp in points],
                                            bidegree_exponents(p, q)))


def restriction_onto_lines_surjective(cfg: GeometryConfig, k: int) -> bool:
    """Is H0(O_P3(k)) -> (+) H0(O_line(k)) over the component lines surjective?

    Below twist 0 the target is 0, so it is.  When two components meet, as
    the lines of a nodal conic do, it is not, at any k >= 0: every form
    restricts to the same value at the common point on both lines, while
    the target has sections that differ there.  For disjoint lines the
    cokernel is H^1(I_Y(k)), as H^1(O_P3(k)) = 0, so the memoised h^0
    answers.
    """
    if k < 0:
        return True
    if not lines_pairwise_disjoint(cfg.lines):
        return False
    return ideal_cohomology(cfg, k).h1 == 0


def marked_point_evaluation_surjective(cfg: GeometryConfig, k: int) -> bool:
    """Is H0(O_P3(k)) -> functions on the marked points surjective?  S is
    projectively normal, so H0(O_P3(k)) -> H0(O_S(k, k)) is onto, and the
    points of S answer in S's coordinates."""
    return quadric_restriction_onto_points_surjective(cfg.marked, k, k)
