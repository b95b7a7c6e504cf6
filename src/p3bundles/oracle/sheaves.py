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

The restriction matrix is stacked from int64 blocks of residues mod p, which
give the modular rank; its exact integer rows are built only when that rank
does not certify the answer (see ``linalg``).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

from p3bundles.oracle.configs import GeometryConfig, MarkedPoint, Point4
from p3bundles.oracle.linalg import (
    bidegree_evaluation_row,
    exact_restriction_rows,
    full_row_rank,
    line_restriction_block,
    nullity_certified,
    point_evaluation_row,
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
    """The int64 rows (residues mod p) of the stacked restriction matrix."""
    return [row for line in cfg.lines for row in line_restriction_block(line, k)]


@lru_cache(maxsize=None)
def h0_ideal(cfg: GeometryConfig, k: int) -> int:
    """dim of degree-k forms vanishing on the configuration curve."""
    if k < 0:
        return 0
    n_cols = comb(k + 3, 3)
    ov = structure_cohomology(cfg, k)
    lower = chi_ideal(cfg, k) - ov.h1  # h^1(I) >= 0 rearranged; h^3(O(k)) = 0 here
    return nullity_certified(_restriction_rows(cfg, k), n_cols, lower,
                             lambda: exact_restriction_rows(cfg.lines, k))


def clear_caches() -> None:
    """Forget every memoised h0 and line-restriction block."""
    h0_ideal.cache_clear()
    line_restriction_block.cache_clear()


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


def restriction_onto_points_surjective(points: list[Point4], k: int) -> bool:
    """Is H0(O_P3(k)) -> functions on the given points surjective?"""
    if k < 0:
        return len(points) == 0
    return full_row_rank([point_evaluation_row(p, k) for p in points])


def quadric_restriction_onto_points_surjective(points: tuple[MarkedPoint, ...],
                                               p: int, q: int) -> bool:
    """Is H0(O_S(p, q)) -> functions on the given quadric points surjective?"""
    if p < 0 or q < 0:
        return len(points) == 0
    return full_row_rank([bidegree_evaluation_row(mp.u, mp.v, p, q) for mp in points])


def restriction_onto_lines_surjective(cfg: GeometryConfig, k: int) -> bool:
    """Is H0(O_P3(k)) -> (+) H0(O_line(k)) over the component lines surjective?

    Equivalent to h^1(I(k)) = 0 when the components are disjoint lines.
    """
    if k < 0:
        return not cfg.lines
    return full_row_rank(_restriction_rows(cfg, k),
                         lambda: exact_restriction_rows(cfg.lines, k))


def marked_point_evaluation_surjective(cfg: GeometryConfig, k: int) -> bool:
    return restriction_onto_points_surjective([mp.point for mp in cfg.marked], k)
