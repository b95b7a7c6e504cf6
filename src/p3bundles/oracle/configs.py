"""Randomized but certified curve configurations on the standard quadric.

Everything lives on S: x0*x3 = x1*x2, parametrized by
((u0:u1), (v0:v1)) -> (u0*v0, u0*v1, u1*v0, u1*v1); the first factor indexes
one ruling.  Coordinates are small integers so all downstream linear algebra
is exact.  Sampling draws from a deterministic child stream of the given
seed and re-draws (at most ``RETRY_BUDGET`` draws per object) until the
configuration passes explicit incidence certificates; the certificates, not
the sampling distribution, carry the correctness burden.

Configurations:
  ruling        m+1 pairwise disjoint lines of one ruling
  conics        m+1 disjoint nodal conics: each is a ruling line plus a
                partner line through one node, partner not contained in S
  modification  d extra lines, each meeting S in two marked points, mutually
                disjoint and disjoint from a designated companion; their
                marked points have pairwise distinct second-ruling
                coordinates.  Nothing forces these lines onto any common
                quadric.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from p3bundles.jsonio import content_hash
from p3bundles.rng import child_rng

Point4 = tuple[int, int, int, int]
Proj1 = tuple[int, int]

COORD_POOL = tuple(range(-9, 10))
RETRY_BUDGET = 64  # draws per sampled object, and per kind of draw of a secant


class SamplingFailed(RuntimeError):
    """Retry budget exhausted without a certified configuration."""


def quadric_point(u: Proj1, v: Proj1) -> Point4:
    return (u[0] * v[0], u[0] * v[1], u[1] * v[0], u[1] * v[1])


def quadric_value(p: Point4) -> int:
    return p[0] * p[3] - p[1] * p[2]


def quadric_bilinear(p: Point4, q: Point4) -> int:
    return p[0] * q[3] + q[0] * p[3] - p[1] * q[2] - q[1] * p[2]


@dataclass(frozen=True)
class Line:
    p: Point4
    q: Point4

    @cached_property
    def plucker(self) -> tuple[int, int, int, int, int, int]:
        """The 2x2 minors p_i q_j - p_j q_i for ij = 01, 02, 03, 12, 13, 23."""
        p, q = self.p, self.q
        return tuple(p[i] * q[j] - p[j] * q[i]
                     for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))


@dataclass(frozen=True)
class MarkedPoint:
    point: Point4
    u: Proj1
    v: Proj1


def lines_disjoint(l1: Line, l2: Line) -> bool:
    """Two lines meet iff their Plucker pairing, det(p1, q1, p2, q2) by the
    Laplace expansion along the first two rows, vanishes."""
    a, b = l1.plucker, l2.plucker
    return (a[0] * b[5] - a[1] * b[4] + a[2] * b[3]
            + a[3] * b[2] - a[4] * b[1] + a[5] * b[0]) != 0


def lines_pairwise_disjoint(lines: tuple[Line, ...]) -> bool:
    return all(lines_disjoint(a, b) for i, a in enumerate(lines) for b in lines[i + 1:])


def point_on_line(x: Point4, line: Line) -> bool:
    """x lies on the line iff x, p and q span at most a plane: every 3x3
    minor of the rows (p, q, x) vanishes, each by the Laplace expansion
    along x."""
    pl = dict(zip(((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)), line.plucker))
    return all(x[i] * pl[j, l] - x[j] * pl[i, l] + x[l] * pl[i, j] == 0
               for i, j, l in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))


def line_inside_quadric(line: Line) -> bool:
    return (quadric_value(line.p) == 0 and quadric_value(line.q) == 0
            and quadric_bilinear(line.p, line.q) == 0)


def ruling_line(u: Proj1) -> Line:
    return Line(quadric_point(u, (1, 0)), quadric_point(u, (0, 1)))


@dataclass(frozen=True)
class GeometryConfig:
    curve: str                       # "lines" or "conics"
    components: int
    lines: tuple[Line, ...]          # every irreducible component
    serre_shift: Optional[tuple[int, int]] = None
    marked: tuple[MarkedPoint, ...] = ()
    ruling_count: int = 0            # for conics: how many leading lines are ruling halves

    def __post_init__(self) -> None:
        # hashed once: the oracle's caches look configurations up by the hash
        object.__setattr__(self, "_hash", hash((
            self.curve, self.components, self.lines, self.serre_shift, self.marked,
            self.ruling_count)))

    def __hash__(self) -> int:
        return self._hash


def config_hash(cfg: GeometryConfig) -> str:
    payload = {
        "curve": cfg.curve,
        "components": cfg.components,
        "lines": [[list(l.p), list(l.q)] for l in cfg.lines],
        "marked": [[list(mp.point), list(mp.u), list(mp.v)] for mp in cfg.marked],
        "serre_shift": list(cfg.serre_shift) if cfg.serre_shift else None,
    }
    return content_hash(payload)


def ruling_part(cfg: GeometryConfig) -> GeometryConfig:
    if cfg.curve != "conics":
        raise ValueError("ruling_part is a view on conic configurations")
    k = cfg.ruling_count
    return GeometryConfig("lines", k, cfg.lines[:k])


def partner_part(cfg: GeometryConfig) -> GeometryConfig:
    if cfg.curve != "conics":
        raise ValueError("partner_part is a view on conic configurations")
    k = cfg.ruling_count
    return GeometryConfig("lines", k, cfg.lines[k:], marked=cfg.marked)


def join_configs(first: GeometryConfig, second: GeometryConfig) -> GeometryConfig:
    """Disjoint union of two line configurations (certified, not assumed)."""
    if first.curve != "lines" or second.curve != "lines":
        raise ValueError("join is defined for line configurations")
    for la in first.lines:
        for lb in second.lines:
            if not lines_disjoint(la, lb):
                raise SamplingFailed("joined configurations share a point")
    return GeometryConfig("lines", first.components + second.components,
                          first.lines + second.lines,
                          serre_shift=first.serre_shift,
                          ruling_count=first.ruling_count)


def _draw_distinct(rng, pool, count, forbidden=()):
    choices = [x for x in pool if x not in forbidden]
    if count > len(choices):
        # only draws the pool cannot serve widen it, so every other sample stays put
        r = (count + len(forbidden)) // 2 + 1
        choices = [x for x in range(-r, r + 1) if x not in forbidden]
    return rng.sample(choices, count)


def sample_ruling(m: int, seed: int) -> GeometryConfig:
    """m+1 disjoint lines of the first ruling."""
    if m < 0:
        raise ValueError("need m >= 0")
    rng = child_rng(seed, f"ruling:{m}")
    for _ in range(RETRY_BUDGET):
        us = _draw_distinct(rng, COORD_POOL, m + 1)
        lines = tuple(ruling_line((u, 1)) for u in sorted(us))
        if lines_pairwise_disjoint(lines):
            return GeometryConfig("lines", m + 1, lines, serre_shift=(-1, 1))
    raise SamplingFailed("ruling configuration")


def sample_conics(m: int, seed: int) -> GeometryConfig:
    """m+1 disjoint nodal conics; marked points are the partner lines' second
    quadric intersections, with pairwise distinct first-ruling coordinates."""
    if m < 0:
        raise ValueError("need m >= 0")
    rng = child_rng(seed, f"conics:{m}")
    k = m + 1
    for _ in range(RETRY_BUDGET):
        coords = _draw_distinct(rng, COORD_POOL, 2 * k)
        ruling_us, partner_us = coords[:k], coords[k:]
        node_vs = [rng.choice(COORD_POOL) for _ in range(k)]
        z_vs = [rng.choice([x for x in COORD_POOL if x != v]) for v in node_vs]
        ruling = [ruling_line((u, 1)) for u in ruling_us]
        marks = [MarkedPoint(quadric_point((u, 1), (v, 1)), (u, 1), (v, 1))
                 for u, v in zip(partner_us, z_vs)]
        partners = [Line(quadric_point((u, 1), (v, 1)), mark.point)
                    for u, v, mark in zip(ruling_us, node_vs, marks)]
        if any(line_inside_quadric(partner) for partner in partners):
            continue
        if not all(lines_disjoint(partner, other) for i, partner in enumerate(partners)
                   for other in ruling[:i] + ruling[i + 1:] + partners[i + 1:]):
            continue
        order = sorted(range(k), key=lambda i: ruling_us[i])
        lines = tuple(ruling[i] for i in order) + tuple(partners[i] for i in order)
        marked = tuple(marks[i] for i in order)
        return GeometryConfig("conics", k, lines, serre_shift=(-2, 1),
                              marked=marked, ruling_count=k)
    raise SamplingFailed("conic configuration")


def sample_modification(d: int, seed: int,
                        avoid: Optional[GeometryConfig] = None) -> GeometryConfig:
    """d lines secant to the quadric; marked points are their 2d quadric
    intersections, with pairwise distinct second-ruling coordinates.

    Lines are accepted one at a time: a whole-batch retry loop has a
    vanishing success rate once `avoid` occupies much of the coordinate
    pool, since a secant meets a ruling line exactly when they share a
    first-ruling coordinate."""
    if d < 1:
        raise ValueError("need d >= 1")
    rng = child_rng(seed, f"modification:{d}")
    avoid_lines = avoid.lines if avoid is not None else ()
    # first-ruling values of the ruling lines to avoid.  A pool draw of the
    # secant's ua, ub is clear of them with chance free*(free-1)/(19*18); when
    # the budget's pool draws cannot expect one such draw, or have all been
    # refused, ua, ub are drawn clear of them (the window widens as needed),
    # so only a meeting with a line not of the first ruling can refuse a draw
    blocked = {l.p[0] for l in avoid_lines if l == ruling_line((l.p[0], 1))}
    free = sum(u not in blocked for u in COORD_POOL)
    pool_draws = 0
    if free * (free - 1) * RETRY_BUDGET >= len(COORD_POOL) * (len(COORD_POOL) - 1):
        pool_draws = RETRY_BUDGET
    lines: list[Line] = []
    marks: list[MarkedPoint] = []
    used_vs: set[int] = set()
    for _ in range(d):
        for draw in range(pool_draws + RETRY_BUDGET):
            va, vb = _draw_distinct(rng, COORD_POOL, 2, forbidden=used_vs)
            if draw >= pool_draws:
                ua, ub = _draw_distinct(rng, COORD_POOL, 2, forbidden=blocked)
            else:
                ua = rng.choice(COORD_POOL)
                ub = rng.choice([x for x in COORD_POOL if x != ua])
            pa = quadric_point((ua, 1), (va, 1))
            pb = quadric_point((ub, 1), (vb, 1))
            line = Line(pa, pb)
            if line_inside_quadric(line):
                continue
            if not all(lines_disjoint(line, other)
                       for other in (*lines, *avoid_lines)):
                continue
            lines.append(line)
            marks.append(MarkedPoint(pa, (ua, 1), (va, 1)))
            marks.append(MarkedPoint(pb, (ub, 1), (vb, 1)))
            used_vs.update((va, vb))
            break
        else:
            raise SamplingFailed("modification configuration")
    return GeometryConfig("lines", d, tuple(lines), marked=tuple(marks))
