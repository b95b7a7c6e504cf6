"""Exact integer linear algebra for evaluation/restriction matrices.

Ranks are computed twice over: a single-prime modular elimination (fast,
vectorized) gives a certified *lower* bound on the rational rank, and a
fraction-based elimination is the exact fallback.  Callers combine the
modular bound with an a-priori bound from the other side to certify answers
without ever trusting the prime alone.

Line-restriction blocks are built mod p directly, as int64 residues, by a
degree recursion; the same recursion over Python ints gives the exact rows,
which are built only when the modular certificate does not close.  Point
and bidegree evaluation rows are small and stay exact int tuples.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from p3bundles.oracle.configs import Line, Point4, Proj1

PRIME = 2_147_483_647  # 2^31 - 1; squares stay inside int64


def monomial_exponents(k: int) -> list[tuple[int, int, int, int]]:
    """Degree-k monomials in 4 variables, deterministic (lex) order."""
    if k < 0:
        return []
    out = []
    for e0 in range(k, -1, -1):
        for e1 in range(k - e0, -1, -1):
            for e2 in range(k - e0 - e1, -1, -1):
                out.append((e0, e1, e2, k - e0 - e1 - e2))
    return out


def _restriction_block(line: Line, k: int, modulus: int | None) -> np.ndarray:
    """Coefficients of each degree-k monomial restricted to the line s*p + t*q,
    in the basis s^k, s^{k-1} t, ..., t^k: a (k+1) x C(k+3, 3) array with one
    row per basis form on the line and one column per ambient monomial.

    Built degree by degree from x^e|_L = (p_i s + q_i t) * (x^e / x_i)|_L, with
    i the first variable with e_i > 0.  In the lex order of
    ``monomial_exponents`` the degree-d monomials with first variable i are
    x_i times the last C(d+2-i, 3-i) monomials of degree d-1, in order, so one
    step gathers those column tails, scales them by p_i and q_i and shifts the
    q part one row down.  With a modulus the entries are int64 residues,
    reduced after every step (products of two residues below 2^31 stay inside
    int64); without one they are exact Python ints in an object array.
    """
    if modulus is None:
        dtype, p, q = object, line.p, line.q
    else:
        dtype = np.int64
        p, q = ([x % modulus for x in v] for v in (line.p, line.q))
    p, q = np.array(p, dtype), np.array(q, dtype)
    block = np.ones((1, 1), dtype)
    for d in range(1, k + 1):
        counts = [comb(d + 2 - i, 3 - i) for i in range(4)]
        width = block.shape[1]
        tails = np.concatenate([block[:, width - n:] for n in counts], axis=1)
        block = np.zeros((d + 1, tails.shape[1]), dtype)
        block[:-1] = tails * np.repeat(p, counts)
        block[1:] += tails * np.repeat(q, counts)
        if modulus is not None:
            block %= modulus
    return block


@lru_cache(maxsize=4096)
def line_restriction_block(line: Line, k: int) -> np.ndarray:
    """The restriction block of ``_restriction_block`` reduced mod PRIME, as a
    read-only int64 array.

    Reduction mod PRIME is a ring map, so this is the exact block reduced
    cell by cell.  One repetition of the largest benchmark workload asks for
    under 1,700 distinct (line, k), so the bound does not evict within a run.
    """
    block = _restriction_block(line, k, PRIME)
    block.flags.writeable = False
    return block


def exact_restriction_rows(lines: tuple[Line, ...], k: int) -> list[tuple[int, ...]]:
    """The stacked restriction blocks of ``lines`` over the integers, for the
    exact fallback only; not cached."""
    return [tuple(row) for line in lines
            for row in _restriction_block(line, k, None).tolist()]


def point_evaluation_row(point: Point4, k: int) -> tuple[int, ...]:
    row = []
    for expo in monomial_exponents(k):
        val = 1
        for i in range(4):
            val *= point[i] ** expo[i]
        row.append(val)
    return tuple(row)


def bidegree_evaluation_row(u: Proj1, v: Proj1, p: int, q: int) -> tuple[int, ...]:
    """Evaluate the (p, q) monomial basis u0^{p-i} u1^i v0^{q-j} v1^j at a
    point of P^1 x P^1."""
    row = []
    for i in range(p + 1):
        for j in range(q + 1):
            row.append(u[0] ** (p - i) * u[1] ** i * v[0] ** (q - j) * v[1] ** j)
    return tuple(row)


def rank_mod_p(rows: list) -> int:
    """Rank over F_PRIME of a list of rows (0 for no rows).

    A row is an int64 array, such as a row of ``line_restriction_block``,
    stacked and reduced in one vectorised pass, or a tuple of Python ints of
    any size and sign, reduced cell by cell.
    """
    if not rows or len(rows[0]) == 0:
        return 0
    if isinstance(rows[0], np.ndarray):
        m = np.vstack(rows) % PRIME
    else:
        m = np.array([[x % PRIME for x in row] for row in rows], dtype=np.int64)
    n_rows, n_cols = m.shape
    rank = 0
    row = 0
    for col in range(n_cols):
        if row >= n_rows:
            break
        pivots = np.nonzero(m[row:, col])[0]
        if pivots.size == 0:
            continue
        pivot_row = row + int(pivots[0])
        if pivot_row != row:
            m[[row, pivot_row]] = m[[pivot_row, row]]
        inv = pow(int(m[row, col]), PRIME - 2, PRIME)
        m[row] = (m[row] * inv) % PRIME
        mask = np.nonzero(m[row + 1:, col])[0]
        if mask.size:
            factors = m[row + 1 + mask, col][:, None]
            m[row + 1 + mask] = (m[row + 1 + mask] - factors * m[row][None, :]) % PRIME
        rank += 1
        row += 1
    return rank


def rank_exact(rows: list[tuple[int, ...]]) -> int:
    if not rows or not rows[0]:
        return 0
    m = [[Fraction(x) for x in row] for row in rows]
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(n_cols):
        if row >= n_rows:
            break
        pivot = next((r for r in range(row, n_rows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        pv = m[row][col]
        m[row] = [x / pv for x in m[row]]
        for r in range(row + 1, n_rows):
            f = m[r][col]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        rank += 1
        row += 1
    return rank


ExactRows = Callable[[], list[tuple[int, ...]]]


def nullity_certified(rows: list, n_cols: int, lower_bound: int = 0,
                      exact_rows: ExactRows | None = None) -> int:
    """Exact kernel dimension of an integer matrix with n_cols columns.

    The modular rank bounds the rational rank from below, so
    n_cols - rank_p bounds the nullity from above; when that pinches against
    a caller-supplied valid lower bound the answer is certified without
    exact elimination.  ``rows`` may be int64 residue rows, in which case
    ``exact_rows`` builds the same matrix over the integers; it is called
    only when the certificate does not close.  Without it ``rows`` must be
    exact int tuples.
    """
    if n_cols == 0:
        return 0
    if not rows:
        return n_cols
    upper = n_cols - rank_mod_p(rows)
    lower = max(0, lower_bound)
    if upper < lower:
        raise AssertionError(
            f"caller lower bound {lower} exceeds certified upper bound {upper}")
    if upper == lower:
        return upper
    return n_cols - rank_exact(exact_rows() if exact_rows else rows)


def full_row_rank(rows: list, exact_rows: ExactRows | None = None) -> bool:
    """Do the rows have full rank?  ``exact_rows`` as in ``nullity_certified``."""
    if not rows:
        return True
    if len(rows) > len(rows[0]):
        return False
    if rank_mod_p(rows) == len(rows):
        return True
    return rank_exact(exact_rows() if exact_rows else rows) == len(rows)
