"""Exact integer linear algebra for evaluation/restriction matrices.

A single-prime modular elimination (fast, vectorized) gives a certified
*lower* bound on the rational rank, so an *upper* bound on the nullity.
Callers combine it with a lower bound on the nullity from the other side,
their own and the one the row count gives, to certify answers without ever
trusting the prime alone.  Where the two do not meet, fraction-free Bareiss
elimination on the exact integer rows decides: it is the one exact path.

Restriction matrices have one column per monomial, in one of two bases.  In
P^3 they are the C(k+3, 3) degree-k monomials in lex order.  On the smooth
quadric S: Q = x0*x3 - x1*x2 = 0 they are the (k+1)^2 monomials not
divisible by x0*x3, which restrict to a basis of H^0(O_S(k)): rewriting
x0*x3 as x1*x2 modulo Q lowers the degree in x0, so they span, and there
are C(k+3, 3) - C(k+1, 3) = h^0(O_S(k)) of them.  A line inside S, or a
point of S, needs only those columns.  They are ordered by the monomial's degree in x1, x3 (the
t-degree of its restriction to a line of the first ruling,
s*(u0, 0, u1, 0) + t*(0, u0, 0, u1)), then by its degree in x2, x3, so a
ruling line's row t^j is nonzero only in the j-th run of k+1 columns and
the elimination's pivot rows stay short.

Line-restriction rows are built mod p directly, as int64 residues, by a
degree recursion; the same recursion over Python ints gives the exact rows,
which only Bareiss reads.  Only the blocks of lines on S are cached, per
(line, k): ruling lines recur across configurations, and their blocks are
narrow.  The rows of the lines off S, secant and partner lines that rarely
recur, are built per matrix, all of them in one recursion, and not kept.
Point and bidegree evaluation matrices are built the same way: residues
from powers taken modulo the prime, exact rows only for Bareiss.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache
from math import prod

import numpy as np

from p3bundles.oracle.configs import Line

PRIME = 2_147_483_647  # 2^31 - 1; squares stay inside int64

Exponents = tuple[int, int, int, int]
ExactRows = Callable[[], list[tuple[int, ...]]]  # builds a matrix's integer rows


@lru_cache(maxsize=None)
def _monomials(d: int, on_quadric: bool) -> tuple[Exponents, ...]:
    """The degree-d monomials in 4 variables in lex order (none for d < 0);
    ``on_quadric``, only those not divisible by x0*x3, by degree in (x1, x3),
    then in (x2, x3).  Either set is closed under dividing by a variable."""
    lex = tuple((e0, e1, e2, d - e0 - e1 - e2) for e0 in range(d, -1, -1)
                for e1 in range(d - e0, -1, -1) for e2 in range(d - e0 - e1, -1, -1))
    if not on_quadric:
        return lex
    return tuple(sorted((e for e in lex if not (e[0] and e[3])),
                        key=lambda e: (e[1] + e[3], e[2] + e[3])))


def monomial_exponents(k: int) -> list[Exponents]:
    """Degree-k monomials in 4 variables, deterministic (lex) order."""
    return list(_monomials(k, False))


def quadric_exponents(k: int) -> list[Exponents]:
    """The (k+1)^2 degree-k monomials not divisible by x0*x3, in the order
    of the columns of a line on S."""
    return list(_monomials(k, True))


@lru_cache(maxsize=None)
def _degree_step(d: int, on_quadric: bool) -> tuple[np.ndarray, np.ndarray]:
    """For the degree-d step of ``_restriction_block``: per degree-d monomial
    x^e, the column of x^e / x_i among the degree-(d-1) monomials, with i
    the first variable with e_i > 0, and that i."""
    index = {e: j for j, e in enumerate(_monomials(d - 1, on_quadric))}
    cols, var = [], []
    for e in _monomials(d, on_quadric):
        i = next(i for i, n in enumerate(e) if n)
        cols.append(index[(*e[:i], e[i] - 1, *e[i + 1:])])
        var.append(i)
    return np.array(cols), np.array(var)


def _restriction_block(lines: tuple[Line, ...], k: int, modulus: int | None,
                       on_quadric: bool = False) -> np.ndarray:
    """Coefficients of each degree-k monomial of ``_monomials(k, on_quadric)``
    restricted to each line s*p + t*q, in the basis s^k, s^{k-1} t, ..., t^k:
    a (k+1)-row block per line, with one column per monomial in that order,
    the blocks stacked in the order of ``lines``; no rows for k < 0 or no
    lines.

    Built degree by degree from x^e|_L = (p_i s + q_i t) * (x^e / x_i)|_L, with
    i the first variable with e_i > 0: one step gathers the degree-(d-1)
    columns, scales them by p_i and q_i and shifts the q part one row down,
    for every line at once.  With a modulus the entries are int64 residues,
    reduced after every step (products of two residues below 2^31 stay
    inside int64); without one they are exact Python ints in an object
    array.
    """
    dtype = object if modulus is None else np.int64
    if k < 0 or not lines:
        return np.zeros((0, 0), dtype)
    if modulus is None:
        p, q = [line.p for line in lines], [line.q for line in lines]
    else:
        p = [[x % modulus for x in line.p] for line in lines]
        q = [[x % modulus for x in line.q] for line in lines]
    p, q = np.array(p, dtype).reshape(-1, 1, 4), np.array(q, dtype).reshape(-1, 1, 4)
    block = np.ones((len(lines), 1, 1), dtype)
    for d in range(1, k + 1):
        cols, var = _degree_step(d, on_quadric)
        tails = block.take(cols, axis=2)
        block = np.zeros((len(lines), d + 1, len(cols)), dtype)
        block[:, :-1] = tails * p.take(var, axis=2)
        block[:, 1:] += tails * q.take(var, axis=2)
        if modulus is not None:
            block %= modulus
    return block.reshape(-1, block.shape[2])


@lru_cache(maxsize=4096)
def line_restriction_block(line: Line, k: int) -> np.ndarray:
    """The (k+1)^2 quadric columns of a line on S, reduced mod PRIME, as a
    read-only int64 array.

    Reduction mod PRIME is a ring map, so this is the exact block reduced
    cell by cell.  Only lines on S are asked for: their narrow blocks recur
    across configurations, and one repetition of the largest benchmark
    workload asks for about 130 distinct (line, k) of them and hits the rest
    of its calls, so the bound does not evict within a run.
    """
    block = _restriction_block((line,), k, PRIME, on_quadric=True)
    block.flags.writeable = False
    return block


def exact_restriction_rows(lines: tuple[Line, ...], k: int,
                           on_quadric: bool = False) -> list[tuple[int, ...]]:
    """The rows of ``_restriction_block`` over the integers, in the monomials
    of P^3 or, ``on_quadric``, in the (k+1)^2 quadric columns of
    ``line_restriction_block`` before reduction; for the exact fallback
    only, not cached."""
    return [tuple(row) for row in _restriction_block(lines, k, None, on_quadric).tolist()]


def restriction_matrix(lines: tuple[Line, ...], k: int) -> tuple[list[np.ndarray], ExactRows]:
    """The restriction matrix of ``lines`` in the C(k+3, 3) monomials of
    P^3: the int64 rows mod PRIME, all lines in one recursion, and a
    callable that builds the exact integer rows, for Bareiss only."""
    return (list(_restriction_block(lines, k, PRIME)),
            lambda: exact_restriction_rows(lines, k))


def bidegree_exponents(p: int, q: int) -> list[Exponents]:
    """The (p, q) monomial basis u0^{p-i} u1^i v0^{q-j} v1^j of P^1 x P^1, as
    exponents of (u0, u1, v0, v1), i before j."""
    return [(p - i, i, q - j, j) for i in range(p + 1) for j in range(q + 1)]


def _evaluation_residues(points: list[tuple[int, ...]], exponents: np.ndarray) -> np.ndarray:
    """Each monomial, a row of ``exponents``, evaluated at each of the
    4-coordinate ``points`` mod PRIME as int64: each coordinate's powers taken
    mod PRIME one product at a time, then multiplied across the coordinates,
    every product of two residues reduced."""
    base = np.array([[x % PRIME for x in point] for point in points],
                    dtype=np.int64).reshape(-1, 4)
    powers = np.ones((int(exponents.max()) + 1, *base.shape), dtype=np.int64)
    for e in range(1, len(powers)):
        powers[e] = powers[e - 1] * base % PRIME
    out = np.ones((len(base), len(exponents)), dtype=np.int64)
    for i in range(4):
        out = out * powers[exponents[:, i], :, i].T % PRIME
    return out


def evaluation_matrix(points: list[tuple[int, ...]],
                      exponents: list[Exponents]) -> tuple[list[np.ndarray], ExactRows]:
    """The monomials of ``exponents`` evaluated at ``points``, one row per
    point: the int64 rows mod PRIME by ``_evaluation_residues``, and a
    callable that builds the exact integer rows, for Bareiss only."""
    if not points:
        return [], lambda: []
    residues = _evaluation_residues(points, np.array(exponents, dtype=np.intp).reshape(-1, 4))
    return list(residues), lambda: [tuple(prod(x ** n for x, n in zip(point, e))
                                          for e in exponents) for point in points]


def _eliminate(m: np.ndarray, pivot: np.ndarray, rows: np.ndarray, col: int, end: int) -> None:
    """Subtract from each of ``rows`` (indices in increasing order) its entry
    in column ``col`` times ``pivot``, the pivot row's columns col..end-1,
    mod PRIME; through a view when the rows are consecutive."""
    consecutive = rows[-1] - rows[0] + 1 == len(rows)
    block = m[rows[0]:rows[-1] + 1, col:end] if consecutive else m[rows, col:end]
    block -= block[:, :1] * pivot
    block %= PRIME
    if not consecutive:
        m[rows, col:end] = block


def _row_reduce_mod_p(m: np.ndarray) -> list[int]:
    """Row-reduce the int64 residues ``m`` in place over F_PRIME to row
    echelon form; the pivot columns, in order.  Each pivot row is scaled to a
    leading 1 and its column cleared below it.

    From the current row down, every column left of the pivot column is
    already zero, and the pivot row is zero past its last nonzero, so the
    swap, the scaling and the update touch only the columns from the pivot
    to that last nonzero: the result is byte for byte that of whole-row
    operations on reduced residues, at the cost of the pivot row's span.
    The rows to clear are the nonzeros the pivot search found below the
    pivot; the swap only moved a zero among them."""
    n_rows, n_cols = m.shape
    pivots: list[int] = []
    for col in range(n_cols):
        row = len(pivots)
        if row >= n_rows:
            break
        below = m[row:, col].nonzero()[0]
        if below.size == 0:
            continue
        if below[0]:
            pivot_row = row + int(below[0])
            m[[row, pivot_row], col:] = m[[pivot_row, row], col:]
        end = col + 1 + int(m[row, col:].nonzero()[0][-1])
        pivot = m[row, col:end]
        pivot *= pow(int(pivot[0]), -1, PRIME)
        pivot %= PRIME
        if below.size > 1:
            _eliminate(m, pivot, below[1:] + row, col, end)
        pivots.append(col)
    return pivots


def rank_mod_p(rows: list[np.ndarray]) -> int:
    """Rank over F_PRIME of int64 residue rows, such as the rows of
    ``line_restriction_block`` (0 for no rows): stacked into a fresh int64
    matrix, then row-reduced."""
    if not rows:
        return 0
    return len(_row_reduce_mod_p(np.vstack(rows) % PRIME))


def rank_exact(rows: list) -> int:
    """Rank over Q of an integer matrix, given by its exact integer rows (0
    for no rows), by fraction-free Gaussian elimination on Python ints
    (Bareiss, 1968).  After each step every entry is a minor of the row
    permuted matrix, so the division by the previous pivot is exact."""
    if not rows or len(rows[0]) == 0:
        return 0
    m = np.array([[int(x) for x in row] for row in rows], dtype=object)
    n_rows, n_cols = m.shape
    rank, prev = 0, 1
    for col in range(n_cols):
        if rank == n_rows:
            break
        nonzero = np.nonzero(m[rank:, col])[0]
        if nonzero.size == 0:
            continue
        pivot_row = rank + int(nonzero[0])
        if pivot_row != rank:
            m[[rank, pivot_row]] = m[[pivot_row, rank]]
        pv = m[rank, col]
        below = m[rank + 1:, col:]
        m[rank + 1:, col:] = (pv * below - below[:, :1] * m[rank, col:]) // prev
        prev = pv
        rank += 1
    return rank


def nullity_certified(rows: list[np.ndarray], n_cols: int, lower_bound: int,
                      exact: ExactRows) -> int:
    """Exact kernel dimension of an integer matrix with n_cols columns,
    given by its int64 residue ``rows`` and ``exact``, which builds its
    integer rows.

    The modular rank bounds the rational rank from below, so
    n_cols - rank_p bounds the nullity from above.  The caller's lower bound,
    which must be valid, and n_cols minus the row count bound it from below;
    where the two sides meet the answer is certified, and where they do not,
    ``rank_exact`` decides on the rows ``exact`` builds, called only then.
    """
    if not rows:
        return n_cols
    upper = n_cols - rank_mod_p(rows)
    lower = max(0, lower_bound, n_cols - len(rows))
    if upper < lower:
        raise AssertionError(
            f"caller lower bound {lower} exceeds certified upper bound {upper}")
    if upper == lower:
        return upper
    return n_cols - rank_exact(exact())


def full_row_rank(rows: list[np.ndarray], exact: ExactRows) -> bool:
    """Do the rows have full rank?  Arguments as in ``nullity_certified``."""
    if not rows:
        return True
    if len(rows) > len(rows[0]):
        return False
    return rank_mod_p(rows) == len(rows) or rank_exact(exact()) == len(rows)
