"""Exact integer linear algebra for evaluation/restriction matrices.

A single-prime modular elimination (fast, vectorized) gives a certified
*lower* bound on the rational rank.  Callers combine it with an a-priori
bound from the other side to certify answers without ever trusting the
prime alone.  Where the two do not meet, ``rank_exact`` decides.  The
reduced echelon form mod p gives a kernel witness; the integer matrix kills
it exactly if it does so modulo enough primes q < 2^20, each product taken
as an exact float64 matrix product of residues.  That bounds the rank from
above.  Fraction-free Bareiss elimination on Python ints is the last resort.

Line-restriction blocks are built mod p directly, as int64 residues, by a
degree recursion; the witness's residues mod q come from the same
recursion, and the recursion over Python ints gives the exact rows, which
only Bareiss reads.  Point and bidegree evaluation rows are small and stay
exact int tuples.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache
from math import comb
from typing import NamedTuple

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


@lru_cache(maxsize=None)
def _degree_step(d: int) -> tuple[np.ndarray, np.ndarray]:
    """For the degree-d step of ``_restriction_block``: the degree-(d-1)
    columns gathered, in order, and the variable x_i each one is scaled by."""
    counts = [comb(d + 2 - i, 3 - i) for i in range(4)]
    width = comb(d + 2, 3)
    return (np.concatenate([np.arange(width - n, width) for n in counts]),
            np.repeat(np.arange(4), counts))


def _restriction_block(lines: tuple[Line, ...], k: int, modulus: int | None) -> np.ndarray:
    """Coefficients of each degree-k monomial restricted to each line s*p + t*q,
    in the basis s^k, s^{k-1} t, ..., t^k: a (k+1) x C(k+3, 3) block per line,
    with one row per basis form on the line and one column per ambient
    monomial, the blocks stacked in the order of ``lines``.

    Built degree by degree from x^e|_L = (p_i s + q_i t) * (x^e / x_i)|_L, with
    i the first variable with e_i > 0.  In the lex order of
    ``monomial_exponents`` the degree-d monomials with first variable i are
    x_i times the last C(d+2-i, 3-i) monomials of degree d-1, in order, so one
    step gathers those column tails, scales them by p_i and q_i and shifts the
    q part one row down, for every line at once.  With a modulus the entries
    are int64 residues, reduced after every step (products of two residues
    below 2^31 stay inside int64); without one they are exact Python ints in
    an object array.
    """
    if modulus is None:
        dtype, p, q = object, [line.p for line in lines], [line.q for line in lines]
    else:
        dtype = np.int64
        p = [[x % modulus for x in line.p] for line in lines]
        q = [[x % modulus for x in line.q] for line in lines]
    p, q = np.array(p, dtype).reshape(-1, 1, 4), np.array(q, dtype).reshape(-1, 1, 4)
    block = np.ones((len(lines), 1, 1), dtype)
    for d in range(1, k + 1):
        cols, var = _degree_step(d)
        tails = block.take(cols, axis=2)
        block = np.zeros((len(lines), d + 1, len(cols)), dtype)
        block[:, :-1] = tails * p.take(var, axis=2)
        block[:, 1:] += tails * q.take(var, axis=2)
        if modulus is not None:
            block %= modulus
    return block.reshape(-1, block.shape[2])


@lru_cache(maxsize=4096)
def line_restriction_block(line: Line, k: int) -> np.ndarray:
    """The restriction block of ``_restriction_block`` reduced mod PRIME, as a
    read-only int64 array.

    Reduction mod PRIME is a ring map, so this is the exact block reduced
    cell by cell.  One repetition of the largest benchmark workload asks for
    under 1,700 distinct (line, k), so the bound does not evict within a run.
    """
    block = _restriction_block((line,), k, PRIME)
    block.flags.writeable = False
    return block


def exact_restriction_rows(lines: tuple[Line, ...], k: int) -> list[tuple[int, ...]]:
    """The stacked restriction blocks of ``lines`` over the integers, for the
    exact fallback only; not cached."""
    return [tuple(row) for row in _restriction_block(lines, k, None).tolist()]


# the kernel witness's primes: the 32 largest below 2^20, descending; their
# product is about 2^640
WITNESS_PRIMES = (
    1_048_573, 1_048_571, 1_048_559, 1_048_549, 1_048_517, 1_048_507, 1_048_447, 1_048_433,
    1_048_423, 1_048_391, 1_048_387, 1_048_367, 1_048_361, 1_048_357, 1_048_343, 1_048_309,
    1_048_291, 1_048_273, 1_048_261, 1_048_219, 1_048_217, 1_048_213, 1_048_193, 1_048_189,
    1_048_139, 1_048_129, 1_048_127, 1_048_123, 1_048_063, 1_048_051, 1_048_049, 1_048_043,
)


class IntegerMatrix(NamedTuple):
    """What ``rank_exact`` needs of an integer matrix beyond its modular
    echelon form: a bound on the absolute value of its entries, its residues
    mod a small prime q as an int64 array, and, for Bareiss only, its rows
    over the integers."""
    bound: int
    residues: Callable[[int], np.ndarray]
    rows: Callable[[], list[tuple[int, ...]]]

    @classmethod
    def of_rows(cls, rows: list[tuple[int, ...]]) -> IntegerMatrix:
        return cls(max((abs(x) for row in rows for x in row), default=0),
                   lambda q: np.array([[x % q for x in row] for row in rows], dtype=np.int64),
                   lambda: rows)


def restriction_matrix(lines: tuple[Line, ...], k: int) -> IntegerMatrix:
    """The stacked restriction blocks of ``lines`` as an ``IntegerMatrix``:
    residues from the recursion mod q, exact rows only when asked for.  Every
    coefficient of a product of linear forms is at most the product of their
    coefficient sums, so max_i (|p_i| + |q_i|)^k bounds a line's block."""
    bound = max((max(abs(a) + abs(b) for a, b in zip(line.p, line.q)) ** k
                 for line in lines), default=0)
    return IntegerMatrix(bound,
                         lambda q: _restriction_block(lines, k, q),
                         lambda: exact_restriction_rows(lines, k))


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


def _row_reduce_mod_p(m: np.ndarray) -> list[int]:
    """Row-reduce the int64 residues ``m`` in place over F_PRIME to row
    echelon form; the pivot columns, in order.  Each pivot row is scaled to a
    leading 1 and its column cleared below it."""
    n_rows, n_cols = m.shape
    pivots: list[int] = []
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
        inv = pow(int(m[row, col]), -1, PRIME)
        m[row] = (m[row] * inv) % PRIME
        hit = np.nonzero(m[row + 1:, col])[0]
        if hit.size:
            hit += row + 1
            m[hit] = (m[hit] - m[hit, col][:, None] * m[row]) % PRIME
        pivots.append(col)
    return pivots


def _back_substitute(m: np.ndarray, pivots: list[int]) -> None:
    """Clear each pivot column above its pivot, last pivot first, which turns
    the row echelon form of ``_row_reduce_mod_p`` into the reduced one."""
    for row in range(len(pivots) - 1, 0, -1):
        col = pivots[row]
        hit = np.nonzero(m[:row, col])[0]
        if hit.size:
            m[hit] = (m[hit] - m[hit, col][:, None] * m[row]) % PRIME


Echelon = tuple[np.ndarray, list[int]]  # a matrix in row echelon form mod PRIME, its pivots


def _echelon_mod_p(rows: list) -> Echelon:
    """The rows reduced mod PRIME into a fresh int64 matrix, int64 arrays in
    one vectorised pass and tuples of Python ints of any size and sign cell
    by cell, then row-reduced to echelon form."""
    if not rows:
        m = np.zeros((0, 0), dtype=np.int64)
    elif isinstance(rows[0], np.ndarray):
        m = np.vstack(rows) % PRIME
    else:
        m = np.array([[x % PRIME for x in row] for row in rows], dtype=np.int64)
    return m, _row_reduce_mod_p(m)


def rank_mod_p(rows: list, *, echelon: bool = False) -> int | Echelon:
    """Rank over F_PRIME of a list of rows (0 for no rows).

    A row is an int64 array, such as a row of ``line_restriction_block``, or
    a tuple of Python ints of any size and sign.  With ``echelon`` the result
    is the ``Echelon`` instead, whose pivot count is the rank, for
    ``rank_exact`` to finish.
    """
    reduced = _echelon_mod_p(rows)
    return reduced if echelon else len(reduced[1])


def rank_exact(rows: list, echelon: Echelon | None = None,
               exact: IntegerMatrix | None = None) -> int:
    """Rank over Q of an integer matrix (0 for no rows).

    ``rows`` are exact int tuples, or, when ``exact`` stands for the matrix,
    its int64 residues mod PRIME as for ``rank_mod_p``.  The rank r mod PRIME
    bounds the rational rank from below.  The reduced echelon form mod PRIME
    gives one kernel vector per free column: 1 there, minus that column of
    the echelon form at the pivot columns, each residue lifted to the
    symmetric range.  Those vectors are independent, so if the integer matrix
    kills them exactly its nullity is at least n_cols - r and its rank is r;
    ``_kills`` checks that modulo small primes.  When the lifted vectors are
    not a kernel, fraction-free elimination on the exact rows decides.

    ``echelon`` is the caller's ``rank_mod_p(..., echelon=True)`` of the same
    matrix; it is finished in place instead of eliminating the rows again.
    """
    if not rows or len(rows[0]) == 0:
        return 0
    m, pivots = echelon if echelon is not None else _echelon_mod_p(rows)
    rank = len(pivots)
    if rank == min(m.shape):  # rank_p is already the most the shape allows
        return rank
    _back_substitute(m, pivots)
    free = sorted(set(range(m.shape[1])) - set(pivots))
    kernel = np.zeros((m.shape[1], len(free)), dtype=np.int64)
    kernel[free, range(len(free))] = 1
    kernel[pivots] = -m[:rank, free] % PRIME
    kernel[kernel > PRIME // 2] -= PRIME
    matrix = exact if exact is not None else IntegerMatrix.of_rows(rows)
    return rank if _kills(matrix, kernel) else _rank_bareiss(matrix.rows())


def _kills(matrix: IntegerMatrix, kernel: np.ndarray) -> bool:
    """Is the integer product matrix @ kernel zero?

    Its entries are at most bound = max|M| * max|V| * n_cols in absolute
    value, computed in Python ints, so it is zero once it is zero modulo
    primes whose product exceeds 2 * bound.  Each product mod q is a float64
    matrix product of residues, exact while n_cols * (q - 1)^2 < 2^53.
    Where that guard fails or the fixed primes run out, the answer is no,
    which leaves the rank to Bareiss.
    """
    n_cols = kernel.shape[0]
    bound = matrix.bound * int(np.abs(kernel).max()) * n_cols
    modulus = 1
    for q in WITNESS_PRIMES:
        if modulus > 2 * bound:
            return True
        if n_cols * (q - 1) ** 2 >= 2 ** 53:
            return False
        product = matrix.residues(q).astype(np.float64) @ (kernel % q).astype(np.float64)
        if np.fmod(product, q).any():
            return False
        modulus *= q
    return modulus > 2 * bound


def _rank_bareiss(rows: list[tuple[int, ...]]) -> int:
    """Rank over Q by fraction-free Gaussian elimination on Python ints
    (Bareiss, 1968).  After each step every entry is a minor of the row
    permuted matrix, so the division by the previous pivot is exact."""
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


def nullity_certified(rows: list, n_cols: int, lower_bound: int = 0,
                      exact: IntegerMatrix | None = None) -> int:
    """Exact kernel dimension of an integer matrix with n_cols columns.

    The modular rank bounds the rational rank from below, so
    n_cols - rank_p bounds the nullity from above; when that pinches against
    a caller-supplied valid lower bound the answer is certified without
    exact elimination.  ``rows`` may be int64 residue rows, in which case
    ``exact`` is the same matrix over the integers; it is read only when the
    certificate does not close, and ``rank_exact`` finishes the modular
    echelon form already computed.  Without it ``rows`` must be exact int
    tuples.
    """
    if n_cols == 0:
        return 0
    if not rows:
        return n_cols
    echelon = rank_mod_p(rows, echelon=True)
    upper = n_cols - len(echelon[1])
    lower = max(0, lower_bound)
    if upper < lower:
        raise AssertionError(
            f"caller lower bound {lower} exceeds certified upper bound {upper}")
    if upper == lower:
        return upper
    return n_cols - rank_exact(rows, echelon, exact)


def full_row_rank(rows: list, exact: IntegerMatrix | None = None) -> bool:
    """Do the rows have full rank?  ``exact`` as in ``nullity_certified``."""
    if not rows:
        return True
    if len(rows) > len(rows[0]):
        return False
    echelon = rank_mod_p(rows, echelon=True)
    if len(echelon[1]) == len(rows):
        return True
    return rank_exact(rows, echelon, exact) == len(rows)
