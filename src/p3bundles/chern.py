"""Chern character arithmetic on P^3, truncated in degree <= 3.

A character is stored as ``(rank, ch1, ch2, ch3)`` with the graded pieces
taken against the hyperplane class, so multiplication and twisting are
polynomial operations with no geometry left in them.  All entries are exact
(`int` / `fractions.Fraction`); the Euler characteristic and the Chern
classes of anything built from the constructors here come out integral, and
the conversion helpers raise if that ever fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class ChernError(ValueError):
    """Base class for character arithmetic failures."""


class NonIntegerChi(ChernError):
    """Riemann-Roch returned a non-integer, so the input was not a sheaf character."""


class RankUnsupported(ChernError):
    """Operation only defined for a specific rank (sym^2 / wedge^2 need rank 2)."""


class NonIntegralClasses(ChernError):
    """Conversion ch -> (c1, c2, c3) produced non-integers."""


def _frac(x: int | Fraction) -> Fraction:
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise TypeError(f"exact rational expected, got {type(x).__name__}")


@dataclass(frozen=True)
class ChernCharacter:
    rank: int
    ch1: Fraction
    ch2: Fraction
    ch3: Fraction

    def __init__(self, rank: int, ch1: int | Fraction, ch2: int | Fraction, ch3: int | Fraction):
        object.__setattr__(self, "rank", int(rank))
        object.__setattr__(self, "ch1", _frac(ch1))
        object.__setattr__(self, "ch2", _frac(ch2))
        object.__setattr__(self, "ch3", _frac(ch3))

    # -- constructors ------------------------------------------------------

    @classmethod
    def of_line_bundle(cls, d: int) -> "ChernCharacter":
        """Character of O(d): exp(d*H) truncated after degree 3."""
        d = int(d)
        return cls(1, d, Fraction(d * d, 2), Fraction(d * d * d, 6))

    @classmethod
    def from_classes(cls, rank: int, c1: int, c2: int, c3: int) -> "ChernCharacter":
        """Build from Chern classes via Newton's identities (rank arbitrary).

        ch1 = c1, ch2 = (c1^2 - 2 c2)/2, ch3 = (c1^3 - 3 c1 c2 + 3 c3)/6.
        """
        c1, c2, c3 = int(c1), int(c2), int(c3)
        ch2 = Fraction(c1 * c1 - 2 * c2, 2)
        ch3 = Fraction(c1 ** 3 - 3 * c1 * c2 + 3 * c3, 6)
        return cls(int(rank), c1, ch2, ch3)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "ChernCharacter") -> "ChernCharacter":
        return ChernCharacter(
            self.rank + other.rank,
            self.ch1 + other.ch1,
            self.ch2 + other.ch2,
            self.ch3 + other.ch3,
        )

    def __mul__(self, other: "ChernCharacter") -> "ChernCharacter":
        a, b = self, other
        return ChernCharacter(
            a.rank * b.rank,
            a.rank * b.ch1 + b.rank * a.ch1,
            a.rank * b.ch2 + a.ch1 * b.ch1 + b.rank * a.ch2,
            a.rank * b.ch3 + a.ch1 * b.ch2 + a.ch2 * b.ch1 + b.rank * a.ch3,
        )

    def __sub__(self, other: "ChernCharacter") -> "ChernCharacter":
        return ChernCharacter(
            self.rank - other.rank,
            self.ch1 - other.ch1,
            self.ch2 - other.ch2,
            self.ch3 - other.ch3,
        )

    def twist(self, t: int) -> "ChernCharacter":
        """Tensor with O(t)."""
        return self * ChernCharacter.of_line_bundle(t)

    def dual(self) -> "ChernCharacter":
        return ChernCharacter(self.rank, -self.ch1, self.ch2, -self.ch3)

    # -- invariants --------------------------------------------------------

    def chi(self) -> int:
        """Euler characteristic on P^3: ch3 + 2 ch2 + (11/6) ch1 + rank."""
        val = self.ch3 + 2 * self.ch2 + Fraction(11, 6) * self.ch1 + self.rank
        if val.denominator != 1:
            raise NonIntegerChi(f"chi({self}) = {val} is not an integer")
        return int(val)

    def chern_classes(self) -> tuple[int, int, int]:
        """Invert to (c1, c2, c3); raises NonIntegralClasses on fractional output."""
        c1 = self.ch1
        c2 = Fraction(c1 * c1 - 2 * self.ch2, 2)
        c3 = Fraction(6 * self.ch3 - c1 ** 3 + 3 * c1 * c2, 3)
        out = []
        for c in (c1, c2, c3):
            if c.denominator != 1:
                raise NonIntegralClasses(f"classes of {self} are not integral")
            out.append(int(c))
        return tuple(out)  # type: ignore[return-value]

    def sym2(self) -> "ChernCharacter":
        """Symmetric square of a rank-2 character, via Chern roots.

        With roots x1, x2 the routine only needs the power sums p1 = ch1 and
        p2 = 2 ch2, p3 = 6 ch3, so everything stays rational:
        sym^2 has roots {2 x1, x1 + x2, 2 x2}.
        """
        if self.rank != 2:
            raise RankUnsupported("sym2 implemented for rank 2 only")
        e = self.ch1  # x1 + x2, an integer for honest bundles
        return ChernCharacter(
            3,
            3 * e,
            4 * self.ch2 + Fraction(e * e, 2),
            8 * self.ch3 + Fraction(e ** 3, 6),
        )

    def wedge2(self) -> "ChernCharacter":
        """Exterior square of a rank-2 character: the line bundle O(c1)."""
        if self.rank != 2:
            raise RankUnsupported("wedge2 implemented for rank 2 only")
        c1 = self.ch1
        if c1.denominator != 1:
            raise NonIntegralClasses("wedge2 needs integral c1")
        return ChernCharacter.of_line_bundle(int(c1))

    def __repr__(self) -> str:
        return f"ch(rank={self.rank}, {self.ch1}, {self.ch2}, {self.ch3})"
