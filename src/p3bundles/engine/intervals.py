"""Integer intervals [lo, hi] with hi = None meaning unbounded above.

Dimensions of cohomology groups live in these; tightening is monotone, so
any fixpoint the rule engine reaches is independent of rule order.
"""

from __future__ import annotations


class EmptyInterval(Exception):
    """Tightening request would make lo > hi."""


class Interval:
    __slots__ = ("lo", "hi")

    def __init__(self, lo: int = 0, hi: int | None = None):
        if lo < 0:
            raise ValueError("dimensions are nonnegative")
        if hi is not None and hi < lo:
            raise EmptyInterval(f"[{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    @property
    def pinned(self) -> bool:
        return self.hi is not None and self.lo == self.hi

    @property
    def value(self) -> int:
        if not self.pinned:
            raise ValueError(f"interval {self} not pinned")
        return self.lo

    def tighten_lo(self, v: int) -> bool:
        if v <= self.lo:
            return False
        if self.hi is not None and v > self.hi:
            raise EmptyInterval(f"lo {v} > hi {self.hi}")
        self.lo = v
        return True

    def tighten_hi(self, v: int) -> bool:
        if v < 0:
            raise EmptyInterval(f"hi {v} < 0")
        if self.hi is not None and v >= self.hi:
            return False
        if v < self.lo:
            raise EmptyInterval(f"hi {v} < lo {self.lo}")
        self.hi = v
        return True

    def __repr__(self) -> str:
        if self.pinned:
            return str(self.lo)
        top = "inf" if self.hi is None else str(self.hi)
        return f"[{self.lo},{top}]"
