"""Exact-arithmetic cohomology toolkit for rank-2 bundles on P^3.

Everything in this package computes over the rationals: dimensions are
Python ints and intermediate characteristic-class data are
`fractions.Fraction`.  No computed quantity is rounded: the oracle's matrices
are int64 residues mod a prime or exact Python ints, and floats appear only
in wall-clock timings and a density's decimal display.
"""

from p3bundles.chern import ChernCharacter
from p3bundles.tables import CohomologyVector

__all__ = ["ChernCharacter", "CohomologyVector", "clear_caches"]
__version__ = "0.1.0"


def clear_caches() -> None:
    """Forget everything memoised, so the next run recomputes from scratch:
    the oracle's caches (the cohomology vectors and configuration hashes
    among them, see ``oracle.sheaves.clear_caches``), the deductions of
    script replays and the h^1 intervals of monad profiles."""
    # imported here: the package namespace loads before its layers
    from p3bundles import monad
    from p3bundles.engine import script
    from p3bundles.oracle import sheaves

    sheaves.clear_caches()
    script._deduction.cache_clear()
    monad._pinned_h1.cache_clear()
