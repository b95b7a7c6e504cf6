"""Exact-arithmetic cohomology toolkit for rank-2 bundles on P^3.

Everything in this package computes over the rationals: dimensions are
Python ints and intermediate characteristic-class data are
`fractions.Fraction`.  No computed quantity is rounded: the only float64
arithmetic is the exact rank's kernel check, on residues small enough that
every sum is an exact integer.
"""

from p3bundles.chern import ChernCharacter
from p3bundles.tables import CohomologyVector

__all__ = ["ChernCharacter", "CohomologyVector"]
__version__ = "0.1.0"
