"""Exact-arithmetic cohomology toolkit for rank-2 bundles on P^3.

Everything in this package computes over the rationals: dimensions are
Python ints and intermediate characteristic-class data are
`fractions.Fraction`.  No computed quantity is rounded: the oracle's matrices
are int64 residues mod a prime or exact Python ints, and floats appear only
in wall-clock timings and a density's decimal display.
"""

from p3bundles.chern import ChernCharacter
from p3bundles.tables import CohomologyVector

__all__ = ["ChernCharacter", "CohomologyVector"]
__version__ = "0.1.0"
