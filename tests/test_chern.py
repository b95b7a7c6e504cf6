"""Character arithmetic and Riemann-Roch on P^3."""

from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from p3bundles.chern import (
    ChernCharacter,
    NonIntegerChi,
    NonIntegralClasses,
    RankUnsupported,
    rank2_character,
)

twists = st.integers(min_value=-20, max_value=20)
small = st.integers(min_value=-9, max_value=9)


@given(twists)
def test_line_bundle_chi_is_binomial(d):
    assert ChernCharacter.of_line_bundle(d).chi() == (d + 1) * (d + 2) * (d + 3) // 6


@given(small, small, twists)
def test_rank2_chi_matches_closed_form(c1, c2, t):
    """Twisting classes first and twisting the character agree.

    c1 c2 must be even or no bundle has these classes and chi is fractional.
    """
    assume(c1 * c2 % 2 == 0)
    twisted_classes = rank2_character(c1 + 2 * t, c2 + c1 * t + t * t).chi()
    assert rank2_character(c1, c2).twist(t).chi() == twisted_classes


def test_from_classes_round_trips():
    ch = ChernCharacter.from_classes(2, -1, 24, 0)
    assert ch.chern_classes() == (-1, 24, 0)
    assert ch.rank == 2


@given(small, small, twists, twists)
def test_twist_composes(c1, c2, s, t):
    ch = rank2_character(c1, c2)
    assert ch.twist(s).twist(t) == ch.twist(s + t)


@given(small, small)
def test_dual_is_an_involution(c1, c2):
    ch = rank2_character(c1, c2)
    assert ch.dual().dual() == ch


def test_dual_negates_odd_components():
    ch = ChernCharacter.of_line_bundle(3)
    assert ch.dual() == ChernCharacter.of_line_bundle(-3)


@given(small, small)
def test_square_splits_into_sym_and_wedge(c1, c2):
    """ch(E (x) E) = ch(S^2 E) + ch(/\\^2 E), checked componentwise."""
    ch = rank2_character(c1, c2)
    square = ch * ch
    split = ch.sym2() + ch.wedge2()
    assert square == split


def test_sum_and_difference_are_inverse():
    a = rank2_character(0, 5)
    b = ChernCharacter.of_line_bundle(-2)
    assert (a + b) - b == a


def test_chi_rejects_non_integer_values():
    # an artificial character with fractional ch3 and no compensation
    ch = ChernCharacter(1, Fraction(0), Fraction(0), Fraction(1, 2))
    with pytest.raises(NonIntegerChi):
        ch.chi()


def test_integral_classes_are_required():
    with pytest.raises(NonIntegralClasses):
        ChernCharacter(2, Fraction(1, 2), Fraction(0), Fraction(0)).chern_classes()


def test_sym2_needs_rank_two():
    with pytest.raises(RankUnsupported):
        ChernCharacter.of_line_bundle(1).sym2()


def test_monad_middle_term_characters():
    # the two summand shapes used throughout: (2, 0, m) and (2, -1, 2m)
    even = ChernCharacter.from_classes(2, 0, 3, 0)
    assert even.chi() == 2 - 2 * 3          # chi(E) = 2 - 2 c2 at c1 = 0
    # the sampled charge-1 extension bundle has h(E(-1)) = (0, 1, 0, 0)
    assert rank2_character(0, 1).twist(-1).chi() == -1


def test_endomorphism_character_chi():
    # chi(E (x) E^dual) = 4 - 8 c2 for c1 = 0: rank 4, ch2 = -4 c2, odd parts cancel
    ch = rank2_character(0, 2)
    assert (ch * ch.dual()).chi() == 4 - 8 * 2
