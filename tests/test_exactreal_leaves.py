"""Rational leaves: integer numerator and denominator, checked against Fraction.

Every public operation on rationals must give the value ``fractions`` gives,
in canonical form: coprime ints, a positive denominator and zero as ``0/1``.
The kernel itself makes no call into ``fractions``; a profile of a fixed
computation counts them.  Decimals are checked against the mpmath oracle.
"""

from fractions import Fraction
from math import gcd

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sulvalab import exactreal as er
from sulvalab.exactreal import (
    Quantity,
    constructible,
    enclose,
    enclose_percent,
    from_rational,
    sqrt,
    structurally_equal,
    to_decimal,
)

from oracle_util import fraction_calls, mp_value, mpf_fraction

# -- the rational layer against Fraction -------------------------------------------


def _assert_canonical(x, expected: Fraction) -> None:
    n, d = x.num, x.den
    assert type(n) is int and type(d) is int
    assert d > 0 and gcd(n, d) == 1
    assert (n, d) == (expected.numerator, expected.denominator)  # zero is 0/1
    assert x.is_rational() and x.as_fraction() == expected
    assert x.is_zero() == (expected == 0)
    assert x.sign() == (expected > 0) - (expected < 0)
    assert str(x) == str(expected)


_big = st.integers(-(2**200), 2**200)
rationals = st.one_of(
    st.just(0),
    st.integers(-12, 12),
    _big,
    st.fractions(max_denominator=12),
    st.builds(Fraction, _big, st.integers(1, 2**200)),
)


@st.composite
def operand_pairs(draw):
    """Two rationals, over one shared denominator about half of the time."""
    if draw(st.booleans()):
        return draw(rationals), draw(rationals)
    d = draw(st.integers(1, 12) | st.integers(1, 2**200))
    return Fraction(draw(_big | st.integers(-12, 12)), d), Fraction(draw(_big), d)


@settings(max_examples=300, deadline=None)
@given(operand_pairs(), st.integers(-3, 5))
def test_rational_arithmetic_matches_fraction(pair, exponent):
    p, q = pair
    x, y = constructible(p), constructible(q)
    _assert_canonical(x, Fraction(p))
    _assert_canonical(-x, -Fraction(p))
    for result, expected in [
        (x + y, p + q),
        (x - y, p - q),
        (x * y, p * q),
        (x + q, p + q),
        (p - y, p - q),
        (p * y, p * q),
    ]:
        _assert_canonical(result, Fraction(expected))
    if q != 0:
        _assert_canonical(x / y, Fraction(p) / q)
        _assert_canonical(p / y, Fraction(p) / q)
        _assert_canonical(x / q, Fraction(p) / q)
    if p != 0 or exponent >= 0:
        _assert_canonical(x**exponent, Fraction(p) ** exponent)
    assert structurally_equal(x, constructible(Fraction(p)))


def test_bool_coerces_to_an_int():
    assert str(constructible(True)) == "1"
    assert constructible(False).is_zero()
    one = constructible(True)
    assert (one.num, one.den) == (1, 1) and type(one.num) is int


def test_equal_rational_radicands_intern_one_root_tower():
    first = sqrt(Fraction(18, 4))
    registered = len(er._ROOT_EXTENSIONS)
    second = sqrt(Fraction(9, 2))
    assert len(er._ROOT_EXTENSIONS) == registered
    assert first.tower is second.tower is sqrt(2).tower
    assert structurally_equal(first, second)
    assert str(first) == "3/2*sqrt(2)"


def test_equal_rationals_are_structurally_equal():
    assert structurally_equal(from_rational(2, 4), from_rational(1, 2))
    assert structurally_equal(from_rational(-2, -4), from_rational(1, 2))
    assert structurally_equal(from_rational(0, -7), constructible(0))


@pytest.mark.parametrize(
    "args, expected",
    [
        ((Fraction(1, 3), 2), Fraction(1, 6)),
        ((3, -6), Fraction(-1, 2)),
        ((True, 2), Fraction(1, 2)),
        ((Fraction(3, 4), Fraction(-9, 8)), Fraction(-2, 3)),
        ((-5,), Fraction(-5)),
    ],
)
def test_from_rational_reads_ints_and_fractions(args, expected):
    _assert_canonical(from_rational(*args), expected)


@pytest.mark.parametrize(
    "args, message",
    [
        ((1, 0), "zero denominator"),
        ((Fraction(1, 2), Fraction(0)), "zero denominator"),
        ((0.1,), "cannot interpret"),
        ((1.5, 2), "cannot interpret"),
        (("3",), "cannot interpret"),
        ((1, None), "cannot interpret"),
        ((constructible(3),), "cannot interpret"),
        ((1, sqrt(2)), "cannot interpret"),
    ],
    ids=[
        "zero", "fraction-zero", "float", "float-numerator", "str", "none",
        "constructible", "irrational",
    ],
)
def test_from_rational_rejects_what_it_cannot_read(args, message):
    with pytest.raises(er.DomainError, match=message):
        from_rational(*args)


# -- no call into fractions.py --------------------------------------------------


def _nested(radicands):
    x = sqrt(radicands[0])
    for a in radicands[1:]:
        x = sqrt(x + a)
    return x


def _fixed_computation(quantity: Quantity) -> None:
    for radicands in ([11, 23], [13, 29, 31, 37], [17, 41, 43, 47, 53, 59]):
        x = _nested(radicands)
        y = (x + 1) / (x - 1)
        assert y * (x - 1) == x + 1
        assert sqrt(x * x) == x
        for bits in (128, 1024):
            str(enclose(y, bits))
        to_decimal(y, 30)
    quantity.enclose(128)
    quantity.enclose(1024)
    assert quantity.sign() == 1
    to_decimal(quantity, 30)
    enclose_percent(quantity - 3, quantity, 128)
    to_decimal(constructible(2) / 3, 30)


def test_the_kernel_makes_no_fraction_calls():
    # coercing a Fraction reads its properties, so the quantity is built first
    quantity = Quantity(sqrt(2), Fraction(3, 7))
    calls = fraction_calls(lambda: _fixed_computation(quantity))
    assert calls == {}, f"{sum(calls.values())} calls into fractions.py: {calls}"


# -- decimals against the oracle ---------------------------------------------------

ORACLE_BITS = 2400
_coefficients = st.fractions(min_value=-20, max_value=20, max_denominator=9)


@st.composite
def tower_values(draw):
    """A canonical element of a chain ``sqrt(r), sqrt(a + sqrt(r)), ...`` of
    height at most 3."""
    gens = [sqrt(draw(st.integers(2, 60)))]
    for _ in range(draw(st.integers(0, 2))):
        gens.append(sqrt(gens[-1] * draw(st.integers(1, 3)) + draw(st.integers(1, 12))))

    def build(tower):
        if tower is None:
            return constructible(draw(_coefficients))
        return er._node(tower, build(tower.parent), build(tower.parent))

    return build(gens[-1].tower)


quantities = st.builds(
    Quantity, _coefficients | tower_values(), _coefficients.filter(bool) | tower_values()
)


def _oracle_decimal(value: Fraction, slack: Fraction, digits: int) -> str:
    """``value`` rounded to nearest at ``digits`` digits, with a trailing
    ellipsis; the oracle must round both ends of ``value +- slack`` alike."""
    scale = 10**digits
    units = (value * scale + Fraction(1, 2)).__floor__()
    assume(((value - slack) * scale + Fraction(1, 2)).__floor__() == units)
    assume(((value + slack) * scale + Fraction(1, 2)).__floor__() == units)
    sign, text = ("-" if units < 0 else ""), str(abs(units)).rjust(digits + 1, "0")
    body = text if digits == 0 else f"{text[:-digits]}.{text[-digits:]}"
    return f"{sign}{body}…"


@settings(max_examples=40, deadline=None)
@given(tower_values() | quantities)
def test_to_decimal_matches_the_oracle(x):
    assume(not (isinstance(x, Quantity) and x.is_constant()))
    assume(isinstance(x, Quantity) or not x.is_rational())
    with mpmath.workprec(ORACLE_BITS):
        if isinstance(x, Quantity):
            value = mpf_fraction(mp_value(x.c0) + mp_value(x.c1) * mpmath.pi)
        else:
            value = mpf_fraction(mp_value(x))
    slack = Fraction(2) ** (200 - ORACLE_BITS) * max(1, abs(value))
    for digits in (0, 1, 30, 200):
        assert to_decimal(x, digits) == _oracle_decimal(value, slack, digits)
