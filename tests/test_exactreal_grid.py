"""Enclosures are grid cells: a function of the value and the precision alone.

``enclose(x, p)`` is ``[g, g]`` when ``x`` is a grid point ``g`` and otherwise
the closed cell ``[k*s, (k+1)*s]`` holding ``x``, with ``s = 2**(E + 1 - p)``
and ``E = max(0, floor(log2|x|))``.  Every cell is checked against an mpmath
evaluation of the value's tree, and repeated requests must give the same
endpoints whatever the process enclosed or compared before.
"""

from fractions import Fraction
from math import isqrt

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sulvalab import exactreal as er
from sulvalab.exactreal import (
    DomainError,
    Quantity,
    constructible,
    enclose,
    enclose_percent,
    sqrt,
)

from oracle_util import mp_value, mpf_fraction

ORACLE_BITS = 4000


def _oracle(x) -> Fraction:
    """The value of a constructible real or a quantity, to ORACLE_BITS bits."""
    with mpmath.workprec(ORACLE_BITS):
        if isinstance(x, Quantity):
            return mpf_fraction(mp_value(x.c0) + mp_value(x.c1) * mpmath.pi)
        return mpf_fraction(mp_value(x))


def _spacing(value: Fraction, precision_bits: int) -> Fraction:
    magnitude, e = abs(value), 0
    while magnitude >= 2 ** (e + 1):
        e += 1
    return Fraction(2) ** (e + 1 - precision_bits)


def assert_grid_cell(interval: er.Interval, value: Fraction, precision_bits: int):
    """``interval`` is the grid cell of ``precision_bits`` around ``value``
    (known to within 2**(100 - ORACLE_BITS))."""
    lo, hi = interval.lo.as_fraction(), interval.hi.as_fraction()
    assert interval.precision_bits == precision_bits
    if lo == hi:
        assert abs(value - lo) <= Fraction(2) ** (100 - ORACLE_BITS)
        assert (lo / _spacing(lo, precision_bits)).denominator == 1
        return
    s = _spacing(value, precision_bits)
    assert lo <= value <= hi
    assert hi - lo == s
    assert (lo / s).denominator == 1


def _forget(x: er.ConstructibleReal) -> None:
    """Drop every memo the value's tree and its towers carry."""
    er._ROOTS.clear()
    pending = [x]
    while pending:
        node = pending.pop()
        node._iv = None
        if node.tower is not None:
            pending += [node.a, node.b, node.tower.radicand]


_RATIONALS = st.fractions(min_value=-40, max_value=40, max_denominator=48)


@st.composite
def _values(draw):
    """A rational plus up to three square-root terms, some of them nested."""
    x = constructible(draw(_RATIONALS))
    for _ in range(draw(st.integers(0, 3))):
        radicand = constructible(draw(st.integers(2, 40)))
        if draw(st.booleans()):
            radicand = radicand + sqrt(draw(st.integers(2, 12)))
        x = x + draw(_RATIONALS) * sqrt(radicand)
    return x


@settings(max_examples=60, deadline=None)
@given(
    x=_values(),
    p=st.integers(4, 300),
    history=st.lists(
        st.tuples(
            st.sampled_from(["enclose", "shifted", "scaled", "part", "sign"]),
            st.integers(4, 1200),
        ),
        max_size=6,
    ),
)
def test_endpoints_do_not_depend_on_earlier_calls(x, p, history):
    _forget(x)
    fresh = enclose(x, p)
    for action, bits in history:
        if action == "enclose":
            enclose(x, bits)
        elif action == "shifted":
            enclose(x + Fraction(1, 3), bits)
        elif action == "scaled":
            # sqrt(7) may open a level above x's tower, so only below the cap
            room = x.tower is None or x.tower.height < er.MAX_TOWER_HEIGHT
            enclose(x * (sqrt(7) if room else 7), bits)
        elif action == "part":
            enclose(x.b if x.tower is not None else x, bits)
        else:
            er.sign(x - enclose(x, bits).midpoint())
        again = enclose(x, p)
        assert (again.lo, again.hi) == (fresh.lo, fresh.hi)
    assert_grid_cell(fresh, _oracle(x), p)


@settings(max_examples=40, deadline=None)
@given(x=_values(), p=st.integers(4, 200), extra=st.integers(1, 200))
def test_a_finer_cell_nests_inside_a_coarser_one(x, p, extra):
    coarse, fine = enclose(x, p), enclose(x, p + extra)
    assert coarse.contains_interval(fine)
    value = _oracle(x)
    assert_grid_cell(coarse, value, p)
    assert_grid_cell(fine, value, p + extra)


@pytest.mark.parametrize("p", [4, 64, 1024])
def test_zero_and_dyadic_rationals_are_degenerate(p):
    for value in (0, 1, -2, Fraction(3, 8), Fraction(-5, 4), 2**70 + 2**68):
        cell = enclose(value, p)
        assert cell.lo == cell.hi
        assert cell.lo.as_fraction() == value
    # a dyadic with more bits than the grid holds gets its cell
    cell = enclose(1 + Fraction(1, 2**p), p)
    assert (cell.lo.as_fraction(), cell.hi.as_fraction()) == (1, 1 + Fraction(2, 2**p))


@pytest.mark.parametrize("p", [4, 17, 64, 320])
def test_cell_midpoint_is_the_midpoint_of_the_cell(p):
    values = [
        0, 1, -2, Fraction(3, 8), 2**70 + 2**68, 1 + Fraction(1, 2**p),  # grid points, or near one
        Fraction(1, 3), Fraction(-22, 7), Fraction(10**30 + 1, 7),  # rationals
        sqrt(2), -sqrt(3) / 5, Fraction(-1, 3) + sqrt(10**6 + 3),  # height 1
        sqrt(2 + sqrt(3)), 1 - sqrt(5 + sqrt(2)) * sqrt(7),  # height 2
    ]
    for x in values:
        mid = er.cell_midpoint(x, p)
        assert type(mid) is er.Dyadic and mid == er.Dyadic.of(*mid)
        assert mid.as_fraction() == enclose(x, p).midpoint()
    for bad in (3, 64.0):
        with pytest.raises(DomainError):
            er.cell_midpoint(1, bad)


@pytest.mark.parametrize("p", [8, 64, 320])
@pytest.mark.parametrize("g", [1, 2, -2, Fraction(3, 4), 4])
def test_values_just_beside_a_grid_point(p, g):
    # closer to g than the first working enclosure can tell, so the exact
    # sign at g picks the side; at a power of two the spacing changes there
    tiny = sqrt(2) / 2 ** (p + 40)
    for x in (g + tiny, g - tiny):
        cell = enclose(x, p)
        assert g in (cell.lo.as_fraction(), cell.hi.as_fraction())
        assert_grid_cell(cell, _oracle(x), p)


def test_ratios_that_are_grid_points_are_degenerate():
    exact = enclose_percent(Quantity(Fraction(1, 3)), Quantity(Fraction(1, 6)), 64)
    assert exact.lo == exact.hi and exact.lo.as_fraction() == 200
    root = enclose_percent(Quantity(sqrt(2)), Quantity(sqrt(8)), 64)
    assert root.lo == root.hi and root.lo.as_fraction() == 50
    negative = enclose_percent(Quantity(sqrt(2)), Quantity(-sqrt(8)), 64)
    assert negative.lo.as_fraction() == negative.hi.as_fraction() == -50
    # just beyond the grid point -1, over a negative denominator
    beside = enclose_percent(Quantity(1 + sqrt(2) / 2**100), Quantity(-100), 64)
    assert beside.lo.as_fraction() == -1 - Fraction(2, 2**64)
    assert beside.hi.as_fraction() == -1


def test_a_denominator_the_first_round_cannot_separate_from_zero():
    # about 2**-61, so its first enclosure holds zero
    den = sqrt(2) - Fraction(isqrt(2 << 120), 2**60)
    cell = enclose_percent(Quantity(1), Quantity(den), 8)
    assert_grid_cell(cell, 100 / _oracle(den), 8)
    with pytest.raises(DomainError, match="division by zero"):
        enclose_percent(Quantity(1), Quantity(sqrt(2) - sqrt(8) / 2), 8)
    # at most 1/2: the shipped pi's uncertainty times 2**1600 hid it
    with mpmath.workprec(3300):
        c0 = -int(mpmath.nint(2**1600 * mpmath.pi))
    pi_den = Quantity(c0, 2**1600)
    assert_grid_cell(enclose_percent(Quantity(1), pi_den, 8), 100 / _oracle(pi_den), 8)


@pytest.mark.parametrize("p", [16, 128, 1024])
def test_quantity_and_percent_cells_against_the_oracle(p):
    quantities = [er.PI, er.PI - 3, Quantity(sqrt(2), Fraction(-1, 7)), er.PI * sqrt(3)]
    for q in quantities:
        assert_grid_cell(q.enclose(p), _oracle(q), p)
    num, den = er.PI - Fraction(22, 7), Quantity(Fraction(22, 7))
    value = 100 * _oracle(num) / _oracle(den)
    assert_grid_cell(enclose_percent(num, den, p), value, p)


def test_pi_quantities_enclose_past_the_shipped_pi():
    # pi is computed on demand, so no precision is out of reach
    for p in (1505, 1600, 3000):
        assert_grid_cell(er.PI.enclose(p), _oracle(er.PI), p)
        ratio = 100 * _oracle(er.PI - 3) / _oracle(er.PI)
        assert_grid_cell(enclose_percent(er.PI - 3, er.PI, p), ratio, p)
        assert_grid_cell(enclose_percent(Quantity(1), er.PI, p), 100 / _oracle(er.PI), p)
    assert enclose_percent(Quantity(1), Quantity(3), 1600).contains(Fraction(100, 3))


def test_a_cell_narrower_than_the_shipped_pi_allows_against_the_oracle():
    # pi's shipped uncertainty times 2**40 was wider than a cell of 1500 bits
    c1 = 2**40
    with mpmath.workprec(1700):
        c0 = -int(mpmath.nint(c1 * mpmath.pi))
    q = Quantity(c0, c1)
    for p in (1400, 1500, 2000):
        assert_grid_cell(q.enclose(p), _oracle(q), p)
    assert q.enclose(1400).contains_interval(q.enclose(1500))


@pytest.mark.parametrize("p", [8, 64, 1000])
@pytest.mark.parametrize("g", [0, 3, -4])
def test_a_pi_quantity_the_shipped_pi_cannot_tell_from_a_grid_point(p, g):
    # within 2**-1601 of g, closer than the shipped pi could tell: the exact
    # sign settles the side, so the answer is the one cell of p next to g
    with mpmath.workprec(3300):
        n = int(mpmath.nint(2**1600 * mpmath.pi))
    q = er.PI - Fraction(n, 2**1600) + g
    value = _oracle(q)
    assert (q - g).sign() == (value > g) - (value < g) != 0
    cell = q.enclose(p)
    assert_grid_cell(cell, value, p)
    assert g in (cell.lo.as_fraction(), cell.hi.as_fraction())
    # not changed by a finer request
    q.enclose(p + 100)
    assert q.enclose(p) == cell
    if g == 0:
        assert enclose_percent(q, Quantity(1), p) == cell
