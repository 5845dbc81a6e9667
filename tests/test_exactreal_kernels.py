"""Differential tests of the exact kernel against its plain reference forms.

The interval kernels work on integer mantissas; the references below are the
``Fraction`` formulas they replaced, and every output dyadic must be equal.
Each tower keeps the square root of its radicand's latest enclosure; every
stored root must equal a fresh one.
Tower multiplication uses scalar and Karatsuba shortcuts; the reference is
the schoolbook 5-product recursion, and the results must be structurally
equal (canonical form makes that the same as equal values on one chain).
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sulvalab import exactreal as er
from sulvalab.exactreal import Dyadic, sqrt, structurally_equal

# -- interval kernels -----------------------------------------------------------


def floor_of(f: Fraction, bits):
    return er._fraction_floor(f.numerator, f.denominator, bits)


def ceil_of(f: Fraction, bits):
    return er._fraction_ceil(f.numerator, f.denominator, bits)


def ref_add(a, b, bits):
    lo = a[0].as_fraction() + b[0].as_fraction()
    hi = a[1].as_fraction() + b[1].as_fraction()
    return floor_of(lo, bits), ceil_of(hi, bits)


def ref_mul(a, b, bits):
    a0, a1 = a[0].as_fraction(), a[1].as_fraction()
    b0, b1 = b[0].as_fraction(), b[1].as_fraction()
    products = (a0 * b0, a0 * b1, a1 * b0, a1 * b1)
    return floor_of(min(products), bits), ceil_of(max(products), bits)


def ref_div(a, b, bits):
    a0, a1 = a[0].as_fraction(), a[1].as_fraction()
    b0, b1 = b[0].as_fraction(), b[1].as_fraction()
    quotients = (a0 / b0, a0 / b1, a1 / b0, a1 / b1)
    return floor_of(min(quotients), bits), ceil_of(max(quotients), bits)


def ref_width_ok(lo, hi, precision_bits):
    width = hi.as_fraction() - lo.as_fraction()
    scale = max(Fraction(1), abs(hi.as_fraction()))
    return width <= Fraction(2) ** (1 - precision_bits) * scale


mantissas = st.one_of(
    st.just(0),
    st.integers(-64, 64),
    st.integers(-(2**200), 2**200),
)
# both normalized dyadics and raw (man, exp) pairs with trailing zero bits
dyadics = st.builds(Dyadic.of, mantissas, st.integers(-400, 400)) | st.builds(
    Dyadic, mantissas, st.integers(-400, 400)
)
raws = st.tuples(dyadics, dyadics).map(lambda p: tuple(sorted(p, key=Dyadic.as_fraction)))
precisions = st.integers(1, 300)


@settings(max_examples=300, deadline=None)
@given(raws, raws, raws, precisions)
@example(
    (Dyadic.of(0), Dyadic.of(0)),
    (Dyadic.of(1), Dyadic.of(1)),
    (Dyadic.of(-3, -2), Dyadic.of(5, 700)),
    8,
)
@example(
    (Dyadic.of(1, -900), Dyadic.of(1, 900)),
    (Dyadic.of(1), Dyadic.of(1)),
    (Dyadic.of(-1), Dyadic.of(1)),
    64,
)
def test_riv_add_mul_matches_fraction_formula(a, b, r, bits):
    expected = ref_add(a, ref_mul(b, r, bits), bits)
    assert er._riv_add_mul(a, b, r, bits) == expected


@settings(max_examples=300, deadline=None)
@given(raws, raws, precisions)
@example((Dyadic.of(-7, -3), Dyadic.of(0)), (Dyadic.of(-5, 400), Dyadic.of(9, -400)), 16)
def test_riv_mul_matches_fraction_formula(a, b, bits):
    assert er._riv_mul(a, b, bits) == ref_mul(a, b, bits)


@settings(max_examples=300, deadline=None)
@given(raws, raws.filter(lambda b: b[0].man > 0 or b[1].man < 0), precisions)
@example((Dyadic.of(-7, -3), Dyadic.of(0)), (Dyadic.of(-5, 400), Dyadic.of(-9, -400)), 16)
@example((Dyadic.of(3), Dyadic(12, -2)), (Dyadic(6, -2), Dyadic.of(3)), 1)
def test_riv_div_matches_fraction_formula(a, b, bits):
    assert er._riv_div(a, b, bits) == ref_div(a, b, bits)


def test_riv_div_rejects_a_divisor_around_zero():
    with pytest.raises(er.DomainError):
        er._riv_div((Dyadic.of(1), Dyadic.of(1)), (Dyadic.of(0), Dyadic.of(1)), 8)
    with pytest.raises(er.DomainError):
        er._riv_div((Dyadic.of(1), Dyadic.of(1)), (Dyadic.of(-1), Dyadic.of(1)), 8)


@settings(max_examples=300, deadline=None)
@given(dyadics, dyadics, precisions)
def test_riv_width_ok_matches_fraction_formula(x, y, precision_bits):
    assert er._riv_width_ok(x, y, precision_bits) == ref_width_ok(x, y, precision_bits)


@st.composite
def near_width_bound(draw):
    """(lo, hi, p) with hi - lo within a hair of 2**(1-p) * max(1, |hi|)."""
    man = draw(st.integers(1, 2**40) | st.integers(-(2**40), -1))
    # |hi| spans both sides of 1, including the exact powers around it
    hi = Dyadic.of(man, draw(st.integers(-45, 5)) - man.bit_length() + 1)
    p = draw(st.integers(1, 120))
    bound = Fraction(2) ** (1 - p) * max(Fraction(1), abs(hi.as_fraction()))
    nudge = Fraction(draw(st.integers(-2, 2)), 2 ** draw(st.integers(0, 60)))
    width = bound * (1 + nudge)
    # a dyadic bound times a dyadic nudge is dyadic
    lo_value = hi.as_fraction() - width
    lo = Dyadic.of(lo_value.numerator * (2**400 // lo_value.denominator), -400)
    assert lo.as_fraction() == lo_value
    return lo, hi, p


@settings(max_examples=300, deadline=None)
@given(near_width_bound())
def test_riv_width_ok_at_the_bound(case):
    lo, hi, p = case
    assert er._riv_width_ok(lo, hi, p) == ref_width_ok(lo, hi, p)


def test_riv_width_ok_scales_by_one_below_one():
    # |hi| = 1/4: the allowed width is 2**(1-p), not 2**(1-p) * |hi|
    hi = Dyadic.of(1, -2)
    assert er._riv_width_ok(Dyadic.of(-1, -3), hi, 2)  # 3/8 <= 1/2
    assert not er._riv_width_ok(Dyadic.of(-3, -2), hi, 2)  # 1 > 1/2
    assert er._riv_width_ok(Dyadic.of(1, -3), hi, 4)  # 1/8 <= 1/8
    assert not er._riv_width_ok(Dyadic.of(1, -3), hi, 5)


# -- decimal rounding -------------------------------------------------------------

decimal_scales = st.integers(0, 80).map(lambda k: 10**k)


@settings(max_examples=300, deadline=None)
@given(dyadics, decimal_scales)
@example(Dyadic.of(-1, -1), 1)  # -1/2 rounds up to 0
@example(Dyadic.of(-3, -1), 1)  # -3/2 rounds up to -1
@example(Dyadic.of(-5, 3), 10)
@example(Dyadic(6, -2), 10**80)
def test_nearest_scaled_matches_fraction_formula(d, scale):
    assert er._nearest_scaled(d, scale) == (d.as_fraction() * scale + Fraction(1, 2)).__floor__()


@settings(max_examples=300, deadline=None)
@given(dyadics, decimal_scales)
def test_floor_scaled_matches_fraction_formula(d, scale):
    assert er._floor_scaled(d, scale) == (d.as_fraction() * scale).__floor__()


def test_interval_str_rounds_outward_at_twelve_digits():
    exact = er.Interval(Dyadic.of(-1, -2), Dyadic.of(1, -1), 1)
    assert str(exact) == "[-0.250000000000, 0.500000000000]"
    tiny = er.Interval(Dyadic.of(-1, -41), Dyadic.of(1, -41), 4)
    assert str(tiny) == "[-0.000000000001, 0.000000000001]"
    narrow = er.enclose(-sqrt(2), 64)
    assert str(narrow) == "[-1.414213562374, -1.414213562373]"


# -- tower multiplication ---------------------------------------------------------


def schoolbook(x, y):
    """(a + b*r)(c + e*r) = (ac + bed) + (ae + bc)*r, recursively."""
    if x.tower is None and y.tower is None:
        return er.constructible(x.frac * y.frac)
    x, y = er._common(x, y)
    tower = er._deeper(x, y)
    xa, xb = er._split(x, tower)
    ya, yb = er._split(y, tower)
    real = er._add(schoolbook(xa, ya), schoolbook(schoolbook(xb, yb), tower.radicand))
    root = er._add(schoolbook(xa, yb), schoolbook(xb, ya))
    return er._node(tower, real, root)


def _chain(top: int, radicand: int) -> list:
    """Generators sqrt(r), sqrt(3 + sqrt(r)), ... of heights 1..top."""
    gens = [sqrt(radicand)]
    for k in range(3, top + 2):
        gens.append(sqrt(gens[-1] + k))
    return gens


MAIN = _chain(6, 2)
SIDE = _chain(2, 5)  # a second chain: products embed one into the other

coefficients = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
)


@st.composite
def elements(draw, gens, height):
    """A canonical element of the chain ``gens`` at most ``height`` levels up."""

    def build(level):
        if level == 0:
            return er.constructible(draw(coefficients))
        below_a, below_b = build(level - 1), build(level - 1)
        return er._node(gens[level - 1].tower, below_a, below_b)

    return build(height)


# mixed heights on one chain, and across chains within the tower cap of 6
@pytest.mark.parametrize(
    "left, right",
    [((MAIN, h), (MAIN, k)) for h, k in [(0, 6), (6, 0), (1, 6), (3, 5), (5, 6), (6, 6)]]
    + [((MAIN, 4), (MAIN, 4)), ((MAIN, 4), (SIDE, 2))]
    + [((SIDE, 1), (MAIN, 3)), ((SIDE, 2), (MAIN, 2))],
    ids=lambda side: f"{'main' if side[0] is MAIN else 'side'}{side[1]}",
)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_mul_matches_schoolbook(left, right, data):
    x = data.draw(elements(*left), label="x")
    y = data.draw(elements(*right), label="y")
    assert structurally_equal(er._mul(x, y), schoolbook(x, y))



# -- root memo -------------------------------------------------------------------


def test_every_stored_root_is_the_fresh_square_root():
    x = MAIN[-1]
    y = (x + 1) / (x - 1)
    cross = SIDE[-1] * MAIN[3]  # embeds one chain into the other
    for bits in (320, 64, 1024, 128, 320, 48):
        er.enclose(y, bits)
        er.enclose(cross, bits)
        er.sign(y - er.enclose(y, bits).midpoint())
        er.to_decimal(cross, bits // 10)
        assert len(er._ROOTS) >= len(SIDE)
        for d, root in er._ROOTS.values():
            assert root == er._riv_sqrt(d, er._root_bits)


def test_a_stored_root_follows_a_tighter_radicand():
    # a traversal at other bits empties the memo, so the radicand of a tower
    # is tightened here behind its back; at the same bits, a fresh node must
    # get the root of the tighter enclosure, not the stored one
    one = er.constructible(1)
    tower = sqrt(sqrt(1009) + 31).tower
    for bits in (56, 328):
        tight = (sqrt(1009) + 31)._interval_raw(4 * bits)
        er._node(tower, one, one)._interval_raw(bits)
        assert er._ROOTS[tower][0] != tight
        tower.radicand._iv = tight
        fresh = er._node(tower, one, one)._interval_raw(bits)
        assert er._root_bits == bits
        assert er._ROOTS[tower] == (tight, er._riv_sqrt(tight, bits))
        assert fresh == er._riv_add_mul(
            one._interval_raw(bits), one._interval_raw(bits), er._ROOTS[tower][1], bits
        )
