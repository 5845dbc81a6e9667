"""Differential tests of the exact kernel against exact and oracle references.

The interval kernels work on balls of ints: ``(m, r, e)`` stands for
``[(m - r) * 2**e, (m + r) * 2**e]``.  For each kernel, the exact
``Fraction`` image of every corner of its input balls must lie in the output
ball (containment), the output radius may exceed the exact ball-arithmetic
radius by at most a stated number of units of the midpoint's last kept bit
(tightness), and exact inputs with an exact, short enough result must give
``r == 0`` (exactness).  Kernel outputs on tower elements must also hold
the mpmath value.  Each tower keeps the square root of its radicand's
latest ball; every stored root must equal a fresh one and hold the root of
every point of the stored radicand.
Tower multiplication uses scalar and Karatsuba shortcuts; the reference is
the schoolbook 5-product recursion, and the results must be structurally
equal (canonical form makes that the same as equal values on one chain).
"""

import random
from fractions import Fraction
from math import isqrt

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sulvalab import exactreal as er
from sulvalab.exactreal import Dyadic, sqrt, structurally_equal

from oracle_util import mp_value, oracle

# -- interval kernels -----------------------------------------------------------

GUARD = 4  # the kernels keep bits + 4 midpoint bits


def ends(x) -> tuple:
    """The exact ends of the ball ``x`` as Fractions."""
    m, r, e = x
    unit = Fraction(2) ** e
    return (m - r) * unit, (m + r) * unit


def radius(x) -> Fraction:
    return x[1] * Fraction(2) ** x[2]


def magnitude(x) -> Fraction:
    """The largest ``|v|`` over the ball ``x``."""
    return (abs(x[0]) + x[1]) * Fraction(2) ** x[2]


def mp(f: Fraction):
    return mpmath.mpf(f.numerator) / f.denominator


def value(x) -> Fraction:
    return x[0] * Fraction(2) ** x[2]


def significant_bits(f: Fraction) -> int:
    """Significant bits of the dyadic ``f`` (0 for zero)."""
    n = abs(f.numerator)
    return n.bit_length() - ((n & -n).bit_length() - 1) if n else 0


def assert_holds(out, images) -> None:
    """``out`` is a ball of ints that holds every one of ``images``."""
    assert all(isinstance(v, int) for v in out) and out[1] >= 0
    lo, hi = ends(out)
    for image in images:
        assert lo <= image <= hi, (out, image)


ball_of = er._span  # the ball with ends lo and hi


mantissas = st.one_of(
    st.just(0),
    st.integers(-64, 64),
    st.integers(-(2**200), 2**200),
)
radii = st.one_of(st.just(0), st.integers(0, 8), st.integers(0, 2**200))
dyadics = st.builds(Dyadic.of, mantissas, st.integers(-400, 400)) | st.builds(
    Dyadic, mantissas, st.integers(-400, 400)
)
# balls drawn directly, and the balls between two drawn dyadics
balls = st.tuples(mantissas, radii, st.integers(-400, 400)) | st.tuples(dyadics, dyadics).map(
    lambda p: ball_of(*sorted(p, key=Dyadic.as_fraction))
)
precisions = st.integers(1, 300)


def ref_add_mul_radius(a, b, s) -> Fraction:
    """The ball-arithmetic radius of ``a + b*s``, before any rounding."""
    (am, ar, ae), (bm, br, be), (sm, sr, se) = a, b, s
    spread = abs(bm) * sr + abs(sm) * br + br * sr
    return ar * Fraction(2) ** ae + spread * Fraction(2) ** (be + se)


@settings(max_examples=300, deadline=None)
@given(balls, balls, balls, precisions)
@example(
    ball_of(Dyadic.of(0), Dyadic.of(0)),
    ball_of(Dyadic.of(1), Dyadic.of(1)),
    ball_of(Dyadic.of(-3, -2), Dyadic.of(5, 700)),
    8,
)
@example(
    ball_of(Dyadic.of(1, -900), Dyadic.of(1, 900)),
    ball_of(Dyadic.of(1), Dyadic.of(1)),
    ball_of(Dyadic.of(-1), Dyadic.of(1)),
    64,
)
# both radii reach the product: [-1, 1] * [-1, 1] needs the br*sr term
@example((0, 0, 0), (0, 1, 0), (0, 1, 0), 8)
# both floors of one rounding cut almost a whole unit: 2 units of slack
@example((0, 0, 0), (2**40 - 1, 2**20 - 1, 0), (1, 0, 0), 12)
def test_riv_add_mul_matches_fraction_formula(a, b, s, bits):
    out = er._riv_add_mul(a, b, s, bits)
    assert_holds(out, [x + y * z for x in ends(a) for y in ends(b) for z in ends(s)])
    # each of the two roundings adds at most 2 units of the n-th bit of what
    # it rounds; 16 units of the n-th bit of the terms bound both
    n = bits + GUARD
    slack = Fraction(16, 2**n) * (magnitude(a) + magnitude(b) * magnitude(s))
    assert radius(out) <= ref_add_mul_radius(a, b, s) + slack
    if not (a[1] or b[1] or s[1]):
        product, total = value(b) * value(s), value(a) + value(b) * value(s)
        if significant_bits(product) <= n and significant_bits(total) <= n:
            assert out[1] == 0 and value(out) == total


@settings(max_examples=300, deadline=None)
@given(balls, balls, precisions)
@example(
    ball_of(Dyadic.of(-7, -3), Dyadic.of(0)), ball_of(Dyadic.of(-5, 400), Dyadic.of(9, -400)), 16
)
@example((0, 1, 0), (0, 1, 0), 8)
@example((2**40 - 1, 2**20 - 1, 0), (1, 0, 0), 12)
def test_riv_mul_matches_fraction_formula(a, b, bits):
    out = er._riv_mul(a, b, bits)
    assert_holds(out, [x * y for x in ends(a) for y in ends(b)])
    n = bits + GUARD
    slack = Fraction(4, 2**n) * magnitude(a) * magnitude(b)
    assert radius(out) <= ref_add_mul_radius((0, 0, 0), a, b) + slack
    if not (a[1] or b[1]) and significant_bits(value(a) * value(b)) <= n:
        assert out[1] == 0 and value(out) == value(a) * value(b)


def apart_from_zero(b) -> bool:
    return abs(b[0]) > b[1]


@settings(max_examples=300, deadline=None)
@given(balls, balls.filter(apart_from_zero), precisions)
@example(
    ball_of(Dyadic.of(-7, -3), Dyadic.of(0)), ball_of(Dyadic.of(-5, 400), Dyadic.of(-9, -400)), 16
)
@example(ball_of(Dyadic.of(3), Dyadic(12, -2)), ball_of(Dyadic(6, -2), Dyadic.of(3)), 1)
def test_riv_div_matches_fraction_formula(a, b, bits):
    out = er._riv_div(a, b, bits)
    assert_holds(out, [x / y for x in ends(a) for y in ends(b)])
    (am, ar, ae), (bm, br, be) = a, b
    exact_radius = Fraction(ar * abs(bm) + abs(am) * br, abs(bm) * (abs(bm) - br))
    exact_radius *= Fraction(2) ** (ae - be)
    # the floor of the quotient and the ceiling of its radius: 2 units, each
    # below 2**(1 - n) times |a| / |bm|
    n = bits + GUARD
    slack = Fraction(4, 2**n) * magnitude(a) / (abs(bm) * Fraction(2) ** be)
    assert radius(out) <= exact_radius + slack
    if not (ar or br):
        quotient = value(a) / value(b)
        if quotient.denominator & (quotient.denominator - 1) == 0:
            if significant_bits(quotient) <= n:
                assert out[1] == 0 and value(out) == quotient


def test_riv_div_rejects_a_divisor_around_zero():
    with pytest.raises(er.DomainError):
        er._riv_div((1, 0, 0), ball_of(Dyadic.of(0), Dyadic.of(1)), 8)
    with pytest.raises(er.DomainError):
        er._riv_div((1, 0, 0), ball_of(Dyadic.of(-1), Dyadic.of(1)), 8)


def assert_root_of(root, x) -> None:
    """``root`` holds the square root of every point of the ball ``x``: its
    low end is at most the root of the low end of ``x`` (or of 0), its high
    end at least the root of the high end."""
    lo, hi = ends(root)
    x_lo, x_hi = ends(x)
    assert root[1] >= 0 and hi >= 0
    assert lo <= 0 or lo * lo <= x_lo
    assert hi * hi >= x_hi


@settings(max_examples=300, deadline=None)
@given(balls.filter(lambda x: x[0] + x[1] >= 0), precisions)
@example((0, 0, 0), 8)
@example((2, 0, 0), 1)
@example((9, 0, -10), 4)
@example((1, 1, 5), 16)
@example((2**300 + 1, 3, -301), 64)
def test_riv_sqrt_holds_the_root_of_every_point(x, bits):
    out = er._riv_sqrt(x, bits)
    assert_root_of(out, x)
    m, r, e = x
    n = bits + GUARD
    if m > r:
        # the slope of the root over the ball, plus 8 units of the n-th bit
        with mpmath.workprec(2 * n + 100):
            bound = mp(radius(x)) / mpmath.sqrt(mp(ends(x)[0]))
            bound += 8 * mpmath.sqrt(mp(magnitude(x))) / mpmath.mpf(2) ** n
            assert mp(radius(out)) <= bound * (1 + mpmath.mpf(2) ** -60)
    v = value(x)
    if not r and v >= 0:
        num, den = isqrt(v.numerator), isqrt(v.denominator)
        if num * num == v.numerator and den * den == v.denominator:
            if significant_bits(Fraction(num, den)) <= n:
                assert out[1] == 0 and value(out) == Fraction(num, den)


def test_riv_sqrt_rejects_a_negative_ball():
    with pytest.raises(er.DomainError):
        er._riv_sqrt((-3, 2, 0), 8)


def ref_width_ok(x, precision_bits):
    lo, hi = ends(x)
    scale = max(Fraction(1), abs(hi))
    return hi - lo <= Fraction(2) ** (1 - precision_bits) * scale


@settings(max_examples=300, deadline=None)
@given(balls, precisions)
def test_riv_width_ok_matches_fraction_formula(x, precision_bits):
    assert er._riv_width_ok(x, precision_bits) == ref_width_ok(x, precision_bits)


@st.composite
def near_width_bound(draw):
    """(ball, p) with a width within a hair of 2**(1-p) * max(1, |hi|)."""
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
    return ball_of(lo, hi), p


@settings(max_examples=300, deadline=None)
@given(near_width_bound())
def test_riv_width_ok_at_the_bound(case):
    x, p = case
    assert er._riv_width_ok(x, p) == ref_width_ok(x, p)


def test_riv_width_ok_scales_by_one_below_one():
    # |hi| = 1/4: the allowed width is 2**(1-p), not 2**(1-p) * |hi|
    hi = Dyadic.of(1, -2)
    assert er._riv_width_ok(ball_of(Dyadic.of(-1, -3), hi), 2)  # 3/8 <= 1/2
    assert not er._riv_width_ok(ball_of(Dyadic.of(-3, -2), hi), 2)  # 1 > 1/2
    assert er._riv_width_ok(ball_of(Dyadic.of(1, -3), hi), 4)  # 1/8 <= 1/8
    assert not er._riv_width_ok(ball_of(Dyadic.of(1, -3), hi), 5)


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


def _halves(x, tower):
    """``(a, b)`` with ``x = a + b*sqrt(d)`` over ``tower``; ``b = 0`` below it."""
    return (x.a, x.b) if x.tower is tower else (x, er.constructible(0))


def schoolbook(x, y):
    """(a + b*r)(c + e*r) = (ac + bed) + (ae + bc)*r, recursively."""
    if x.tower is None and y.tower is None:
        return er.constructible(x.frac * y.frac)
    x, y = er._common(x, y)
    tower = max((v.tower for v in (x, y) if v.tower is not None), key=lambda t: t.height)
    xa, xb = _halves(x, tower)
    ya, yb = _halves(y, tower)
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



# -- balls of tower elements against mpmath -------------------------------------


def assert_holds_oracle(ball, expr, bits) -> None:
    """``ball`` holds the mpmath value of ``expr()``, up to that value's own error."""
    prec = 2 * bits + 300
    v = oracle(expr, prec=prec)
    error = (abs(v) + 1) / 2 ** (prec - 16)
    lo, hi = ends(ball)
    assert lo - error <= v <= hi + error, ball


@pytest.mark.parametrize("height", [1, 3, 6])
@settings(max_examples=15, deadline=None)
@given(data=st.data(), bits=st.sampled_from([4, 33, 64, 300]))
def test_tower_balls_hold_the_mpmath_value(height, data, bits):
    x = data.draw(elements(MAIN, height), label="x")
    ball = x._interval_raw(bits)
    assert_holds_oracle(ball, lambda: mp_value(x), bits)
    if x.sign() > 0:
        root = er._riv_sqrt(ball, bits)
        assert_holds_oracle(root, lambda: mpmath.sqrt(mp_value(x)), bits)


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
        for tower, (d, root) in er._ROOTS.items():
            assert root == er._riv_sqrt(d, er._root_bits)
            assert_root_of(root, d)
            assert_holds_oracle(d, lambda: mp_value(tower.radicand), er._root_bits)
            assert_holds_oracle(root, lambda: mpmath.sqrt(mp_value(tower.radicand)), er._root_bits)


def test_a_stored_root_follows_a_tighter_radicand():
    # a traversal at other bits empties the memo, so the radicand of a tower
    # is tightened here behind its back; at the same bits, a fresh node must
    # get the root of the tighter ball, not the stored one
    one = er.constructible(1)
    tower = sqrt(sqrt(1009) + 31).tower
    for bits in (56, 328):
        tight = (sqrt(1009) + 31)._interval_raw(4 * bits)
        er._node(tower, one, one)._interval_raw(bits)
        assert er._ROOTS[tower][0] != tight
        tower.radicand._iv = tight
        node = er._node(tower, one, one)
        fresh = node._interval_raw(bits)
        assert er._root_bits == bits
        assert er._ROOTS[tower] == (tight, er._riv_sqrt(tight, bits))
        assert_root_of(er._ROOTS[tower][1], tight)
        assert fresh == er._riv_add_mul(
            one._interval_raw(bits), one._interval_raw(bits), er._ROOTS[tower][1], bits
        )
        assert_holds_oracle(fresh, lambda: mp_value(node), bits)


# -- square parts -----------------------------------------------------------------


def _square_part_by_odd_numbers(value: int) -> tuple[int, int]:
    """``exactreal._square_part`` when it divided by 2 and every odd number
    up to 1000, kept verbatim as the reference."""
    s = 1
    v = value
    p = 2
    while p * p <= v and p <= 1000:
        if v % p == 0:
            exponent = 0
            while v % p == 0:
                v //= p
                exponent += 1
            s *= p ** (exponent // 2)
            if exponent % 2:
                v *= p  # leave one factor in the kernel
                # (re-multiplied once; v was fully divided out above)
        p = 3 if p == 2 else p + 2
    root = isqrt(v)
    if root * root == v:
        return s * root, 1
    return s, v


def test_square_part_by_primes_matches_odd_numbers():
    rng = random.Random(1052)
    values = [0, 1, 1009**2 * 2]
    values += [rng.randint(1, 10**14) for _ in range(2000)]
    values += [rng.randint(1, 10**6) ** 2 * rng.randint(1, 10**3) for _ in range(1000)]
    # twice the square of every n below 1000, so each prime below 1000 has a
    # square to divide out; then squares of primes around the bound
    values += [n * n * 2 for n in range(2, 1000)]
    values += [p * p * k for p in (983, 991, 997, 1009, 1013) for k in (1, 2, 3, 997)]
    assert [er._square_part(v) for v in values] == [_square_part_by_odd_numbers(v) for v in values]
