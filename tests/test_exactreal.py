"""Exact-arithmetic core: examples, oracle soundness, algebraic properties."""

import decimal
import random
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sulvalab import exactreal as er
from sulvalab.exactreal import (
    CapacityError,
    DomainError,
    Interval,
    Quantity,
    UnsupportedQuantityError,
    constructible,
    enclose,
    enclose_percent,
    from_rational,
    pi_enclosure,
    sqrt,
    structurally_equal,
    to_decimal,
)


from oracle_util import oracle, raw_node


def assert_contains_oracle(value, expr, bits=64):
    iv = (
        value.enclose(bits)
        if isinstance(value, Quantity)
        else enclose(value, bits)
    )
    assert iv.contains(oracle(expr)), f"{iv} misses oracle for {value}"


# -- from_rational -----------------------------------------------------------


def test_from_rational_17_12():
    x = from_rational(17, 12)
    assert x.as_fraction() == Fraction(17, 12)
    assert x.sign() == 1


def test_from_rational_zero():
    assert from_rational(0, 5).sign() == 0
    assert from_rational(0, 5).is_zero()


def test_from_rational_13_15_enclosure():
    iv = enclose(from_rational(13, 15), 40)
    assert iv.contains(Fraction(13, 15))
    assert iv.lo.as_fraction() > Fraction(8666, 10000)
    assert iv.hi.as_fraction() < Fraction(8667, 10000)


def test_from_rational_zero_denominator():
    with pytest.raises(DomainError):
        from_rational(1, 0)


# -- field arithmetic --------------------------------------------------------


def test_add_rationals():
    assert (from_rational(3, 2) + from_rational(1, 2)).as_fraction() == 2


def test_sqrt2_squared_is_two():
    s2 = sqrt(2)
    assert (s2 * s2 - 2).sign() == 0


def test_baudhayana_radius_coefficient():
    value = (2 + sqrt(2)) / 6
    assert_contains_oracle(value, lambda: (2 + mpmath.sqrt(2)) / 6)
    iv = enclose(value, 40)
    assert iv.lo.as_fraction() > Fraction(569035, 10**6)
    assert iv.hi.as_fraction() < Fraction(569037, 10**6)


def test_division_by_zero():
    with pytest.raises(DomainError):
        sqrt(2) / (sqrt(2) - sqrt(2))
    with pytest.raises(DomainError):
        from_rational(1) / 0


def test_cross_tower_arithmetic_is_exact():
    s2, s3 = sqrt(2), sqrt(3)
    s6 = sqrt(6)
    assert (s2 * s3 - s6).sign() == 0
    total = s2 + s3
    assert (total * total - (5 + 2 * s6)).sign() == 0


def test_sqrt8_collapses_to_2_sqrt2():
    assert structurally_equal(sqrt(8), 2 * sqrt(2))
    assert (sqrt(8) - 2 * sqrt(2)).sign() == 0


def test_tower_reuse_between_equal_radicands():
    a = sqrt(Fraction(17, 9))
    b = sqrt(17) / 3
    assert (a - b).sign() == 0
    assert a.tower is b.tower


# -- sqrt --------------------------------------------------------------------


def test_sqrt_perfect_square_stays_rational():
    r = sqrt(Fraction(25, 4))
    assert r.is_rational()
    assert r.as_fraction() == Fraction(5, 2)


def test_sqrt_2_enclosure():
    assert_contains_oracle(sqrt(2), lambda: mpmath.sqrt(2))


def test_sqrt17_over_3_enclosure():
    value = sqrt(17) / 3
    assert_contains_oracle(value, lambda: mpmath.sqrt(17) / 3)
    iv = enclose(value, 40)
    assert iv.lo.as_fraction() > Fraction(1374368, 10**6)
    assert iv.hi.as_fraction() < Fraction(1374370, 10**6)


def test_sqrt_negative_rejected():
    with pytest.raises(DomainError):
        sqrt(-1)


def test_sqrt_within_tower_nested():
    # sqrt(3 + 2*sqrt(2)) = 1 + sqrt(2): no new level
    s2 = sqrt(2)
    r = sqrt(3 + 2 * s2)
    assert (r - (1 + s2)).sign() == 0
    assert r.tower is s2.tower


def test_tower_cap(monkeypatch):
    monkeypatch.setattr(er, "MAX_TOWER_HEIGHT", 1)
    s2 = sqrt(2)
    with pytest.raises(CapacityError):
        sqrt(1 + s2)


NON_INT_ARGUMENTS = {
    "enclose 128.0": lambda: enclose(sqrt(2), 128.0),
    "method enclose 64.0": lambda: sqrt(3).enclose(64.0),
    "PI.enclose 64.0": lambda: er.PI.enclose(64.0),
    "enclose True": lambda: enclose(sqrt(2), True),
    "enclose_percent 64.0": lambda: enclose_percent(er.PI - 3, er.PI, 64.0),
    "to_decimal irrational 3.0": lambda: to_decimal(sqrt(2), 3.0),
    "to_decimal rational 3.0": lambda: to_decimal(from_rational(1, 3), 3.0),
    "to_decimal '3'": lambda: to_decimal(sqrt(2), "3"),
    "pi_enclosure 64.5": lambda: pi_enclosure(64.5),
    "Interval 8.0": lambda: Interval(er.Dyadic.of(1), er.Dyadic.of(1), 8.0),
}


@pytest.mark.parametrize("call", NON_INT_ARGUMENTS.values(), ids=NON_INT_ARGUMENTS.keys())
def test_non_int_precision_digits_and_cap_are_domain_errors(call):
    with pytest.raises(DomainError, match="must be an int"):
        call()


def test_tower_grows_for_nested_radicals():
    r = sqrt(1 + sqrt(2))
    assert (r * r - (1 + sqrt(2))).sign() == 0
    assert r.tower.height == 2


# -- sign --------------------------------------------------------------------


def test_sign_examples():
    s2 = sqrt(2)
    assert (s2 * s2 - 2).sign() == 0
    assert (from_rational(17, 12) - s2).sign() == 1
    assert (from_rational(12, 17) - from_rational(7, 10)).sign() == 1


def test_sign_tiny_difference():
    # 17/12 overestimates sqrt(2) by ~2.45e-3
    delta = from_rational(17, 12) - sqrt(2)
    assert delta.sign() == 1
    assert_contains_oracle(delta, lambda: mpmath.mpf(17) / 12 - mpmath.sqrt(2))


def _record_enclosure_rounds(monkeypatch) -> list:
    """Record ``(value, bits)`` for every ``_interval_raw`` call."""
    interval_raw = er.ConstructibleReal._interval_raw
    calls = []

    def recording(self, bits):
        calls.append((self, bits))
        return interval_raw(self, bits)

    monkeypatch.setattr(er.ConstructibleReal, "_interval_raw", recording)
    return calls


def test_sign_refines_a_tiny_difference(monkeypatch):
    # about -1.6e-12: still straddles zero at 32 bits, decided at 64
    tiny = sqrt(2) - from_rational(665857, 470832)
    calls = _record_enclosure_rounds(monkeypatch)
    assert tiny.sign() == -1
    assert [bits for value, bits in calls if value is tiny] == [32, 64]
    assert oracle(lambda: mpmath.sqrt(2) - mpmath.mpf(665857) / 470832) < 0


def test_sign_decides_a_noncanonical_zero_in_the_first_round(monkeypatch):
    # hand-built zeros escape canonical form, but all their leaves are 0,
    # so the very first enclosure is exactly [0, 0]
    outer = sqrt(1 + sqrt(2)).tower
    inner = outer.parent
    assert inner is sqrt(2).tower
    flat = raw_node(inner, er._ZERO, er._ZERO)
    nested = raw_node(outer, flat, raw_node(inner, er._ZERO, er._ZERO))
    calls = _record_enclosure_rounds(monkeypatch)
    for zero in (flat, nested):
        assert zero.sign() == 0
        assert [bits for value, bits in calls if value is zero] == [32]
        assert er._norm_is_zero(zero)


# floor(pi * 2**1536): the 1538-bit pi this package used to ship as a
# constant, kept as the reference for the pi computed on demand
SHIPPED_PI_MAN = int(
    "3243f6a8885a308d313198a2e03707344a4093822299f31d0082efa98ec4e6c8"
    "9452821e638d01377be5466cf34e90c6cc0ac29b7c97c50dd3f84d5b5b547091"
    "79216d5d98979fb1bd1310ba698dfb5ac2ffd72dbd01adfb7b8e1afed6a267e9"
    "6ba7c9045f12c7f9924a19947b3916cf70801f2e2858efc16636920d871574e6"
    "9a458fea3f4933d7e0d95748f728eb658718bcd5882154aee7b54a41dc25a59b"
    "59c30d5392af26013c5d1b023286085f0ca417918b8db38ef8e79dcb0603a180"
    "e",
    16,
)


def _pi_truncation_midpoint() -> Fraction:
    # the shipped pi enclosure never shrank below [m, m + 1] * 2**-1536
    return Fraction(2 * SHIPPED_PI_MAN + 1, 2**1537)


def _mp_sign(expr) -> int:
    value = oracle(expr, prec=4000)
    return (value > 0) - (value < 0)


def _mpf(f: Fraction):
    return mpmath.mpf(f.numerator) / f.denominator


def _record_pi_bits(monkeypatch) -> list:
    riv_pi = er._riv_pi
    requested = []

    def recording(bits):
        requested.append(bits)
        return riv_pi(bits)

    monkeypatch.setattr(er, "_riv_pi", recording)
    return requested


def test_quantity_sign_stops_past_shipped_pi(monkeypatch):
    # within 2**-1537 of zero, closer than the shipped pi could tell: pi
    # computed on demand decides the sign in a round past its 1538 bits
    mid = _pi_truncation_midpoint()
    expected = _mp_sign(lambda: mpmath.pi - _mpf(mid))
    requested = _record_pi_bits(monkeypatch)
    assert Quantity(-mid, 1).sign() == expected != 0
    assert Quantity(mid, -1).sign() == -expected
    assert max(requested) > 1538


def test_to_decimal_resolves_a_tie_the_shipped_pi_could_not():
    # 1/2 + (pi - mid) lies on the side of the rounding boundary 1/2 that the
    # sign of pi - mid picks
    mid = _pi_truncation_midpoint()
    near_half = Quantity(Fraction(1, 2) - mid, 1)
    above = _mp_sign(lambda: mpmath.pi - _mpf(mid)) > 0
    assert to_decimal(near_half, 0) == ("1…" if above else "0…")


def test_quantity_sign_refines_past_the_cap_when_pi_is_not_the_limit():
    # pi minus its shipped truncation is below 2**-1536; an offset of
    # 2**-3000 leaves the sign to be decided far past the shipped bits
    offset = Fraction(1, 2**3000)
    truncation = Fraction(SHIPPED_PI_MAN, 2**1536)
    expected = _mp_sign(lambda: _mpf(offset - truncation) + mpmath.pi)
    assert Quantity(offset - truncation, 1).sign() == expected == 1
    assert Quantity(truncation - offset, -1).sign() == -1


@pytest.mark.parametrize(
    "c0, digits", [(2**2100, 0), (10**400, 250)], ids=["2**2100", "10**400"]
)
def test_to_decimal_refines_past_the_cap_when_rounding_is_the_limit(c0, digits):
    # at 2048 bits, rounding to 2049 significant bits of |c0| leaves the
    # enclosure wider than a decimal unit; the pi term is far narrower
    expected = str(c0 + 3) + to_decimal(er.PI, digits)[1:]
    assert to_decimal(Quantity(c0, 1), digits) == expected


def _nested_radical(height: int):
    """sqrt(k + ... sqrt(4 + sqrt(3 + sqrt(2)))) with ``height`` levels."""
    x = sqrt(2)
    for k in range(3, height + 2):
        x = sqrt(x + k)
    return x


def _calls(monkeypatch, name, compute, caller=None):
    """``compute()`` and the calls of the kernel function ``name`` it made;
    with ``caller``, only the calls made from a function of that name."""
    function = getattr(er, name)
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += caller is None or sys._getframe(1).f_code.co_name == caller
        return function(*args)

    monkeypatch.setattr(er, name, counting)
    try:
        return compute(), calls
    finally:
        monkeypatch.undo()


# recursive _mul calls of (x+1)/(x-1); the 5-product schoolbook form made
# 18,106 at height 6 and 291,101 at height 8
@pytest.mark.parametrize("height, budget", [(6, 635), (8, 2557)])
def test_nested_division_mul_count(monkeypatch, height, budget):
    monkeypatch.setattr(er, "MAX_TOWER_HEIGHT", max(er.MAX_TOWER_HEIGHT, height))
    x = _nested_radical(height)
    assert x.tower.height == height
    y, calls = _calls(monkeypatch, "_mul", lambda: (x + 1) / (x - 1))
    assert calls <= budget
    assert y * (x - 1) == x + 1


def test_power_mul_count(monkeypatch):
    # square-and-multiply from the lowest set bit, with no product with one
    # and no squaring past the top bit; the old loop had both, and took 2, 3,
    # 4, 4 and 6 products for the powers 1, 2, 3, 4 and 7
    x = sqrt(2) + sqrt(3)
    powers = {n: _calls(monkeypatch, "_mul", lambda: x**n, "__pow__") for n in (1, 2, 3, 4, 7)}
    assert {n: calls for n, (_, calls) in powers.items()} == {1: 0, 2: 1, 3: 2, 4: 2, 7: 4}
    assert powers[1][0] is x
    square, cube, fourth = (powers[n][0] for n in (2, 3, 4))
    assert square == x * x and cube == square * x and fourth == square * square
    assert x**0 == 1 and x**-2 * square == 1 and powers[7][0] == fourth * cube


NESTED = sqrt(7 + sqrt(5 + sqrt(3)))


@pytest.mark.parametrize("x", [sqrt(2) - 1, NESTED], ids=["height 1", "height 3"])
def test_products_by_one_and_zero_share_the_operand(x):
    one, zero = from_rational(1), from_rational(0)
    assert x * one is x and one * x is x and x * 1 is x and 1 * x is x
    assert (x * zero).is_zero() and (zero * x).is_zero() and (x * 0).is_zero()
    assert x - zero is x and x - 0 is x and x + zero is x and zero + x is x


def test_rational_scalar_products_walk_the_tree_once(monkeypatch):
    # no level of the tree goes through _common again
    seven_thirds = from_rational(7, 3)
    for product in (lambda: NESTED * seven_thirds, lambda: seven_thirds * NESTED):
        scaled, calls = _calls(monkeypatch, "_common", product)
        assert calls == 0 and scaled == 7 * NESTED / 3


def test_same_tower_operands_skip_common(monkeypatch):
    x, y = 1 + sqrt(2), 3 - sqrt(2)
    assert _calls(monkeypatch, "_common", lambda: x * y) == (x * y, 0)
    assert _calls(monkeypatch, "_common", lambda: x + y) == (4, 0)


def test_same_tower_difference_builds_no_negation(monkeypatch):
    x, y = NESTED * NESTED - 2 * NESTED, 3 * NESTED + from_rational(1, 5)
    difference, calls = _calls(monkeypatch, "_neg", lambda: x - y)
    assert calls == 0 and structurally_equal(difference, x + -y)
    assert _calls(monkeypatch, "_neg", lambda: y * (NESTED - 1) - x)[1] == 0


# -- enclose ------------------------------------------------------------------


def test_enclose_percent():
    third = enclose_percent(Quantity(1), Quantity(3), 64)
    assert third.precision_bits == 64 and third.contains(Fraction(100, 3))
    surplus = enclose_percent(er.PI - 3, er.PI, 64)
    assert surplus.contains(oracle(lambda: 100 * (1 - 3 / mpmath.pi)))
    with pytest.raises(DomainError):
        enclose_percent(Quantity(1), Quantity(3), 3)


def test_enclose_third():
    iv = enclose(Fraction(1, 3), 30)
    assert iv.contains(Fraction(1, 3))
    assert iv.width() <= Fraction(2) ** -29


def test_enclose_sqrt2_60_bits():
    iv = enclose(sqrt(2), 60)
    assert iv.lo.as_fraction() > Fraction(141421356237, 10**11)
    assert iv.hi.as_fraction() < Fraction(141421356238, 10**11)


def test_enclose_requires_4_bits():
    with pytest.raises(DomainError):
        enclose(sqrt(2), 3)


SOUNDNESS_CORPUS = [
    (lambda: sqrt(2), lambda: mpmath.sqrt(2)),
    (lambda: (2 + sqrt(2)) / 6, lambda: (2 + mpmath.sqrt(2)) / 6),
    (lambda: sqrt(17) / 3, lambda: mpmath.sqrt(17) / 3),
    (lambda: sqrt(10), lambda: mpmath.sqrt(10)),
    (lambda: sqrt(3) / 2, lambda: mpmath.sqrt(3) / 2),
    (
        lambda: from_rational(17, 12) - sqrt(2),
        lambda: mpmath.mpf(17) / 12 - mpmath.sqrt(2),
    ),
    (
        lambda: sqrt(1 + sqrt(2)) * sqrt(3),
        lambda: mpmath.sqrt(1 + mpmath.sqrt(2)) * mpmath.sqrt(3),
    ),
    (
        lambda: (sqrt(5) - sqrt(3)) / (sqrt(2) + 1),
        lambda: (mpmath.sqrt(5) - mpmath.sqrt(3)) / (mpmath.sqrt(2) + 1),
    ),
]


@pytest.mark.parametrize("precision", [8, 16, 64, 256])
def test_enclosure_soundness_against_1000_bit_oracle(precision):
    for build, reference in SOUNDNESS_CORPUS:
        value = build()
        iv = enclose(value, precision)
        assert iv.contains(oracle(reference)), f"{value} at {precision} bits"


@pytest.mark.parametrize("precision", [8, 16, 64, 128])
def test_enclosure_nesting(precision):
    for build, _ in SOUNDNESS_CORPUS:
        value = build()
        outer = enclose(value, precision)
        inner = enclose(value, 2 * precision)
        assert outer.contains_interval(inner)


def test_enclosure_width_invariant():
    for build, _ in SOUNDNESS_CORPUS:
        value = build()
        for precision in (8, 32, 96):
            iv = enclose(value, precision)
            bound = Fraction(2) ** (1 - precision) * max(
                Fraction(1), abs(iv.hi.as_fraction())
            )
            assert iv.width() <= bound


def test_nonzero_value_interval_excludes_zero_at_deciding_precision():
    delta = from_rational(17, 12) - sqrt(2)
    assert delta.sign() == 1
    iv = enclose(delta, 256)
    assert iv.is_positive()


# -- pi ------------------------------------------------------------------------


def test_pi_enclosure_contains_pi():
    iv = pi_enclosure(20)
    assert iv.contains(oracle(lambda: mpmath.pi))
    assert iv.lo.as_fraction() > Fraction(31, 10)
    assert iv.hi.as_fraction() < Fraction(32, 10)


def test_pi_enclosure_high_precision_against_oracle():
    iv = pi_enclosure(1024)
    assert iv.contains(oracle(lambda: mpmath.pi, prec=1600))
    assert iv.width() <= Fraction(2) ** (1 - 1024) * 4


def test_manava_ratio_exceeds_pi():
    assert Fraction(16, 5) > pi_enclosure(20).hi.as_fraction()


def test_pi_capacity():
    # pi is computed on demand, far past the 1538 bits once shipped
    for p in (64, 1538, 4096, 16384):
        iv = pi_enclosure(p)
        assert iv.contains(oracle(lambda: mpmath.pi, prec=p + 200)), p
        assert iv.width() == Fraction(1, 2 ** (p + 2))


def test_riv_pi_matches_the_shipped_constant(monkeypatch):
    with mpmath.workprec(1700):
        assert SHIPPED_PI_MAN == int(mpmath.floor(mpmath.pi * 2**1536))
    # widen the memo from nothing, through every precision the constant covered
    monkeypatch.setattr(er, "_pi_memo", (3, 0))
    # the ball of [f, f + ulp] for the b-bit floor f = f' * 2**(2 - b) of the
    # shipped constant: (2f' + 1, 1, 1 - b)
    assert SHIPPED_PI_MAN.bit_length() == 1538
    mismatches = [
        b
        for b in range(2, 1539)
        if er._riv_pi(b) != (2 * (SHIPPED_PI_MAN >> (1538 - b)) + 1, 1, 1 - b)
    ]
    assert mismatches == []


@pytest.mark.parametrize("x", [2, 3, 5, 239])
def test_atan_inv_error_bound(x):
    for one in (1, 3, 2**8, 10**50, 2**1000, 2**5000 + 1):
        s, e = er._atan_inv(x, one)
        with mpmath.workprec(one.bit_length() + 200):
            assert abs(s - one * mpmath.atan(mpmath.mpf(1) / x)) < e, one


# -- quantities -----------------------------------------------------------------


def test_quantity_mul_guard():
    area = Quantity(0, 1)
    with pytest.raises(UnsupportedQuantityError):
        area * area


def test_quantity_gupta_area_enclosure():
    q = Quantity(0, Fraction(8, 25))
    iv = q.enclose(60)
    assert iv.contains(oracle(lambda: 8 * mpmath.pi / 25))
    assert iv.lo.as_fraction() > Fraction(10053096, 10**7)
    assert iv.hi.as_fraction() < Fraction(10053097, 10**7)


def test_quantity_circumference_sum():
    total = Quantity(3) + Quantity(Fraction(1, 5))
    assert total.is_constant()
    assert total.constant_part().as_fraction() == Fraction(16, 5)


def test_quantity_scale_and_compare():
    q = Quantity(0, 1).scale(from_rational(1, 4))  # pi/4
    assert q < 1
    assert q > Fraction(3, 4)
    assert (q * 4) == er.PI


def test_quantity_sign_mixed_components():
    q = Quantity(-3, 1)  # pi - 3 > 0
    assert q.sign() == 1
    assert Quantity(Fraction(16, 5), -1).sign() == 1  # 16/5 - pi > 0
    assert Quantity(3, -1).sign() == -1
    assert Quantity(0, 0).sign() == 0
    assert Quantity(0, sqrt(2) - 2).sign() == -1  # a zero c0: the sign of c1


def test_quantity_reflected_subtraction_negation_and_division():
    q = Quantity(sqrt(2), 3)
    assert str(1 - q) == "1 - sqrt(2) - 3*pi"
    assert str(-q) == "-sqrt(2) - 3*pi"
    assert str(q / 2) == "1/2*sqrt(2) + 3/2*pi"


def test_quantity_constant_part_guard():
    with pytest.raises(UnsupportedQuantityError):
        er.PI.constant_part()


# -- decimal rendering ------------------------------------------------------------


def test_to_decimal_exact_rational():
    assert to_decimal(Fraction(1, 4), 12) == "0.25"
    assert to_decimal(from_rational(2), 6) == "2"
    assert to_decimal(Fraction(-3, 2), 4) == "-1.5"


def test_to_decimal_rounded_rational():
    assert to_decimal(Fraction(13, 15), 6) == "0.866667…"
    assert to_decimal(Fraction(1, 3), 3) == "0.333…"
    # ties round half to even, on both sides of zero
    for value, digits, text in [
        (Fraction(5, 2), 0, "2…"),
        (Fraction(7, 2), 0, "4…"),
        (Fraction(-5, 2), 0, "-2…"),
        (Fraction(-7, 2), 0, "-4…"),
        (Fraction(1, 8), 2, "0.12…"),
        (Fraction(3, 8), 2, "0.38…"),
        (Fraction(-1, 8), 2, "-0.12…"),
        (Fraction(-3, 8), 2, "-0.38…"),
    ]:
        assert to_decimal(value, digits) == text
    assert to_decimal(Fraction(-2, 3), 0) == "-1…"
    assert to_decimal(Fraction(-1, 3), 0) == "0…"


def test_to_decimal_irrational():
    assert to_decimal(sqrt(2), 12) == "1.414213562373…"
    assert to_decimal(er.PI, 10) == "3.1415926536…"
    assert to_decimal(-sqrt(2), 3) == "-1.414…"


def test_to_decimal_past_the_old_round_cap():
    # 5000 digits of sqrt(2) take rounds past 8192 bits, and 600 digits of pi
    # take more than 1538 bits of pi
    with mpmath.workdps(5100):
        root2 = mpmath.nstr(mpmath.sqrt(2), 5001, strip_zeros=False)
        pi = mpmath.nstr(mpmath.pi, 601, strip_zeros=False)
    assert to_decimal(sqrt(2), 5000) == root2 + "…"
    assert to_decimal(er.PI, 600) == pi + "…"


def test_to_decimal_quantity_constant():
    assert to_decimal(Quantity(Fraction(16, 5), 0), 6) == "3.2"


def test_to_decimal_past_the_int_string_digit_limit():
    # Python converts at most 4300 digits between int and str by default
    assert to_decimal(from_rational(10**5000 + 1), 2) == "1" + "0" * 4999 + "1"
    assert to_decimal(from_rational(10**5000 + 1, 3), 2) == "3" * 5000 + ".67…"
    assert to_decimal(-sqrt(10**9000), 1) == "-1" + "0" * 4500
    tiny = er.Dyadic.of(1, -9000).as_decimal()  # 5**9000 has 6291 digits
    with decimal.localcontext() as context:
        context.prec = 7000
        assert decimal.Decimal(tiny) == decimal.Decimal(2) ** -9000


def test_str_past_the_int_string_digit_limit():
    assert str(from_rational(10**5000 + 1, 3)) == "1" + "0" * 4999 + "1/3"
    assert str(from_rational(-1, 10**5000)) == "-1/1" + "0" * 5000
    x = from_rational(10**4000 - 1)
    radicand = "9" * 3999 + "8" + "0" * 3999 + "2"  # x**2 + 1
    assert str(sqrt(x * x + 1)) == f"sqrt({radicand})"
    assert str(Quantity(0, 10**5000)) == "1" + "0" * 5000 + "*pi"


# -- structural properties ---------------------------------------------------------


RADICANDS = (2, 3, 5, 17)


@settings(max_examples=60, deadline=None)
@given(
    st.fractions(min_value=-20, max_value=20),
    st.fractions(min_value=-20, max_value=20),
    st.sampled_from(RADICANDS),
)
@example(Fraction(7, 3), Fraction(0), 2)
def test_node_collapses_exactly_when_the_coefficient_is_zero(a, b, d):
    tower = sqrt(d).tower
    x = er._node(tower, constructible(a), constructible(b))
    if b == 0:
        assert x.is_rational() and x.as_fraction() == a
    else:
        assert x.tower is tower
        assert (x.a.as_fraction(), x.b.as_fraction()) == (a, b)


@settings(max_examples=40, deadline=None)
@given(
    st.fractions(min_value=-9, max_value=9),
    st.fractions(min_value=-9, max_value=9),
    st.fractions(min_value=-9, max_value=9),
    st.sampled_from(RADICANDS),
)
def test_field_axioms(a, b, c, d):
    root = sqrt(d)
    x = constructible(a) + root
    y = constructible(b) - root * 2
    z = constructible(c) + root * root
    assert ((x * y) * z - x * (y * z)).sign() == 0
    assert (x * (y + z) - (x * y + x * z)).sign() == 0


def test_sqrt_square_identity_200_random_rationals():
    rng = random.Random(20260810)
    for _ in range(200):
        x = Fraction(rng.randrange(0, 10**6), rng.randrange(1, 10**4))
        r = sqrt(x)
        assert (r * r - x).sign() == 0


@settings(max_examples=40, deadline=None)
@given(st.fractions(min_value=0, max_value=1000))
def test_sqrt_square_identity_property(x):
    r = sqrt(x)
    assert (r * r - x).sign() == 0
    assert r.sign() >= 0


def test_interval_constructor_validates():
    from sulvalab.exactreal import Dyadic

    with pytest.raises(DomainError):
        Interval(Dyadic.of(2), Dyadic.of(1), 8)
    with pytest.raises(DomainError):
        Interval(Dyadic.of(1), Dyadic.of(2), 30)


@pytest.mark.parametrize(
    "lo, hi",
    [
        (1, 2),
        ((1, 0), (2, 0)),
        (er.Dyadic(1.5, 0), er.Dyadic.of(2)),
        (er.Dyadic.of(1), er.Dyadic(2, 0.0)),
        (er.Dyadic(True, 0), er.Dyadic.of(2)),
        (er.Dyadic.of(1), Fraction(2)),
    ],
    ids=["ints", "tuples", "float mantissa", "float exponent", "bool mantissa", "Fraction"],
)
def test_interval_endpoints_are_dyadics_of_ints(lo, hi):
    with pytest.raises(DomainError, match="endpoints must be Dyadics of ints"):
        Interval(lo, hi, 8)


def test_dyadic_decimal_is_exact():
    from sulvalab.exactreal import Dyadic

    assert Dyadic.of(3, -2).as_decimal() == "0.75"
    assert Dyadic.of(-5, -3).as_decimal() == "-0.625"
    assert Dyadic.of(7, 2).as_decimal() == "28"


def test_dyadic_is_an_immutable_value():
    from sulvalab.exactreal import Dyadic

    a, b = Dyadic.of(12, -3), Dyadic(6, -2)  # 3/2 normalized, and unnormalized
    assert (a.man, a.exp) == (3, -1) and repr(a) == "Dyadic(man=3, exp=-1)"
    # equality and hashing are on the form, ordering is on the value
    assert a != b and a == Dyadic(3, -1) and hash(a) == hash(Dyadic(3, -1))
    assert a <= b and a >= b and not a < b and not a > b
    assert Dyadic.of(-1) < b < Dyadic.of(7, -2)
    assert str(-a) == "-1.5" and -Dyadic.of(0) is Dyadic.of(0)
    with pytest.raises(AttributeError):
        a.man = 1


def test_repr_and_str_forms():
    assert str(sqrt(2)) == "sqrt(2)"
    assert str(2 * sqrt(2)) == "2*sqrt(2)"
    assert str(54 - 36 * sqrt(2)) == "54 - 36*sqrt(2)"
    assert str(sqrt(31 + sqrt(17))) == "sqrt(31 + sqrt(17))"
    assert str(Quantity(0, Fraction(8, 25))) == "8/25*pi"
    assert str(Quantity(-1, Fraction(1, 2))) == "-1 + 1/2*pi"
    assert str(er.PI) == "pi"
    # an irrational coefficient is parenthesised, for roots and for pi alike
    assert str((1 + sqrt(2)) * sqrt(3 + sqrt(2))) == "(1 + sqrt(2))*sqrt(3 + sqrt(2))"
    assert str(Quantity(1, -sqrt(3))) == "1 - (sqrt(3))*pi"


def test_negative_powers_invert():
    assert sqrt(2) ** -3 == sqrt(2) / 4
    with pytest.raises(DomainError):
        from_rational(0) ** -1


def test_merge_exceeding_cap_is_capacity_error(monkeypatch):
    monkeypatch.setattr(er, "MAX_TOWER_HEIGHT", 2)
    a = sqrt(1 + sqrt(2))
    b = sqrt(1 + sqrt(3))
    with pytest.raises(CapacityError):
        _ = a + b  # the common tower needs more than two levels


def test_cross_tower_stress_against_oracle():
    # random expression trees over several radicands, mixing towers that
    # must be merged exactly; compared against a 300-bit oracle
    rng = random.Random(1789)
    radicands = (2, 3, 5, 10, 17)

    def build(depth):
        roll = rng.random()
        if depth == 0 or roll < 0.3:
            if rng.random() < 0.5:
                d = rng.choice(radicands)
                return sqrt(d), lambda: mpmath.sqrt(d)
            q = Fraction(rng.randrange(-12, 13), rng.randrange(1, 9))
            return constructible(q), lambda: mpmath.mpf(q.numerator) / q.denominator
        lhs, lref = build(depth - 1)
        rhs, rref = build(depth - 1)
        op = rng.choice("+-*/s")
        if op == "+":
            return lhs + rhs, lambda: lref() + rref()
        if op == "-":
            return lhs - rhs, lambda: lref() - rref()
        if op == "*":
            return lhs * rhs, lambda: lref() * rref()
        if op == "/":
            if rhs.sign() == 0:
                return lhs, lref
            return lhs / rhs, lambda: lref() / rref()
        if lhs.sign() < 0:
            lhs, lref_old = -lhs, lref
            lref = lambda: -lref_old()
        return sqrt(lhs), lambda: mpmath.sqrt(lref())

    for _ in range(50):
        value, reference = build(3)
        expected = oracle(reference, prec=300)
        assert enclose(value, 128).contains(expected)
