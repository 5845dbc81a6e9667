"""Shared independent oracle: high-precision mpmath values as exact Fractions."""

from fractions import Fraction

import mpmath


def mpf_fraction(value) -> Fraction:
    """Exact Fraction equal to a finite mpf (sign-aware)."""
    sign, man, exp, _ = mpmath.mpf(value)._mpf_
    if man == 0:
        return Fraction(0)
    magnitude = Fraction(man) * Fraction(2) ** exp
    return -magnitude if sign else magnitude


def mp_value(x):
    """The value of a ConstructibleReal's tree in mpmath, canonical or not."""
    if x.tower is None:
        return mpmath.mpf(x.frac.numerator) / x.frac.denominator
    return mp_value(x.a) + mp_value(x.b) * mpmath.sqrt(mp_value(x.tower.radicand))


def oracle(expr, prec: int = 1000) -> Fraction:
    """Evaluate a thunk under ``prec`` working bits and freeze the result."""
    with mpmath.workprec(prec):
        return mpf_fraction(expr())
