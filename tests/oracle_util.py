"""Shared independent oracle: high-precision mpmath values as exact Fractions,
and a count of the calls a computation makes into ``fractions``."""

import fractions
import sys
from fractions import Fraction

import mpmath

from sulvalab.exactreal import ConstructibleReal


def mpf_fraction(value) -> Fraction:
    """Exact Fraction equal to a finite mpf (sign-aware)."""
    sign, man, exp, _ = mpmath.mpf(value)._mpf_
    if man == 0:
        return Fraction(0)
    magnitude = Fraction(man) * Fraction(2) ** exp
    return -magnitude if sign else magnitude


def raw_node(tower, a, b) -> ConstructibleReal:
    """``a + b*sqrt(d)`` on ``tower`` as given, even for a zero ``b``: the
    non-canonical values that no constructor of the package returns."""
    x = object.__new__(ConstructibleReal)
    x.tower, x.num, x.den, x.a, x.b, x._iv = tower, 0, 0, a, b, None
    return x


def mp_value(x):
    """The value of a ConstructibleReal's tree in mpmath, canonical or not."""
    if x.tower is None:
        return mpmath.mpf(x.frac.numerator) / x.frac.denominator
    return mp_value(x.a) + mp_value(x.b) * mpmath.sqrt(mp_value(x.tower.radicand))


def oracle(expr, prec: int = 1000) -> Fraction:
    """Evaluate a thunk under ``prec`` working bits and freeze the result."""
    with mpmath.workprec(prec):
        return mpf_fraction(expr())


def fraction_calls(run) -> dict:
    """``{function name: calls}`` of the calls ``run()`` makes into fractions.py."""
    calls: dict = {}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            calls[frame.f_code.co_name] = calls.get(frame.f_code.co_name, 0) + 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return calls
