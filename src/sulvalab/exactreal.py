"""Exact arithmetic over real quadratic towers, with certified enclosures.

A :class:`ConstructibleReal` is an element of a dynamically grown tower of
real quadratic extensions ``Q = F0 < F1 < ... < Fk`` where each level
adjoins the square root of a positive element of the level below that is
provably not a square there.  Elements are stored recursively as pairs
``a + b*sqrt(d)`` whose rational leaves are coprime ints ``num/den`` with
``den > 0`` (``frac`` views one as a ``Fraction``), kept in a canonical form
(a vanishing sqrt coefficient collapses the element to the lower level).
Canonical form makes the zero test structural, which in turn makes
:func:`sign` exact and terminating for every representable value.

A :class:`Quantity` is a linear combination ``c0 + c1*pi`` with
constructible coefficients; circle areas and circumferences live here.

Inside the kernel, a value's working enclosure is a ball of ints
``(m, r, e)``, the interval ``[(m - r) * 2**e, (m + r) * 2**e]`` (Arb's
midpoint-radius form): a node ``a + b*sqrt(d)`` costs one product of
midpoints, and every rounding widens the radius, so the ball always holds
the true value.  Signs, grid cells and decimals are decided exactly on the
ends of these balls.  An :class:`Interval` is the public certified
enclosure, with arbitrary-precision dyadic endpoints: :func:`enclose`
reports the cell of a fixed dyadic grid that holds the value, so its
endpoints are a function of the value and the precision.

pi is computed on demand from Machin's formula
``pi = 16*atan(1/5) - 4*atan(1/239)``, summed in integers with a counted
error bound, and kept as the floor of ``pi * 2**n`` for the widest ``n``
asked for so far.  Since pi is transcendental, ``c0 + c1*pi`` with
``c1 != 0`` is neither zero nor a dyadic rational, so its sign, its grid
cell and its decimals are decided by refinement alone.

All values are immutable in what they denote, and arithmetic, signs,
comparisons, enclosures and decimals depend on their arguments alone: the
kernel has no settings, and towers are at most ``MAX_TOWER_HEIGHT`` levels
tall.  Besides pure caches, the registry of towers is the only process
state: a tower opened by one call is reused by all later ones.  The memos,
pi's among them, are pure caches: they change speed, never bytes.  Each
value memoizes its latest working ball, and arithmetic shares subtrees
(and so their memos) between values: a product with 1, a sum with 0 and a
difference ``x - 0`` return the other operand itself, memo and all, a
product with 0 returns zero, and a product with any other rational walks
the other tree once.  A per-tower root memo keeps the square root of each
radicand's ball at the current working precision, reused only for an equal
ball at equal precision.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Callable, NamedTuple, Optional, TypeVar, Union

__all__ = [
    "CapacityError",
    "ConstructibleReal",
    "DomainError",
    "Dyadic",
    "Interval",
    "MAX_TOWER_HEIGHT",
    "PI",
    "Quantity",
    "UnsupportedQuantityError",
    "constructible",
    "enclose",
    "enclose_percent",
    "from_rational",
    "pi_enclosure",
    "sign",
    "sqrt",
    "structurally_equal",
    "to_decimal",
]

RationalLike = Union[int, Fraction]
Coercible = Union["ConstructibleReal", int, Fraction]


class DomainError(ValueError):
    """An argument lies outside an operation's mathematical domain."""


class CapacityError(RuntimeError):
    """A square root would open a tower taller than ``MAX_TOWER_HEIGHT``."""


class UnsupportedQuantityError(TypeError):
    """The requested quantity is not representable as ``c0 + c1*pi``."""


# --------------------------------------------------------------------------
# configuration

# the maximum height of a tower; a square root that would open a taller
# one raises CapacityError
MAX_TOWER_HEIGHT = 6
# bench/ reads this; ROADMAP item 1 (the benchmark reading in-package counters) deletes it
_DEFAULT_TOWER_CAP = MAX_TOWER_HEIGHT
# bench/ reads this; ROADMAP item 1 (the benchmark reading in-package counters) deletes it
_DEFAULT_SIGN_BITS = 256


def _whole(value: object, name: str) -> int:
    """``value`` when it is an int; a DomainError for anything else, bools
    and integral floats included.  Every precision and digit count passes
    through here."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise DomainError(f"{name} must be an int, not {value!r}")


# bench/ reads this; ROADMAP item 1 (the benchmark reading in-package counters) deletes it
def tower_cap() -> int:
    return MAX_TOWER_HEIGHT


# bench/ reads this; ROADMAP item 1 (the benchmark reading in-package counters) deletes it
def sign_refinement_bits() -> int:
    return _DEFAULT_SIGN_BITS


# --------------------------------------------------------------------------
# dyadic rationals and directed rounding


class Dyadic(NamedTuple):
    """An exact dyadic rational ``man * 2**exp`` with normalized mantissa.

    Immutable; equality and hashing are on ``(man, exp)``, ordering is by
    value.  A named tuple, because the interval kernels build one per
    rounded endpoint and a tuple is the cheapest immutable record.
    """

    man: int
    exp: int

    @staticmethod
    def of(man: int, exp: int = 0) -> "Dyadic":
        if man == 0:
            return _DY_ZERO
        shift = (man & -man).bit_length() - 1
        # tuple.__new__ skips the generated keyword-argument constructor
        return tuple.__new__(Dyadic, (man >> shift, exp + shift))

    def as_fraction(self) -> Fraction:
        if self.exp >= 0:
            return Fraction(self.man << self.exp)
        return Fraction(self.man, 1 << -self.exp)

    def as_decimal(self) -> str:
        """Exact finite decimal expansion (dyadics always have one)."""
        if self.exp >= 0:
            return _int_str(self.man << self.exp)
        k = -self.exp
        digits = _int_str(abs(self.man) * 5**k).rjust(k + 1, "0")
        head, tail = digits[:-k], digits[-k:].rstrip("0")
        body = head + ("." + tail if tail else "")
        return "-" + body if self.man < 0 else body

    def _cmp(self, other: "Dyadic") -> int:
        if self.exp >= other.exp:
            a = self.man << (self.exp - other.exp)
            b = other.man
        else:
            a = self.man
            b = other.man << (other.exp - self.exp)
        return (a > b) - (a < b)

    def __lt__(self, other: "Dyadic") -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: "Dyadic") -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: "Dyadic") -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: "Dyadic") -> bool:
        return self._cmp(other) >= 0

    def __neg__(self) -> "Dyadic":
        return tuple.__new__(Dyadic, (-self.man, self.exp)) if self.man else _DY_ZERO

    def __str__(self) -> str:
        return self.as_decimal()


_DY_ZERO = Dyadic(0, 0)


def _int_str(n: int) -> str:
    """``str(n)`` at any length, without raising the process-wide cap.

    Python converts at most 4300 digits (and never fewer than 640) in one
    step by default; longer numbers are split at a power of ten.
    """
    if n.bit_length() <= 2000:  # about 600 digits
        return str(n)
    if n < 0:
        return "-" + _int_str(-n)
    half = n.bit_length() * 3 // 20  # about half of the decimal digits
    high, low = divmod(n, 10**half)
    return _int_str(high) + _int_str(low).rjust(half, "0")


# Raw enclosures are balls of ints: (m, r, e) stands for the interval
# [(m - r) * 2**e, (m + r) * 2**e], with r >= 0, and r == 0 exactly when it
# is exact.  The kernels keep the midpoint to ``bits + 4`` significant bits
# and the radius to a few units of its last place, so a node ``a + b*s``
# costs one product of full-precision midpoints, while each radius term
# multiplies a midpoint by a radius of a few bits.  Rounding floors the
# midpoint and the radius and adds one unit for each floor.  Answers are
# decided on the ends ``(m - r, e)`` and ``(m + r, e)`` as int pairs; a
# Dyadic is built only for an endpoint of a public Interval.

_Ball = tuple[int, int, int]
_Pair = tuple[int, int]
_GUARD = 4  # midpoint bits past the working precision


def _ball_round(m: int, r: int, e: int, n: int) -> _Ball:
    """The ball ``(m, r, e)`` with its midpoint floored to ``n`` significant
    bits, or to those of the radius when it is longer; an exact ball stays
    exact while nothing is cut off."""
    shift = max(m.bit_length(), r.bit_length()) - n
    if shift <= 0:
        return m, r, e
    top = m >> shift
    if r or top << shift != m:
        r = (r >> shift) + 2
    return top, r, e + shift


def _riv_add_mul(a: _Ball, b: _Ball, s: _Ball, bits: int) -> _Ball:
    """``a + b*s``: one product of midpoints, rounded before and after the sum.

    Over the ball, ``|b*s - bm*sm| <= |bm|*sr + |sm|*br + br*sr``.
    """
    n = bits + _GUARD
    (am, ar, ae), (bm, br, be), (sm, sr, se) = a, b, s
    m, r, e = _ball_round(bm * sm, abs(bm) * sr + abs(sm) * br + br * sr, be + se, n)
    if not (am or ar):
        return m, r, e
    if ae >= e:
        m += am << (ae - e)
        r += ar << (ae - e)
    else:
        m, r, e = am + (m << (e - ae)), ar + (r << (e - ae)), ae
    return _ball_round(m, r, e, n)


def _riv_mul(a: _Ball, b: _Ball, bits: int) -> _Ball:
    # adding an exact zero leaves the product's rounding as it is
    return _riv_add_mul((0, 0, 0), a, b, bits)


def _riv_div(a: _Ball, b: _Ball, bits: int) -> _Ball:
    """``a / b`` for a ball ``b`` apart from zero: one quotient of midpoints.

    Over the balls, ``|a/b - am/bm| <= (ar*|bm| + |am|*br) / (|bm|*(|bm| - br))``.
    """
    (am, ar, ae), (bm, br, be) = a, b
    if abs(bm) <= br:
        raise DomainError("interval division by an interval containing zero")
    if bm < 0:  # a/b = (-a)/(-b)
        am, bm = -am, -bm
    shift = bits + _GUARD + bm.bit_length() - max(am.bit_length(), ar.bit_length())
    spread = ar * bm + abs(am) * br
    if shift >= 0:
        q, rest = divmod(am << shift, bm)
        spread <<= shift
        below = bm * (bm - br)
    else:
        q, rest = divmod(am, bm << -shift)
        below = bm * (bm - br) << -shift
    r = -(-spread // below) + (rest != 0)
    return q, r, ae - be - shift


def _riv_sqrt(a: _Ball, bits: int) -> _Ball:
    """The square root of a ball: one ``isqrt`` of the midpoint.

    With the midpoint scaled to ``M`` at an even exponent and ``s = isqrt(M)``,
    ``|sqrt(v) - s| < R/s + 1`` for every ``v`` within ``R`` of ``M``.
    """
    m, r, e = a
    if m + r < 0:
        raise DomainError("interval square root of a negative interval")
    # about twice the working bits, at an even exponent
    length = max(m.bit_length(), r.bit_length())
    shift = length - 2 * (bits + _GUARD)
    shift += (e + shift) & 1
    if shift > 0:
        m, r, e = _ball_round(m, r, e, length - shift)  # cuts ``shift`` bits
    else:
        m, r, e = m << -shift, r << -shift, e + shift
    if m <= r:  # the ball reaches zero: [0, sqrt(m + r)]
        top = isqrt(m + r) + (r > 0)
        return top, top, e // 2 - 1
    s = isqrt(m)
    if not r and s * s == m:
        return s, 0, e // 2
    return s, -(-r // s) + 1, e // 2


def _riv_width_ok(x: _Ball, precision_bits: int) -> bool:
    """``2r * 2**e <= 2**(1 - precision_bits) * max(1, |m + r| * 2**e)``, in integers."""
    m, r, e = x
    if not r or r << precision_bits <= abs(m + r):
        return True
    shift = e + precision_bits
    return r << shift <= 1 if shift >= 0 else r <= 1 << -shift


_T = TypeVar("_T")


def _refine(
    encloser: Callable[[int], _Ball],
    bits: int,
    decide: Callable[[_Pair, _Pair, int], Optional[_T]],
) -> _T:
    """Enclose at ``bits``, doubling it until ``decide(lo, hi, bits)`` answers
    on the ends of the ball as ``(man, exp)`` int pairs."""
    while True:
        m, r, e = encloser(bits)
        answer = decide((m - r, e), (m + r, e), bits)
        if answer is not None:
            return answer
        bits *= 2


def _interval_sign(lo: _Pair, hi: _Pair, bits: int) -> Optional[int]:
    """The sign an enclosure proves, or None while it straddles zero.

    A certified enclosure that is exactly ``[0, 0]`` proves zero.
    """
    if lo[0] > 0:
        return 1
    if hi[0] < 0:
        return -1
    if lo[0] == 0 and hi[0] == 0:
        return 0
    return None


def _grid_index(v: _Pair, precision_bits: int, up: bool) -> tuple[int, int]:
    """``(k, step)`` of the grid point ``k * 2**step`` of precision ``p`` next
    to ``v``: the least one >= v when ``up``, else the greatest one <= v.

    The grid spacing is ``2**(E + 1 - p)`` where ``E = max(0, floor(log2|v|))``.
    Every power of two from 1 up is a grid point, so the spacing changes
    only at grid points, and the grid of ``p + 1`` holds that of ``p``.
    """
    man, exp = v
    step = max(0, man.bit_length() - 1 + exp) + 1 - precision_bits
    if exp >= step:
        return man << (exp - step), step
    shift = step - exp
    return (-((-man) >> shift) if up else man >> shift), step


def _grid_cell(
    encloser: Callable[[int], _Ball],
    precision_bits: int,
    sign_at: Callable[[Dyadic], int],
) -> Interval:
    """The grid cell of precision ``precision_bits`` that holds a value.

    ``[g, g]`` when the value is the grid point ``g``, else the closed cell
    between the two grid points around it: a function of the value and the
    precision alone, whatever enclosures the memos hand out.  Enclosures
    refine from ``precision_bits + 16`` bits until one meets at most one grid
    point; ``sign_at(g)``, the exact sign of the value minus ``g``, then
    settles on which side of that point the value lies.  Both steps end for
    every value: its enclosures shrink to it, and exact signs terminate.
    """
    p = _whole(precision_bits, "precision_bits")
    if p < 4:
        raise DomainError("precision_bits must be at least 4")

    def decide(lo: _Pair, hi: _Pair, bits: int) -> Optional[Interval]:
        first, first_step = _grid_index(lo, p, True)
        last, last_step = _grid_index(hi, p, False)
        step = min(first_step, last_step)
        gap = (last << (last_step - step)) - (first << (first_step - step))
        if gap < 0:  # no grid point inside
            return Interval(Dyadic.of(last, last_step), Dyadic.of(first, first_step), p)
        if gap > 0:
            return None
        g = Dyadic.of(first, first_step)
        side = 0 if lo == hi else sign_at(g)
        if side > 0:
            return Interval(g, Dyadic.of(*_grid_index(hi, p, True)), p)
        if side < 0:
            return Interval(Dyadic.of(*_grid_index(lo, p, False)), g, p)
        return Interval(g, g, p)

    return _refine(encloser, p + 16, decide)


def _span(lo: Dyadic, hi: Dyadic) -> _Ball:
    """The ball with ends ``lo`` and ``hi``: their sum and difference on the
    finer of their grids, at half its step."""
    (lo_man, lo_exp), (hi_man, hi_exp) = lo, hi
    exp = min(lo_exp, hi_exp)
    lo_man <<= lo_exp - exp
    hi_man <<= hi_exp - exp
    return hi_man + lo_man, hi_man - lo_man, exp - 1


@dataclass(frozen=True, slots=True)
class Interval:
    """Certified enclosure ``[lo, hi]`` of a real value.

    Invariant: the true value lies in the interval and the width is at most
    ``2**(1 - precision_bits) * max(1, |hi|)``.
    """

    lo: Dyadic
    hi: Dyadic
    precision_bits: int

    def __post_init__(self) -> None:
        if _whole(self.precision_bits, "precision_bits") < 1:
            raise DomainError("precision_bits must be positive")
        lo, hi = self.lo, self.hi
        if not (
            type(lo) is type(hi) is Dyadic
            and type(lo.man) is type(lo.exp) is type(hi.man) is type(hi.exp) is int
        ):
            raise DomainError(f"interval endpoints must be Dyadics of ints, not {lo!r} and {hi!r}")
        span = _span(lo, hi)
        if span[1] < 0:
            raise DomainError("interval endpoints out of order")
        if not _riv_width_ok(span, self.precision_bits):
            raise DomainError("interval wider than its precision label allows")

    def width(self) -> Fraction:
        return self.hi.as_fraction() - self.lo.as_fraction()

    def midpoint(self) -> Fraction:
        m, _, e = _span(self.lo, self.hi)
        return Dyadic.of(m, e).as_fraction()

    def contains(self, value: Union[RationalLike, Dyadic]) -> bool:
        f = value.as_fraction() if isinstance(value, Dyadic) else Fraction(value)
        return self.lo.as_fraction() <= f <= self.hi.as_fraction()

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def is_positive(self) -> bool:
        return self.lo.man > 0

    def is_negative(self) -> bool:
        return self.hi.man < 0

    def __str__(self) -> str:
        lo = _format_scaled(_floor_scaled(self.lo, 10**12), 12)
        hi = _format_scaled(-_floor_scaled(-self.hi, 10**12), 12)
        return f"[{lo}, {hi}]"


# --------------------------------------------------------------------------
# pi on demand


def _atan_inv(x: int, one: int) -> tuple[int, int]:
    """``(s, e)`` with ``|s - one*atan(1/x)| < e``, for integers ``x, one >= 1``.

    Sums ``atan(1/x) = sum((-1)**k / ((2k+1) * x**(2k+1)))`` in integers:
    ``power`` is exactly ``one // x**(2k+1)``, so each term is truncated by
    less than one unit.  Once ``power`` is 0, the alternating tail is below
    its first term, which is below one unit.
    """
    total, power, k, x2 = 0, one // x, 0, x * x
    while power:
        term = power // (2 * k + 1)
        total += -term if k & 1 else term
        power //= x2
        k += 1
    return total, k + 1


def _pi_floor(n: int) -> int:
    """``floor(pi * 2**n)``, by Machin's ``pi = 16*atan(1/5) - 4*atan(1/239)``.

    At ``one = 2**(n + guard)`` the formula brackets ``pi * one`` within
    ``m +- e``; the floor is certain once both ends of the bracket share it.
    """
    guard = n.bit_length() + 16  # e is about 3.7 * (n + guard) + 40
    while True:
        s5, e5 = _atan_inv(5, 1 << (n + guard))
        s239, e239 = _atan_inv(239, 1 << (n + guard))
        m, e = 16 * s5 - 4 * s239, 16 * e5 + 4 * e239
        if (m - e) >> guard == (m + e) >> guard:
            return (m - e) >> guard
        guard *= 2


# The pi memo (m, n): m is floor(pi * 2**n) for the widest n asked for so
# far.  One tuple, so that no reader pairs m and n of two widenings.
_pi_memo = (3, 0)


def _riv_pi(bits: int) -> _Ball:
    """``[f, f + ulp]`` for the ``bits``-bit floor ``f = k * 2**e`` of pi, the
    tightest ``bits``-bit enclosure, as the ball ``(2k + 1, 1, e - 1)``.  A
    memo too narrow for ``bits`` at least doubles; one shift of it serves
    both ends, as pi is not dyadic, and reads only its top ``bits`` bits.
    """
    global _pi_memo
    man, n = _pi_memo
    shift = man.bit_length() - bits
    if shift < 0:
        n = max(bits - 2, 2 * n)  # pi has two integer bits
        man = _pi_floor(n)
        _pi_memo = man, n
        shift = man.bit_length() - bits
    return 2 * (man >> shift) + 1, 1, shift - n - 1


def pi_enclosure(precision_bits: int) -> Interval:
    """Certified enclosure of pi, at any precision."""
    if _whole(precision_bits, "precision_bits") < 1:
        raise DomainError("precision_bits must be positive")
    m, r, e = _riv_pi(precision_bits + 4)
    return Interval(Dyadic.of(m - r, e), Dyadic.of(m + r, e), precision_bits)


# --------------------------------------------------------------------------
# quadratic towers


class Tower:
    """One level of a quadratic extension chain; interned per parent."""

    __slots__ = ("parent", "radicand", "height", "_children")

    def __init__(self, parent: Optional["Tower"], radicand: "ConstructibleReal"):
        self.parent = parent
        self.radicand = radicand
        self.height = 1 if parent is None else parent.height + 1
        self._children: list[tuple["ConstructibleReal", "Tower"]] = []

    def __repr__(self) -> str:
        return f"<Tower h={self.height} sqrt({self.radicand})>"


# the root towers, (radicand, tower) by the radicand's (num, den)
_ROOT_INDEX: dict[tuple[int, int], tuple["ConstructibleReal", Tower]] = {}
# bench/ reads this name; ROADMAP item 1 (the benchmark reading in-package counters) deletes it
_ROOT_EXTENSIONS = _ROOT_INDEX.values()

# The per-tower root memo: tower -> (d, _riv_sqrt(d, _root_bits)) for the
# radicand's ball d at working precision _root_bits.  It is emptied
# whenever the precision changes, so it holds the towers of the current
# traversal, not a root for every tower ever made.
_ROOTS: dict[Tower, tuple[_Ball, _Ball]] = {}
_root_bits = 0


def _tower_root(tower: Tower, d: _Ball, bits: int) -> _Ball:
    """``_riv_sqrt(d, bits)`` for the radicand enclosure ``d`` of ``tower``, memoized."""
    global _root_bits
    if bits != _root_bits:
        _ROOTS.clear()
        _root_bits = bits
    memo = _ROOTS.get(tower)
    if memo is not None and (memo[0] is d or memo[0] == d):
        return memo[1]
    root = _riv_sqrt(d, bits)
    _ROOTS[tower] = (d, root)
    return root


def _extend(parent: Optional[Tower], radicand: "ConstructibleReal") -> Tower:
    """Intern-or-create the extension of ``parent`` by sqrt(radicand)."""
    height = 1 if parent is None else parent.height + 1
    if height > MAX_TOWER_HEIGHT:
        raise CapacityError(f"tower height cap {MAX_TOWER_HEIGHT} exceeded")
    if parent is None:
        # root radicands are rationals: one lookup instead of a scan
        key = radicand.num, radicand.den
        entry = _ROOT_INDEX.get(key)
        if entry is None:
            entry = _ROOT_INDEX[key] = radicand, Tower(None, radicand)
        return entry[1]
    for known, tower in parent._children:
        if _sub(known, radicand).is_zero():
            return tower
    tower = Tower(parent, radicand)
    parent._children.append((radicand, tower))
    return tower


def _is_ancestor(a: Optional[Tower], b: Optional[Tower]) -> bool:
    """True when the chain of ``a`` is a prefix of the chain of ``b``."""
    if a is None:
        return True
    t = b
    while t is not None:
        if t is a:
            return True
        t = t.parent
    return False


def _int_pair(value: object) -> tuple[int, int]:
    """An int or a Fraction as its numerator and positive denominator."""
    if isinstance(value, int):
        return int(value), 1  # a bool is an int, and prints as one
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise DomainError(f"cannot interpret {value!r} as a rational")


def _coerce(value: object) -> Optional["ConstructibleReal"]:
    if isinstance(value, ConstructibleReal):
        return value
    return _rat(*_int_pair(value)) if isinstance(value, (int, Fraction)) else None


def _comparison(
    coerce: Callable[[object], object], holds: Callable[[int, int], bool]
) -> Callable:
    """A rich comparison decided by one exact ``sign()`` of the difference."""

    def compare(self, other):
        o = coerce(other)
        if o is None:
            return NotImplemented
        return holds((self - o).sign(), 0)

    return compare


class ConstructibleReal:
    """Exact element of a quadratic tower over the rationals.

    Construct through :meth:`from_rational`, :func:`sqrt` and arithmetic;
    the raw constructor is internal.  Comparison operators decide exactly.
    """

    # rational: tower None, coprime num and den > 0, zero as 0/1; irrational: both 0
    __slots__ = ("tower", "num", "den", "a", "b", "_iv")

    tower: Optional[Tower]
    num: int
    den: int
    a: Optional["ConstructibleReal"]
    b: Optional["ConstructibleReal"]

    def __init__(self) -> None:
        raise TypeError("use ConstructibleReal.from_rational() or sqrt()")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(
        cls, numerator: RationalLike, denominator: RationalLike = 1
    ) -> "ConstructibleReal":
        """Exact rational element at tower level 0, from ints or Fractions."""
        (n, p), (d, q) = _int_pair(numerator), _int_pair(denominator)
        if d == 0:
            raise DomainError("zero denominator")
        return _reduced(n * q, p * d) if d > 0 else _reduced(-n * q, -p * d)  # (n/p) / (d/q)

    # -- structure ---------------------------------------------------------

    def is_rational(self) -> bool:
        return self.tower is None

    def is_zero(self) -> bool:
        # canonical form collapses vanishing sqrt coefficients, so the
        # structural test is exact
        return self.tower is None and self.num == 0

    @property
    def frac(self) -> Optional[Fraction]:
        """The value of a rational node as a Fraction; None when irrational."""
        return None if self.tower is not None else Fraction(self.num, self.den)

    def as_fraction(self) -> Fraction:
        if self.tower is not None:
            raise DomainError(f"{self} is irrational")
        return Fraction(self.num, self.den)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: Coercible) -> "ConstructibleReal":
        o = _coerce(other)
        return _add(self, o) if o is not None else NotImplemented

    __radd__ = __add__

    def __sub__(self, other: Coercible) -> "ConstructibleReal":
        o = _coerce(other)
        return _sub(self, o) if o is not None else NotImplemented

    def __rsub__(self, other: Coercible) -> "ConstructibleReal":
        o = _coerce(other)
        return _sub(o, self) if o is not None else NotImplemented

    def __mul__(self, other: Coercible) -> "ConstructibleReal":
        o = _coerce(other)
        return _mul(self, o) if o is not None else NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other: Coercible) -> "ConstructibleReal":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise DomainError("division by zero")
        return _mul(self, _inv(o))

    def __rtruediv__(self, other: Coercible) -> "ConstructibleReal":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero():
            raise DomainError("division by zero")
        return _mul(o, _inv(self))

    def __neg__(self) -> "ConstructibleReal":
        return _neg(self)

    def __pow__(self, exponent: int) -> "ConstructibleReal":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            if self.is_zero():
                raise DomainError("division by zero")
            return _inv(self) ** (-exponent)
        # square-and-multiply from the lowest set bit: no product with one,
        # and no squaring past the highest bit
        result: Optional[ConstructibleReal] = None
        base = self
        n = exponent
        while n:
            if n & 1:
                result = base if result is None else _mul(result, base)
            n >>= 1
            if n:
                base = _mul(base, base)
        return _ONE if result is None else result

    # -- exact comparisons -------------------------------------------------

    def sign(self) -> int:
        """Exact trichotomy (-1, 0, +1); terminates for every value.

        Every tower level is a genuine quadratic extension, so a value is
        zero only when all of its rational leaves are; its enclosure is then
        exactly ``[0, 0]`` from the first round on.  A nonzero value has
        enclosures that shrink to a nonzero real, so refinement ends.
        """
        if self.tower is None:
            return (self.num > 0) - (self.num < 0)
        return _refine(self._interval_raw, 32, _interval_sign)

    __eq__ = _comparison(_coerce, operator.eq)
    __lt__ = _comparison(_coerce, operator.lt)
    __le__ = _comparison(_coerce, operator.le)
    __gt__ = _comparison(_coerce, operator.gt)
    __ge__ = _comparison(_coerce, operator.ge)

    __hash__ = None  # type: ignore[assignment]  # equality is numeric, not structural

    # -- enclosures ----------------------------------------------------------

    def _interval_raw(self, bits: int) -> _Ball:
        """Raw enclosure at ~bits working precision as a ball ``(m, r, e)``,
        memoized.

        A rational leaf over a power of two is exact while its numerator
        fits the working bits; any other leaf costs one division, and the
        ball around its floor ``q`` is ``(2q + 1, 1, e - 1)``.  A node
        ``a + b*sqrt(d)`` costs one product of midpoints (see
        :func:`_riv_add_mul`), so an exact zero stays exactly ``(0, 0, e)``
        and decides in the first round, canonical or not.

        The memo is returned while it passes the width test for ``bits`` and
        replaced by a fresh ball otherwise.  The ball of the tower's root
        comes from the per-tower root memo when the radicand's ball and
        ``bits`` are the same as when it was stored.  Both memos are pure
        caches: every answer built on a raw enclosure (a sign, a grid cell,
        a decimal) is decided exactly, so it does not depend on which
        certified enclosure the memos hand out.
        """
        cached = self._iv
        if cached is not None and _riv_width_ok(cached, bits):
            return cached
        if self.tower is None:
            n, d = self.num, self.den
            if d & (d - 1):  # not a power of two, so n/d is no dyadic
                e = n.bit_length() - d.bit_length() - bits - _GUARD
                q = (n << -e) // d if e < 0 else n // (d << e)
                fresh = 2 * q + 1, 1, e - 1
            else:
                fresh = _ball_round(n, 0, 1 - d.bit_length(), bits + _GUARD)
        else:
            assert self.a is not None and self.b is not None
            a = self.a._interval_raw(bits)
            b = self.b._interval_raw(bits)
            d = self.tower.radicand._interval_raw(bits)
            fresh = _riv_add_mul(a, b, _tower_root(self.tower, d, bits), bits)
        self._iv = fresh
        return fresh

    def enclose(self, precision_bits: int) -> Interval:
        return enclose(self, precision_bits)

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        if self.tower is None:
            # str(int) raises past Python's int/str digit limit
            num = _int_str(self.num)
            return num if self.den == 1 else f"{num}/{_int_str(self.den)}"
        assert self.a is not None and self.b is not None
        return _sum_str(self.a, self.b, f"sqrt({self.tower.radicand})")

    def __repr__(self) -> str:
        return f"ConstructibleReal({str(self)!r})"


def _rat(n: int, d: int) -> ConstructibleReal:
    """The rational node ``n/d``, for coprime ``n`` and ``d > 0``."""
    x = object.__new__(ConstructibleReal)
    x.tower = None
    x.num = n
    x.den = d
    x.a = None
    x.b = None
    x._iv = None
    return x


def _reduced(n: int, d: int) -> ConstructibleReal:
    """The rational node ``n/d``, for ``d > 0``."""
    g = gcd(n, d)
    return _rat(n // g, d // g)


def _node(tower: Tower, a: ConstructibleReal, b: ConstructibleReal) -> ConstructibleReal:
    """``a + b*sqrt(d)`` on ``tower``, in canonical form: ``a`` when ``b`` is zero."""
    if b.is_zero():
        return a
    x = object.__new__(ConstructibleReal)
    x.tower = tower
    x.num = x.den = 0
    x.a = a
    x.b = b
    x._iv = None
    return x


_ZERO = _rat(0, 1)
_ONE = _rat(1, 1)


def constructible(value: Coercible) -> ConstructibleReal:
    """Coerce an int, Fraction or ConstructibleReal to a ConstructibleReal."""
    x = _coerce(value)
    if x is None:
        raise DomainError(f"cannot interpret {value!r} as a constructible real")
    return x


def from_rational(numerator: RationalLike, denominator: RationalLike = 1) -> ConstructibleReal:
    return ConstructibleReal.from_rational(numerator, denominator)


# -- internal field arithmetic (operands at arbitrary tower levels) ----------


def _common(
    x: ConstructibleReal, y: ConstructibleReal
) -> tuple[ConstructibleReal, ConstructibleReal]:
    """Re-express operands so both live on one tower chain."""
    if _is_ancestor(x.tower, y.tower) or _is_ancestor(y.tower, x.tower):
        return x, y
    assert x.tower is not None and y.tower is not None
    embed = _embed_into(x.tower, y.tower)
    return x, embed(y)


def _embed_into(
    base: Tower, source: Tower
) -> Callable[[ConstructibleReal], ConstructibleReal]:
    """Embedding of the field of ``source`` into an extension of ``base``.

    Each generator of the source chain is either located inside the target
    chain (square detection) or adjoined on top; either way values map
    exactly, so cross-tower arithmetic stays exact.
    """
    chain: list[Tower] = []
    t: Optional[Tower] = source
    while t is not None:
        chain.append(t)
        t = t.parent
    chain.reverse()

    generators: dict[int, ConstructibleReal] = {}
    target = base

    def embed(e: ConstructibleReal) -> ConstructibleReal:
        if e.tower is None:
            return e
        gen = generators.get(id(e.tower))
        if gen is None:
            # shared prefix of both chains; already valid in the target
            return e
        assert e.a is not None and e.b is not None
        return _add(embed(e.a), _mul(embed(e.b), gen))

    for level in chain:
        if _is_ancestor(level, base):
            continue
        root = generators[id(level)] = _root(target, embed(level.radicand))
        if root.tower is not None and root.tower.parent is target:
            target = root.tower  # adjoined on top
    return embed


def _add(x: ConstructibleReal, y: ConstructibleReal, s: int = 1) -> ConstructibleReal:
    """``x + s*y`` for ``s`` 1 or -1: the sign reaches ``y`` at its leaves,
    so a difference never builds ``-y``."""
    tx, ty = x.tower, y.tower
    if tx is None and ty is None:
        if x.den == y.den:
            return _reduced(x.num + s * y.num, x.den)
        return _reduced(x.num * y.den + s * y.num * x.den, x.den * y.den)
    # share the other operand, memo and all, instead of copying its tree
    if ty is None and not y.num:
        return x
    if tx is None and not x.num:
        return y if s > 0 else _neg(y)
    if tx is not ty:
        x, y = _common(x, y)
        tx, ty = x.tower, y.tower
    if tx is ty:
        return _node(tx, _add(x.a, y.a, s), _add(x.b, y.b, s))
    if ty is None or (tx is not None and tx.height > ty.height):
        # y lies below the top level, so it adds to x's first coefficient only
        return _node(tx, _add(x.a, y, s), x.b)
    return _node(ty, _add(x, y.a, s), y.b if s > 0 else _neg(y.b))


def _sum_str(a: ConstructibleReal, b: ConstructibleReal, generator: str) -> str:
    """``a + b*generator`` for a nonzero ``b``: the sign of ``b`` becomes the
    operator, a unit coefficient is dropped, an irrational one is
    parenthesised, and a zero ``a`` is left out."""
    negative = b.sign() < 0
    b_abs = _neg(b) if negative else b
    if b_abs.tower is not None:
        term = f"({b_abs})*{generator}"
    else:
        term = generator if b_abs.num == b_abs.den == 1 else f"{b_abs}*{generator}"
    if a.is_zero():
        return f"-{term}" if negative else term
    return f"{a}{' - ' if negative else ' + '}{term}"


def _neg(x: ConstructibleReal) -> ConstructibleReal:
    if x.tower is None:
        return _rat(-x.num, x.den)
    assert x.a is not None and x.b is not None
    return _node(x.tower, _neg(x.a), _neg(x.b))


def _sub(x: ConstructibleReal, y: ConstructibleReal) -> ConstructibleReal:
    return _add(x, y, -1)


def _mul(x: ConstructibleReal, y: ConstructibleReal) -> ConstructibleReal:
    if x.tower is None:
        if y.tower is None:
            # cancel across first, so the product is already coprime
            xn, xd, yn, yd = x.num, x.den, y.num, y.den
            g, h = gcd(xn, yd), gcd(yn, xd)
            return _rat((xn // g) * (yn // h), (xd // h) * (yd // g))
        x, y = y, x
    if y.tower is None:
        # a rational factor: 1 shares x, memo and all, and 0 is zero
        if y.num == y.den:
            return x
        if not y.num:
            return _ZERO
    elif x.tower is not y.tower:
        x, y = _common(x, y)
        if x.tower.height < y.tower.height:
            x, y = y, x
    tower = x.tower
    assert x.a is not None and x.b is not None
    # a factor below the top level, a rational one too, is a scalar there:
    # 2 sub-products, down to the leaves
    if y.tower is not tower:
        return _node(tower, _mul(x.a, y), _mul(x.b, y))
    assert y.a is not None and y.b is not None
    # Karatsuba, r = sqrt(d): (a + b*r)(c + e*r) = ac + d*be + ((a + b)(c + e) - (ac + be))*r
    ac = _mul(x.a, y.a)
    be = _mul(x.b, y.b)
    cross = _mul(_add(x.a, x.b), _add(y.a, y.b))
    return _node(tower, _add(ac, _mul(be, tower.radicand)), _sub(cross, _add(ac, be)))


def _inv(x: ConstructibleReal) -> ConstructibleReal:
    if x.tower is None:
        if x.num == 0:
            raise DomainError("division by zero")
        return _rat(x.den, x.num) if x.num > 0 else _rat(-x.den, -x.num)
    assert x.a is not None and x.b is not None
    # 1/(a + b*sqrt(d)) = (a - b*sqrt(d)) / (a^2 - d*b^2); the conjugate norm
    # of a canonical nonzero element is nonzero one level down
    inv_norm = _inv(_norm(x))
    return _node(x.tower, _mul(x.a, inv_norm), _neg(_mul(x.b, inv_norm)))


def _norm(x: ConstructibleReal) -> ConstructibleReal:
    """The conjugate norm ``a**2 - d*b**2`` of ``x = a + b*sqrt(d)``, one level down."""
    assert x.tower is not None and x.a is not None and x.b is not None
    return _sub(_mul(x.a, x.a), _mul(_mul(x.b, x.b), x.tower.radicand))


# bench/ reads this; ROADMAP item 1 (the benchmark reading in-package counters) deletes it
def _norm_is_zero(x: ConstructibleReal) -> bool:
    """Exact zero decision by recursive conjugate norms.

    No library code calls it; the tests use it as an independent zero oracle.
    """
    if x.tower is None:
        return x.num == 0
    return _norm_is_zero(_norm(x))


# -- square roots -------------------------------------------------------------


def _square_part(value: int) -> tuple[int, int]:
    """Split ``value = s*s*k`` with small square factors moved into ``s``."""
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


def _sqrt_rational(n: int, d: int) -> ConstructibleReal:
    """sqrt(n/d) = (s/d)*sqrt(kernel), from n*d = s*s*kernel."""
    s, kernel = _square_part(n * d)
    coefficient = _reduced(s, d)
    if kernel == 1:
        return coefficient
    tower = _extend(None, _rat(kernel, 1))
    return _node(tower, _ZERO, coefficient)


def _sqrt_within(
    tower: Optional[Tower], x: ConstructibleReal
) -> Optional[ConstructibleReal]:
    """A square root of ``x`` inside the field of ``tower``, if one exists."""
    if tower is None:
        assert x.tower is None
        if x.num < 0:
            return None
        rn, rd = isqrt(x.num), isqrt(x.den)
        if rn * rn == x.num and rd * rd == x.den:
            return _rat(rn, rd)
        return None
    d = tower.radicand
    if x.tower is not tower:
        # x already lives one or more levels down: x = x + 0*sqrt(d)
        below = _sqrt_within(tower.parent, x)
        if below is not None:
            return below
        quotient = _mul(x, _inv(d))
        if quotient.sign() >= 0:
            half = _sqrt_within(tower.parent, quotient)
            if half is not None:
                return _node(tower, _ZERO, half)
        return None
    assert x.a is not None and x.b is not None
    x0, x1 = x.a, x.b
    norm = _norm(x)
    if norm.sign() < 0:
        return None
    root_norm = _sqrt_within(tower.parent, norm)
    if root_norm is None:
        return None
    for s in (1, -1):
        half = _mul(_add(x0, root_norm, s), _rat(1, 2))
        if half.sign() <= 0:
            continue
        a = _sqrt_within(tower.parent, half)
        if a is None or a.is_zero():
            continue
        b = _mul(x1, _inv(_mul(_rat(2, 1), a)))
        candidate = _node(tower, a, b)
        if _sub(_mul(candidate, candidate), x).is_zero():
            return candidate
    return None


def _root(tower: Tower, x: ConstructibleReal) -> ConstructibleReal:
    """The positive square root of a positive ``x`` over ``tower``: found in
    its field, or adjoined as a new level on top of it."""
    found = _sqrt_within(tower, x)
    if found is None:
        return _node(_extend(tower, x), _ZERO, _ONE)
    return found if found.sign() > 0 else _neg(found)


def sqrt(value: Coercible) -> ConstructibleReal:
    """Exact square root; reuses the value's tower or adjoins a new level."""
    x = constructible(value)
    s = x.sign()
    if s < 0:
        raise DomainError("square root of a negative value")
    if s == 0:
        return _ZERO
    if x.tower is None:
        return _sqrt_rational(x.num, x.den)
    return _root(x.tower, x)


def sign(value: Coercible) -> int:
    return constructible(value).sign()


def structurally_equal(x: ConstructibleReal, y: ConstructibleReal) -> bool:
    if x.tower is None or y.tower is None:
        return x.tower is y.tower and x.num == y.num and x.den == y.den
    if x.tower is not y.tower:
        return False
    assert x.a is not None and x.b is not None
    assert y.a is not None and y.b is not None
    return structurally_equal(x.a, y.a) and structurally_equal(x.b, y.b)


def enclose(value: Coercible, precision_bits: int) -> Interval:
    """Certified interval containing the value, at relative width 2**(1-p):
    the cell of a fixed dyadic grid that holds it (see :func:`_grid_cell`)."""
    x = constructible(value)
    return _grid_cell(x._interval_raw, precision_bits, lambda g: _sub(x, _grid_point(g)).sign())


def _grid_point(g: Dyadic) -> ConstructibleReal:
    """The rational node of a normalized dyadic (odd mantissa, so coprime)."""
    man, exp = g
    return _rat(man << exp, 1) if exp >= 0 else _rat(man, 1 << -exp)


# --------------------------------------------------------------------------
# pi-linear quantities


def _coerce_quantity(value: object) -> Optional["Quantity"]:
    if isinstance(value, Quantity):
        return value
    inner = _coerce(value)
    if inner is None:
        return None
    return Quantity(inner, 0)


class Quantity:
    """Exact linear combination ``c0 + c1*pi`` of constructible reals."""

    __slots__ = ("c0", "c1")

    def __init__(self, c0: Coercible = 0, c1: Coercible = 0):
        object.__setattr__(self, "c0", constructible(c0))
        object.__setattr__(self, "c1", constructible(c1))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Quantity is immutable")

    # -- structure ---------------------------------------------------------

    def is_constant(self) -> bool:
        return self.c1.is_zero()

    def constant_part(self) -> ConstructibleReal:
        """The c0 component, valid as the whole value only when c1 == 0."""
        if not self.is_constant():
            raise UnsupportedQuantityError(f"{self} has a nonzero pi part")
        return self.c0

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: object) -> "Quantity":
        o = _coerce_quantity(other)
        if o is None:
            return NotImplemented
        return Quantity(self.c0 + o.c0, self.c1 + o.c1)

    __radd__ = __add__

    def __sub__(self, other: object) -> "Quantity":
        o = _coerce_quantity(other)
        if o is None:
            return NotImplemented
        return Quantity(self.c0 - o.c0, self.c1 - o.c1)

    def __rsub__(self, other: object) -> "Quantity":
        o = _coerce_quantity(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> "Quantity":
        return Quantity(-self.c0, -self.c1)

    def scale(self, factor: Coercible) -> "Quantity":
        k = constructible(factor)
        return Quantity(self.c0 * k, self.c1 * k)

    def __mul__(self, other: object) -> "Quantity":
        o = _coerce_quantity(other)
        if o is None:
            return NotImplemented
        if not self.c1.is_zero() and not o.c1.is_zero():
            raise UnsupportedQuantityError(
                "product of two pi-quantities needs pi**2, "
                "which is not representable"
            )
        return Quantity(
            self.c0 * o.c0,
            self.c0 * o.c1 + self.c1 * o.c0,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "Quantity":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise DomainError("division by zero")
        return self.scale(_inv(o))

    # -- exact comparisons ---------------------------------------------------

    def sign(self) -> int:
        """Exact sign; terminates for every value.

        With ``c1 == 0`` it is the sign of ``c0``.  Otherwise the value is
        not zero: ``c0`` and ``c1`` are algebraic and pi is transcendental
        (Lindemann, 1882), so ``c0 + c1*pi = 0`` would make pi the algebraic
        ``-c0/c1``.  pi is computed to as many bits as a round asks for, so
        the enclosures shrink to that nonzero real and one excludes zero.
        """
        if self.c1.is_zero():
            return self.c0.sign()
        if self.c0.is_zero():
            return self.c1.sign()
        return _refine(self._interval_raw, 32, _interval_sign)

    __eq__ = _comparison(_coerce_quantity, operator.eq)
    __lt__ = _comparison(_coerce_quantity, operator.lt)
    __le__ = _comparison(_coerce_quantity, operator.le)
    __gt__ = _comparison(_coerce_quantity, operator.gt)
    __ge__ = _comparison(_coerce_quantity, operator.ge)

    __hash__ = None  # type: ignore[assignment]

    # -- enclosures ------------------------------------------------------------

    def _interval_raw(self, bits: int) -> _Ball:
        base = self.c0._interval_raw(bits)
        if self.c1.is_zero():
            return base
        coef = self.c1._interval_raw(bits)
        return _riv_add_mul(base, coef, _riv_pi(bits), bits)

    def enclose(self, precision_bits: int) -> Interval:
        return _grid_cell(
            self._interval_raw, precision_bits, lambda g: (self - _grid_point(g)).sign()
        )

    # -- rendering ----------------------------------------------------------------

    def __str__(self) -> str:
        if self.c1.is_zero():
            return str(self.c0)
        return _sum_str(self.c0, self.c1, "pi")

    def __repr__(self) -> str:
        return f"Quantity({str(self)!r})"


PI = Quantity(0, 1)


def enclose_percent(num: Quantity, den: Quantity, precision_bits: int) -> Interval:
    """The grid cell of ``precision_bits`` holding ``100*num/den``."""

    # a nonzero den has enclosures apart from zero from some precision on;
    # the ball with ends lo and hi is (lo + hi, hi - lo) at half their step
    def apart(lo: _Pair, hi: _Pair, bits: int) -> Optional[_Ball]:
        if lo[0] == 0 == hi[0]:  # a certified [0, 0]
            raise DomainError("division by zero")
        return (lo[0] + hi[0], hi[0] - lo[0], lo[1] - 1) if lo[0] > 0 or hi[0] < 0 else None

    def percent(bits: int) -> _Ball:
        d = _refine(den._interval_raw, bits, apart)
        return _riv_mul(_riv_div(num._interval_raw(bits), d, bits), (100, 0, 0), bits)

    def sign_at(g: Dyadic) -> int:
        # 100*num/den - g has the sign of (100*num - g*den)*den
        return (num.scale(100) - den.scale(_grid_point(g))).sign() * den.sign()

    return _grid_cell(percent, precision_bits, sign_at)


# --------------------------------------------------------------------------
# decimal rendering


def _floor_scaled(d: _Pair, scale: int) -> int:
    """``floor(d * scale)``; ``>>`` floors negative values too."""
    man, exp = d
    return man * scale << exp if exp >= 0 else man * scale >> -exp


def _nearest_scaled(d: _Pair, scale: int) -> int:
    """``floor(d * scale + 1/2)``, as ``(2*man*scale + 2**-exp) * 2**(exp - 1)``."""
    man, exp = d
    return man * scale << exp if exp >= 0 else ((man * scale << 1) + (1 << -exp)) >> (1 - exp)


def _format_scaled(units: int, digits: int) -> str:
    sign_prefix = "-" if units < 0 else ""
    text = _int_str(abs(units)).rjust(digits + 1, "0")
    if digits == 0:
        return sign_prefix + text
    return f"{sign_prefix}{text[:-digits]}.{text[-digits:]}"


def _decimal_exact(n: int, d: int, digits: int) -> str:
    units, rest = divmod(n * 10**digits, d)
    if rest == 0:
        text = _format_scaled(units, digits)
        if "." in text:
            text = text.rstrip("0").rstrip(".")
        return text
    # round half to even: up past the half, and at it from an odd units
    units += 2 * rest + (units & 1) > d
    return _format_scaled(units, digits) + "…"


def to_decimal(value: Union[Coercible, Quantity], digits: int) -> str:
    """Decimal rendering with ``digits`` fractional digits.

    Rounds to nearest from a sufficient enclosure and appends a trailing
    ellipsis whenever the printed decimal is not the exact value.  Ties can
    only occur for rational inputs and round half to even.
    """
    if _whole(digits, "digits") < 0:
        raise DomainError("digits must be nonnegative")
    if isinstance(value, Quantity):
        if value.is_constant():
            return to_decimal(value.c0, digits)
        encloser = value._interval_raw
    else:
        x = constructible(value)
        if x.tower is None:
            return _decimal_exact(x.num, x.den, digits)
        encloser = x._interval_raw
    # irrational, so on no rounding boundary: refine until both ends agree
    scale = 10**digits

    def decide(lo: _Pair, hi: _Pair, bits: int) -> Optional[str]:
        n_lo = _nearest_scaled(lo, scale)
        return _format_scaled(n_lo, digits) + "…" if n_lo == _nearest_scaled(hi, scale) else None

    # 10/3 > log2(10): start where a round can reach the last digit; the
    # answer is the same from any start, only the number of rounds changes
    return _refine(encloser, 64 + digits * 10 // 3, decide)
