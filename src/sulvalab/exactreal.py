"""Exact arithmetic over real quadratic towers, with certified enclosures.

A :class:`ConstructibleReal` is an element of a dynamically grown tower of
real quadratic extensions ``Q = F0 < F1 < ... < Fk`` where each level
adjoins the square root of a positive element of the level below that is
provably not a square there.  Elements are stored recursively as pairs
``a + b*sqrt(d)`` with exact ``Fraction`` leaves, kept in a canonical form
(a vanishing sqrt coefficient collapses the element to the lower level).
Canonical form makes the zero test structural, which in turn makes
:func:`sign` exact and terminating for every representable value.

A :class:`Quantity` is a linear combination ``c0 + c1*pi`` with
constructible coefficients; circle areas and circumferences live here.

An :class:`Interval` is a certified enclosure with arbitrary-precision
dyadic endpoints; every operation rounds outward, so a reported interval
always contains the true real value.  :func:`enclose` reports the cell of a
fixed dyadic grid that holds the value, so its endpoints are a function of
the value and the precision.

pi is computed on demand from Machin's formula
``pi = 16*atan(1/5) - 4*atan(1/239)``, summed in integers with a counted
error bound, and kept as the floor of ``pi * 2**n`` for the widest ``n``
asked for so far.  Since pi is transcendental, ``c0 + c1*pi`` with
``c1 != 0`` is neither zero nor a dyadic rational, so its sign, its grid
cell and its decimals are decided by refinement alone.

All values are immutable in what they denote, and arithmetic, signs,
comparisons, enclosures and decimals depend on their arguments alone.  The
tower cap (:func:`set_tower_cap`) and the registry of towers are process
state: every new square root reads the cap, and a tower opened by one call
is reused by all later ones.  The memos, pi's among them, are pure
caches: they change speed, never bytes.  Each value memoizes its latest
working enclosure, and arithmetic shares subtrees (and so their memos)
between values; a per-tower root memo keeps the square root of each
radicand's enclosure at the current working precision, reused only for an
equal enclosure at equal precision.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Callable, NamedTuple, Optional, TypeVar, Union

__all__ = [
    "CapacityError",
    "ConstructibleReal",
    "DomainError",
    "Dyadic",
    "Interval",
    "PI",
    "Quantity",
    "UnsupportedQuantityError",
    "constructible",
    "enclose",
    "enclose_percent",
    "from_rational",
    "normalize",
    "pi_enclosure",
    "set_tower_cap",
    "sign",
    "sqrt",
    "structurally_equal",
    "to_decimal",
    "tower_cap",
]

RationalLike = Union[int, Fraction]
Coercible = Union["ConstructibleReal", int, Fraction]


class DomainError(ValueError):
    """An argument lies outside an operation's mathematical domain."""


class CapacityError(RuntimeError):
    """The configured tower height cap was hit."""


class UnsupportedQuantityError(TypeError):
    """The requested quantity is not representable as ``c0 + c1*pi``."""


# --------------------------------------------------------------------------
# configuration

_DEFAULT_TOWER_CAP = 6
# bench/ reads this; ROADMAP item 3 (the benchmark reading in-package counters) deletes it
_DEFAULT_SIGN_BITS = 256

_tower_cap = _DEFAULT_TOWER_CAP


def set_tower_cap(height: int) -> None:
    """Set the maximum tower height for newly adjoined square roots."""
    if height < 1:
        raise DomainError("tower cap must be at least 1")
    global _tower_cap
    _tower_cap = height


def tower_cap() -> int:
    return _tower_cap


# bench/ reads this; ROADMAP item 3 (the benchmark reading in-package counters) deletes it
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
        return Dyadic(-self.man, self.exp) if self.man else _DY_ZERO

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


def _fraction_floor(value: Fraction, bits: int) -> Dyadic:
    """Largest dyadic with about ``bits`` significant bits that is <= value."""
    n, d = value.numerator, value.denominator
    if n == 0:
        return _DY_ZERO
    grid = n.bit_length() - d.bit_length() - bits
    if grid >= 0:
        q = n // (d << grid)
    else:
        q = (n << -grid) // d
    return Dyadic.of(q, grid)


def _fraction_ceil(value: Fraction, bits: int) -> Dyadic:
    n, d = value.numerator, value.denominator
    if n == 0:
        return _DY_ZERO
    grid = n.bit_length() - d.bit_length() - bits
    if grid >= 0:
        q = -((-n) // (d << grid))
    else:
        q = -(((-n) << -grid) // d)
    return Dyadic.of(q, grid)


def _round_floor(man: int, exp: int, bits: int) -> Dyadic:
    """Largest dyadic with at most ``bits`` significant bits <= man * 2**exp."""
    shift = man.bit_length() - bits
    if shift <= 0:
        return Dyadic.of(man, exp)
    return Dyadic.of(man >> shift, exp + shift)


def _round_ceil(man: int, exp: int, bits: int) -> Dyadic:
    shift = man.bit_length() - bits
    if shift <= 0:
        return Dyadic.of(man, exp)
    return Dyadic.of(-((-man) >> shift), exp + shift)


def _sqrt_floor(x: Dyadic, bits: int) -> Dyadic:
    """Dyadic lower bound for sqrt(x), x >= 0."""
    if x.man == 0:
        return _DY_ZERO
    r = _round_floor(x.man, x.exp, 2 * bits + 4)
    grid = (r.man.bit_length() + r.exp + 1) // 2 - bits - 2
    grid = min(grid, r.exp // 2)
    return Dyadic.of(isqrt(r.man << (r.exp - 2 * grid)), grid)


def _sqrt_ceil(x: Dyadic, bits: int) -> Dyadic:
    if x.man == 0:
        return _DY_ZERO
    r = _round_ceil(x.man, x.exp, 2 * bits + 4)
    grid = (r.man.bit_length() + r.exp + 1) // 2 - bits - 2
    grid = min(grid, r.exp // 2)
    scaled = r.man << (r.exp - 2 * grid)
    s = isqrt(scaled)
    if s * s != scaled:
        s += 1
    return Dyadic.of(s, grid)


# raw enclosures are (lo, hi) pairs of Dyadic, rounded outward at each step.
# The multiply, add-multiply and width kernels work on integer mantissas: they
# align exponents by shifting and keep bits + 1 significant bits, which is
# the grid _fraction_floor and _fraction_ceil pick for the same value, so
# they return the same dyadics without a gcd.

_Raw = tuple[Dyadic, Dyadic]


def _riv_from_fraction(f: Fraction, bits: int) -> _Raw:
    return _fraction_floor(f, bits), _fraction_ceil(f, bits)


def _riv_add_mul(a: _Raw, b: _Raw, r: _Raw, bits: int) -> _Raw:
    """``a + b*r``: the product rounded outward to ``bits + 1`` bits, then the sum.

    A rounding to n significant bits depends on the value alone, not on its
    (mantissa, exponent) form, so the product stays an unnormalized integer
    pair and only the two results become dyadics.
    """
    n = bits + 1
    (bl_man, bl_exp), (bh_man, bh_exp) = b
    (rl_man, rl_exp), (rh_man, rh_exp) = r
    exp = min(bl_exp, bh_exp) + min(rl_exp, rh_exp)
    products = (
        bl_man * rl_man << (bl_exp + rl_exp - exp),
        bl_man * rh_man << (bl_exp + rh_exp - exp),
        bh_man * rl_man << (bh_exp + rl_exp - exp),
        bh_man * rh_man << (bh_exp + rh_exp - exp),
    )
    lo, hi = min(products), max(products)
    lo_exp = hi_exp = exp
    shift = lo.bit_length() - n
    if shift > 0:
        lo, lo_exp = lo >> shift, exp + shift
    shift = hi.bit_length() - n
    if shift > 0:
        hi, hi_exp = -((-hi) >> shift), exp + shift
    (al_man, al_exp), (ah_man, ah_exp) = a
    if al_exp >= lo_exp:
        lo += al_man << (al_exp - lo_exp)
    else:
        lo, lo_exp = al_man + (lo << (lo_exp - al_exp)), al_exp
    if ah_exp >= hi_exp:
        hi += ah_man << (ah_exp - hi_exp)
    else:
        hi, hi_exp = ah_man + (hi << (hi_exp - ah_exp)), ah_exp
    return _round_floor(lo, lo_exp, n), _round_ceil(hi, hi_exp, n)


_RAW_ZERO = (_DY_ZERO, _DY_ZERO)


def _riv_mul(a: _Raw, b: _Raw, bits: int) -> _Raw:
    # adding an exact zero leaves the product's rounding as it is
    return _riv_add_mul(_RAW_ZERO, a, b, bits)


def _riv_div(a: _Raw, b: _Raw, bits: int) -> _Raw:
    if b[0].man <= 0 <= b[1].man:
        raise DomainError("interval division by an interval containing zero")
    a0, a1 = a[0].as_fraction(), a[1].as_fraction()
    b0, b1 = b[0].as_fraction(), b[1].as_fraction()
    quotients = (a0 / b0, a0 / b1, a1 / b0, a1 / b1)
    return _fraction_floor(min(quotients), bits), _fraction_ceil(max(quotients), bits)


def _riv_sqrt(a: _Raw, bits: int) -> _Raw:
    if a[1].man < 0:
        raise DomainError("interval square root of a negative interval")
    lo = _DY_ZERO if a[0].man < 0 else _sqrt_floor(a[0], bits)
    return lo, _sqrt_ceil(a[1], bits)


def _riv_width_ok(lo: Dyadic, hi: Dyadic, precision_bits: int) -> bool:
    """``hi - lo <= 2**(1 - precision_bits) * max(1, |hi|)``, in integers."""
    (lo_man, lo_exp), (hi_man, hi_exp) = lo, hi
    if hi_exp >= lo_exp:
        width, width_exp = (hi_man << (hi_exp - lo_exp)) - lo_man, lo_exp
    else:
        width, width_exp = hi_man - (lo_man << (lo_exp - hi_exp)), hi_exp
    if hi_man and hi_man.bit_length() + hi_exp > 0:  # |hi| >= 1
        scale, scale_exp = abs(hi_man), hi_exp + 1 - precision_bits
    else:
        scale, scale_exp = 1, 1 - precision_bits
    if width_exp >= scale_exp:
        return width << (width_exp - scale_exp) <= scale
    return width <= scale << (scale_exp - width_exp)


_T = TypeVar("_T")


def _refine(
    encloser: Callable[[int], _Raw],
    bits: int,
    decide: Callable[[Dyadic, Dyadic, int], Optional[_T]],
) -> _T:
    """Enclose at ``bits``, doubling it until ``decide(lo, hi, bits)`` answers."""
    while True:
        lo, hi = encloser(bits)
        answer = decide(lo, hi, bits)
        if answer is not None:
            return answer
        bits *= 2


def _interval_sign(lo: Dyadic, hi: Dyadic, bits: int) -> Optional[int]:
    """The sign an enclosure proves, or None while it straddles zero.

    A certified enclosure that is exactly ``[0, 0]`` proves zero.
    """
    if lo.man > 0:
        return 1
    if hi.man < 0:
        return -1
    if lo.man == 0 and hi.man == 0:
        return 0
    return None


def _grid_index(v: Dyadic, precision_bits: int, up: bool) -> tuple[int, int]:
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
    encloser: Callable[[int], _Raw],
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
    p = precision_bits
    if p < 4:
        raise DomainError("precision_bits must be at least 4")

    def decide(lo: Dyadic, hi: Dyadic, bits: int) -> Optional[Interval]:
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
        if self.precision_bits < 1:
            raise DomainError("precision_bits must be positive")
        if self.lo > self.hi:
            raise DomainError("interval endpoints out of order")
        if not _riv_width_ok(self.lo, self.hi, self.precision_bits):
            raise DomainError("interval wider than its precision label allows")

    def width(self) -> Fraction:
        return self.hi.as_fraction() - self.lo.as_fraction()

    def midpoint(self) -> Fraction:
        (lo_man, lo_exp), (hi_man, hi_exp) = self.lo, self.hi
        exp = min(lo_exp, hi_exp)
        total = (lo_man << (lo_exp - exp)) + (hi_man << (hi_exp - exp))
        return Dyadic.of(total, exp - 1).as_fraction()

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
        lo = _decimal_floor(self.lo.as_fraction(), 12)
        hi = _decimal_ceil(self.hi.as_fraction(), 12)
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


def _riv_pi(bits: int) -> _Raw:
    """``[f, f + ulp]`` for the ``bits``-bit floor ``f`` of pi: the tightest
    ``bits``-bit enclosure.  A memo too narrow for ``bits`` at least doubles;
    one shift of it serves both ends, as pi is not dyadic, and reads only its
    top ``bits`` bits.
    """
    global _pi_memo
    man, n = _pi_memo
    shift = man.bit_length() - bits
    if shift < 0:
        n = max(bits - 2, 2 * n)  # pi has two integer bits
        man = _pi_floor(n)
        _pi_memo = man, n
        shift = man.bit_length() - bits
    man, exp = man >> shift, shift - n
    return Dyadic.of(man, exp), Dyadic.of(man + 1, exp)


def pi_enclosure(precision_bits: int) -> Interval:
    """Certified enclosure of pi, at any precision."""
    if precision_bits < 1:
        raise DomainError("precision_bits must be positive")
    lo, hi = _riv_pi(precision_bits + 4)
    return Interval(lo, hi, precision_bits)


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


_ROOT_EXTENSIONS: list[tuple["ConstructibleReal", "Tower"]] = []
_ROOT_INDEX: dict[Fraction, Tower] = {}  # the same towers, by rational radicand

# The per-tower root memo: tower -> (d, _riv_sqrt(d, _root_bits)) for the
# radicand's enclosure d at working precision _root_bits.  It is emptied
# whenever the precision changes, so it holds the towers of the current
# traversal, not a root for every tower ever made.
_ROOTS: dict[Tower, tuple[_Raw, _Raw]] = {}
_root_bits = 0


def _tower_root(tower: Tower, d: _Raw, bits: int) -> _Raw:
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
    if height > _tower_cap:
        raise CapacityError(
            f"tower height cap {_tower_cap} exceeded; "
            "raise it with set_tower_cap() if intended"
        )
    if parent is None:
        # root radicands are rationals: one lookup instead of a scan
        assert radicand.frac is not None
        tower = _ROOT_INDEX.get(radicand.frac)
        if tower is None:
            tower = _ROOT_INDEX[radicand.frac] = Tower(None, radicand)
            _ROOT_EXTENSIONS.append((radicand, tower))
        return tower
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


def _coerce(value: object) -> Optional["ConstructibleReal"]:
    if isinstance(value, ConstructibleReal):
        return value
    if isinstance(value, (int, Fraction)):
        return _rational(Fraction(value))
    return None


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

    __slots__ = ("tower", "frac", "a", "b", "_iv")

    tower: Optional[Tower]
    frac: Optional[Fraction]
    a: Optional["ConstructibleReal"]
    b: Optional["ConstructibleReal"]

    def __init__(self) -> None:
        raise TypeError("use ConstructibleReal.from_rational() or sqrt()")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, numerator: int, denominator: int = 1) -> "ConstructibleReal":
        """Exact rational element at tower level 0."""
        if denominator == 0:
            raise DomainError("zero denominator")
        return _rational(Fraction(numerator, denominator))

    # -- structure ---------------------------------------------------------

    def is_rational(self) -> bool:
        return self.tower is None

    def is_zero(self) -> bool:
        # canonical form collapses vanishing sqrt coefficients, so the
        # structural test is exact
        return self.tower is None and self.frac == 0

    def as_fraction(self) -> Fraction:
        if self.tower is not None:
            raise DomainError(f"{self} is irrational")
        assert self.frac is not None
        return self.frac

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
            f = self.frac
            assert f is not None
            return (f > 0) - (f < 0)
        return _refine(self._interval_raw, 32, _interval_sign)

    __eq__ = _comparison(_coerce, operator.eq)
    __lt__ = _comparison(_coerce, operator.lt)
    __le__ = _comparison(_coerce, operator.le)
    __gt__ = _comparison(_coerce, operator.gt)
    __ge__ = _comparison(_coerce, operator.ge)

    __hash__ = None  # type: ignore[assignment]  # equality is numeric, not structural

    # -- enclosures ----------------------------------------------------------

    def _interval_raw(self, bits: int) -> _Raw:
        """Raw enclosure at ~bits working precision, memoized.

        The memo is returned while it is tight enough for ``bits`` and
        replaced by a fresh enclosure otherwise.  The enclosure of the
        tower's root comes from the per-tower root memo when the radicand's
        enclosure and ``bits`` are the same as when it was stored.  Both
        memos are pure caches: every answer built on a raw enclosure (a
        sign, a grid cell, a decimal) is decided exactly, so it does not
        depend on which certified enclosure the memos hand out.
        """
        cached = self._iv
        if cached is not None and _riv_width_ok(cached[0], cached[1], bits):
            return cached
        if self.tower is None:
            assert self.frac is not None
            fresh = _riv_from_fraction(self.frac, bits)
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
            # str(Fraction) raises past Python's int/str digit limit
            frac = self.frac
            num = _int_str(frac.numerator)
            return num if frac.denominator == 1 else f"{num}/{_int_str(frac.denominator)}"
        assert self.a is not None and self.b is not None
        root = f"sqrt({self.tower.radicand})"
        b = self.b
        b_negative = b.sign() < 0
        b_abs = _neg(b) if b_negative else b
        if b_abs.tower is None and b_abs.frac == 1:
            term = root
        elif b_abs.tower is None:
            term = f"{b_abs}*{root}"
        else:
            term = f"({b_abs})*{root}"
        if self.a.is_zero():
            return f"-{term}" if b_negative else term
        op = " - " if b_negative else " + "
        return f"{self.a}{op}{term}"

    def __repr__(self) -> str:
        return f"ConstructibleReal({str(self)!r})"


def _rational(value: Fraction) -> ConstructibleReal:
    x = object.__new__(ConstructibleReal)
    x.tower = None
    x.frac = value
    x.a = None
    x.b = None
    x._iv = None
    return x


def _raw_node(
    tower: Tower, a: ConstructibleReal, b: ConstructibleReal
) -> ConstructibleReal:
    """Build a node without canonicalization; internal and test-only."""
    x = object.__new__(ConstructibleReal)
    x.tower = tower
    x.frac = None
    x.a = a
    x.b = b
    x._iv = None
    return x


def _node(tower: Tower, a: ConstructibleReal, b: ConstructibleReal) -> ConstructibleReal:
    if b.is_zero():
        return a
    return _raw_node(tower, a, b)


_ZERO = _rational(Fraction(0))
_ONE = _rational(Fraction(1))


def constructible(value: Coercible) -> ConstructibleReal:
    """Coerce an int, Fraction or ConstructibleReal to a ConstructibleReal."""
    x = _coerce(value)
    if x is None:
        raise DomainError(f"cannot interpret {value!r} as a constructible real")
    return x


def from_rational(numerator: int, denominator: int = 1) -> ConstructibleReal:
    return ConstructibleReal.from_rational(numerator, denominator)


# -- internal field arithmetic (operands at arbitrary tower levels) ----------


def _split(
    x: ConstructibleReal, tower: Tower
) -> tuple[ConstructibleReal, ConstructibleReal]:
    if x.tower is tower:
        assert x.a is not None and x.b is not None
        return x.a, x.b
    return x, _ZERO


def _deeper(x: ConstructibleReal, y: ConstructibleReal) -> Optional[Tower]:
    tx, ty = x.tower, y.tower
    if tx is None:
        return ty
    if ty is None:
        return tx
    return tx if tx.height >= ty.height else ty


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
        radicand = embed(level.radicand)
        found = _sqrt_within(target, radicand)
        if found is None:
            target = _extend(target, radicand)
            generators[id(level)] = _node(target, _ZERO, _ONE)
        else:
            generators[id(level)] = found if found.sign() > 0 else _neg(found)
    return embed


def _add(x: ConstructibleReal, y: ConstructibleReal) -> ConstructibleReal:
    if x.tower is None and y.tower is None:
        assert x.frac is not None and y.frac is not None
        return _rational(x.frac + y.frac)
    # share the other operand, memo and all, instead of copying its tree
    if y.is_zero():
        return x
    if x.is_zero():
        return y
    x, y = _common(x, y)
    tower = _deeper(x, y)
    assert tower is not None
    xa, xb = _split(x, tower)
    ya, yb = _split(y, tower)
    return _node(tower, _add(xa, ya), _add(xb, yb))


def _neg(x: ConstructibleReal) -> ConstructibleReal:
    if x.tower is None:
        assert x.frac is not None
        return _rational(-x.frac)
    assert x.a is not None and x.b is not None
    return _raw_node(x.tower, _neg(x.a), _neg(x.b))


def _sub(x: ConstructibleReal, y: ConstructibleReal) -> ConstructibleReal:
    return _add(x, _neg(y))


def _mul(x: ConstructibleReal, y: ConstructibleReal) -> ConstructibleReal:
    if x.tower is None and y.tower is None:
        assert x.frac is not None and y.frac is not None
        return _rational(x.frac * y.frac)
    if x.is_zero() or y.is_zero():
        return _ZERO
    x, y = _common(x, y)
    tower = _deeper(x, y)
    assert tower is not None
    # an operand below the top level is a scalar there: 2 sub-products
    if x.tower is not tower:
        assert y.a is not None and y.b is not None
        return _node(tower, _mul(x, y.a), _mul(x, y.b))
    assert x.a is not None and x.b is not None
    if y.tower is not tower:
        return _node(tower, _mul(x.a, y), _mul(x.b, y))
    assert y.a is not None and y.b is not None
    # Karatsuba, r = sqrt(d): (a + b*r)(c + e*r) = ac + d*be + ((a + b)(c + e) - ac - be)*r
    ac = _mul(x.a, y.a)
    be = _mul(x.b, y.b)
    cross = _mul(_add(x.a, x.b), _add(y.a, y.b))
    return _node(tower, _add(ac, _mul(be, tower.radicand)), _sub(_sub(cross, ac), be))


def _inv(x: ConstructibleReal) -> ConstructibleReal:
    if x.tower is None:
        assert x.frac is not None
        if x.frac == 0:
            raise DomainError("division by zero")
        return _rational(1 / x.frac)
    assert x.a is not None and x.b is not None
    # 1/(a + b*sqrt(d)) = (a - b*sqrt(d)) / (a^2 - d*b^2); the conjugate norm
    # of a canonical nonzero element is nonzero one level down
    d = x.tower.radicand
    norm = _sub(_mul(x.a, x.a), _mul(_mul(x.b, x.b), d))
    inv_norm = _inv(norm)
    return _node(x.tower, _mul(x.a, inv_norm), _neg(_mul(x.b, inv_norm)))


# bench/ reads this; ROADMAP item 3 (the benchmark reading in-package counters) deletes it
def _norm_is_zero(x: ConstructibleReal) -> bool:
    """Exact zero decision by recursive conjugate norms.

    No library code calls it; the tests use it as an independent zero oracle.
    """
    if x.tower is None:
        return x.frac == 0
    assert x.a is not None and x.b is not None
    d = x.tower.radicand
    norm = _sub(_mul(x.a, x.a), _mul(_mul(x.b, x.b), d))
    return _norm_is_zero(norm)


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


def _sqrt_rational(f: Fraction) -> ConstructibleReal:
    n, d = f.numerator, f.denominator
    s, kernel = _square_part(n * d)
    coefficient = Fraction(s, d)
    if kernel == 1:
        return _rational(coefficient)
    tower = _extend(None, _rational(Fraction(kernel)))
    return _node(tower, _ZERO, _rational(coefficient))


def _sqrt_within(
    tower: Optional[Tower], x: ConstructibleReal
) -> Optional[ConstructibleReal]:
    """A square root of ``x`` inside the field of ``tower``, if one exists."""
    if tower is None:
        assert x.tower is None and x.frac is not None
        if x.frac < 0:
            return None
        rn, rd = isqrt(x.frac.numerator), isqrt(x.frac.denominator)
        if rn * rn == x.frac.numerator and rd * rd == x.frac.denominator:
            return _rational(Fraction(rn, rd))
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
    norm = _sub(_mul(x0, x0), _mul(_mul(x1, x1), d))
    if norm.sign() < 0:
        return None
    root_norm = _sqrt_within(tower.parent, norm)
    if root_norm is None:
        return None
    for candidate_norm in (root_norm, _neg(root_norm)):
        half = _mul(_add(x0, candidate_norm), _rational(Fraction(1, 2)))
        if half.sign() <= 0:
            continue
        a = _sqrt_within(tower.parent, half)
        if a is None or a.is_zero():
            continue
        b = _mul(x1, _inv(_mul(_rational(Fraction(2)), a)))
        candidate = _node(tower, a, b)
        if _sub(_mul(candidate, candidate), x).is_zero():
            return candidate
    return None


def sqrt(value: Coercible) -> ConstructibleReal:
    """Exact square root; reuses the value's tower or adjoins a new level."""
    x = constructible(value)
    s = x.sign()
    if s < 0:
        raise DomainError("square root of a negative value")
    if s == 0:
        return _ZERO
    if x.tower is None:
        assert x.frac is not None
        return _sqrt_rational(x.frac)
    found = _sqrt_within(x.tower, x)
    if found is not None:
        return found if found.sign() > 0 else _neg(found)
    tower = _extend(x.tower, x)
    return _node(tower, _ZERO, _ONE)


def sign(value: Coercible) -> int:
    return constructible(value).sign()


def normalize(x: ConstructibleReal) -> ConstructibleReal:
    """Rebuild a value in canonical form (idempotent)."""
    if x.tower is None:
        assert x.frac is not None
        return _rational(x.frac)
    assert x.a is not None and x.b is not None
    return _node(x.tower, normalize(x.a), normalize(x.b))


def structurally_equal(x: ConstructibleReal, y: ConstructibleReal) -> bool:
    if x.tower is None or y.tower is None:
        return x.tower is None and y.tower is None and x.frac == y.frac
    if x.tower is not y.tower:
        return False
    assert x.a is not None and x.b is not None
    assert y.a is not None and y.b is not None
    return structurally_equal(x.a, y.a) and structurally_equal(x.b, y.b)


def enclose(value: Coercible, precision_bits: int) -> Interval:
    """Certified interval containing the value, at relative width 2**(1-p):
    the cell of a fixed dyadic grid that holds it (see :func:`_grid_cell`)."""
    x = constructible(value)
    return _grid_cell(x._interval_raw, precision_bits, lambda g: (x - g.as_fraction()).sign())


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

    def _interval_raw(self, bits: int) -> _Raw:
        base = self.c0._interval_raw(bits)
        if self.c1.is_zero():
            return base
        coef = self.c1._interval_raw(bits)
        return _riv_add_mul(base, coef, _riv_pi(bits), bits)

    def enclose(self, precision_bits: int) -> Interval:
        return _grid_cell(
            self._interval_raw, precision_bits, lambda g: (self - g.as_fraction()).sign()
        )

    # -- rendering ----------------------------------------------------------------

    def __str__(self) -> str:
        if self.c1.is_zero():
            return str(self.c0)
        c1 = self.c1
        negative = c1.sign() < 0
        c1_abs = -c1 if negative else c1
        if c1_abs.is_rational() and c1_abs.as_fraction() == 1:
            term = "pi"
        elif c1_abs.is_rational():
            term = f"{c1_abs}*pi"
        else:
            term = f"({c1_abs})*pi"
        if self.c0.is_zero():
            return f"-{term}" if negative else term
        op = " - " if negative else " + "
        return f"{self.c0}{op}{term}"

    def __repr__(self) -> str:
        return f"Quantity({str(self)!r})"


PI = Quantity(0, 1)


def enclose_percent(num: Quantity, den: Quantity, precision_bits: int) -> Interval:
    """The grid cell of ``precision_bits`` holding ``100*num/den``."""
    hundred = _riv_from_fraction(Fraction(100), 16)

    # a nonzero den has enclosures apart from zero from some precision on
    def apart(lo: Dyadic, hi: Dyadic, bits: int) -> Optional[_Raw]:
        if lo.man == 0 == hi.man:  # a certified [0, 0]
            raise DomainError("division by zero")
        return (lo, hi) if lo.man > 0 or hi.man < 0 else None

    def percent(bits: int) -> _Raw:
        d = _refine(den._interval_raw, bits, apart)
        quotient = _riv_div(num._interval_raw(bits), d, bits)
        return _riv_mul(quotient, hundred, bits)

    def sign_at(g: Dyadic) -> int:
        # 100*num/den - g has the sign of (100*num - g*den)*den
        return (num.scale(100) - den.scale(g.as_fraction())).sign() * den.sign()

    return _grid_cell(percent, precision_bits, sign_at)


# --------------------------------------------------------------------------
# decimal rendering


def _decimal_floor(value: Fraction, digits: int) -> str:
    scaled = value * 10**digits
    return _format_scaled(scaled.__floor__(), digits)


def _decimal_ceil(value: Fraction, digits: int) -> str:
    scaled = value * 10**digits
    return _format_scaled(scaled.__ceil__(), digits)


def _format_scaled(units: int, digits: int) -> str:
    sign_prefix = "-" if units < 0 else ""
    text = _int_str(abs(units)).rjust(digits + 1, "0")
    if digits == 0:
        return sign_prefix + text
    return f"{sign_prefix}{text[:-digits]}.{text[-digits:]}"


def _decimal_exact(value: Fraction, digits: int) -> str:
    scaled = value * 10**digits
    if scaled.denominator == 1:
        text = _format_scaled(scaled.numerator, digits)
        if "." in text:
            text = text.rstrip("0").rstrip(".")
        return text
    # round half to even; exact, deterministic
    return _format_scaled(round(scaled), digits) + "…"


def to_decimal(value: Union[Coercible, Quantity], digits: int) -> str:
    """Decimal rendering with ``digits`` fractional digits.

    Rounds to nearest from a sufficient enclosure and appends a trailing
    ellipsis whenever the printed decimal is not the exact value.  Ties can
    only occur for rational inputs and round half to even.
    """
    if digits < 0:
        raise DomainError("digits must be nonnegative")
    if isinstance(value, Quantity):
        if value.is_constant():
            return to_decimal(value.c0, digits)
        encloser = value._interval_raw
    else:
        x = constructible(value)
        if x.tower is None:
            return _decimal_exact(x.as_fraction(), digits)
        encloser = x._interval_raw
    # irrational, so on no rounding boundary: refine until both ends agree
    scale = 10**digits

    def nearest(d: Dyadic) -> int:
        return (d.as_fraction() * scale + Fraction(1, 2)).__floor__()

    def decide(lo: Dyadic, hi: Dyadic, bits: int) -> Optional[str]:
        n_lo = nearest(lo)
        return _format_scaled(n_lo, digits) + "…" if n_lo == nearest(hi) else None

    return _refine(encloser, 64, decide)
