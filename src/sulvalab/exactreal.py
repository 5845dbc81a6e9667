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
always contains the true real value.

pi is shipped as a hard-coded 1538-bit mantissa (the binary expansion of
pi truncated below 2**-1536).  The leading hex digits 3.243f6a8885a308d...
match the published expansion, and the test suite cross-checks the full
constant against an independent high-precision computation.

All values are immutable in what they denote, and arithmetic, signs,
comparisons and decimals depend on their arguments alone.  Two kinds of
state are kept outside the values, though.  The tower cap
(:func:`set_tower_cap`) and the registry of towers are process state: every
new square root reads the cap, and a tower opened by one call is reused by
all later ones.  Each value also memoizes its best enclosure, and a fresh
enclosure is intersected with that memo, so the endpoints :func:`enclose`
returns are certified and nested but depend on the precisions the process
requested before.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Callable, Optional, TypeVar, Union

__all__ = [
    "CapacityError",
    "ConstructibleReal",
    "DomainError",
    "Dyadic",
    "Interval",
    "PI",
    "PI_PRECISION_CAP",
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
    """A configured resource bound (tower height, pi precision) was hit."""


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


@dataclass(frozen=True, slots=True)
class Dyadic:
    """An exact dyadic rational ``man * 2**exp`` with normalized mantissa."""

    man: int
    exp: int

    @staticmethod
    def of(man: int, exp: int = 0) -> "Dyadic":
        if man == 0:
            return _DY_ZERO
        shift = (man & -man).bit_length() - 1
        return Dyadic(man >> shift, exp + shift)

    def as_fraction(self) -> Fraction:
        if self.exp >= 0:
            return Fraction(self.man << self.exp)
        return Fraction(self.man, 1 << -self.exp)

    def as_decimal(self) -> str:
        """Exact finite decimal expansion (dyadics always have one)."""
        if self.exp >= 0:
            return str(self.man << self.exp)
        k = -self.exp
        digits = str(abs(self.man) * 5**k).rjust(k + 1, "0")
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
# The add, multiply and width kernels work on integer mantissas only: they
# align exponents by shifting and keep bits + 1 significant bits, which is
# the grid _fraction_floor and _fraction_ceil pick for the same value, so
# they return the same dyadics without a gcd.

_Raw = tuple[Dyadic, Dyadic]


def _riv_from_fraction(f: Fraction, bits: int) -> _Raw:
    return _fraction_floor(f, bits), _fraction_ceil(f, bits)


def _dy_sum(x: Dyadic, y: Dyadic) -> tuple[int, int]:
    """``x + y`` as an unnormalized (mantissa, exponent) pair."""
    if x.exp >= y.exp:
        return (x.man << (x.exp - y.exp)) + y.man, y.exp
    return x.man + (y.man << (y.exp - x.exp)), x.exp


def _riv_add(a: _Raw, b: _Raw, bits: int) -> _Raw:
    lo = _round_floor(*_dy_sum(a[0], b[0]), bits + 1)
    return lo, _round_ceil(*_dy_sum(a[1], b[1]), bits + 1)


def _riv_mul(a: _Raw, b: _Raw, bits: int) -> _Raw:
    products = [(x.man * y.man, x.exp + y.exp) for x in a for y in b]
    exp = min(e for _, e in products)
    aligned = [m << (e - exp) for m, e in products]
    return _round_floor(min(aligned), exp, bits + 1), _round_ceil(max(aligned), exp, bits + 1)


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
    width, width_exp = _dy_sum(hi, -lo)
    if hi.man and hi.man.bit_length() + hi.exp > 0:  # |hi| >= 1
        scale, scale_exp = abs(hi.man), hi.exp + 1 - precision_bits
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
    cap: Optional[int] = None,
    overflow: str = "",
    stuck: Optional[Callable[[Dyadic, Dyadic, int], bool]] = None,
) -> _T:
    """Enclose at ``bits``, doubling it until ``decide(lo, hi, bits)`` answers.

    An undecided round past ``cap`` bits, or one for which
    ``stuck(lo, hi, bits)`` proves that no later round can answer, raises
    :class:`CapacityError` with the message ``overflow`` instead of
    doubling again.
    """
    while True:
        lo, hi = encloser(bits)
        answer = decide(lo, hi, bits)
        if answer is not None:
            return answer
        if (cap is not None and bits > cap) or (stuck is not None and stuck(lo, hi, bits)):
            raise CapacityError(overflow)
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


def _certified(encloser: Callable[[int], _Raw], precision_bits: int) -> Interval:
    """The first enclosure from ``precision_bits + 8`` bits up that is tight."""

    def decide(lo: Dyadic, hi: Dyadic, bits: int) -> Optional[Interval]:
        if _riv_width_ok(lo, hi, precision_bits):
            return Interval(lo, hi, precision_bits)
        return None

    return _refine(encloser, precision_bits + 8, decide)


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
        return (self.lo.as_fraction() + self.hi.as_fraction()) / 2

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
# shipped pi constant

_PI_HEX = (
    "3243f6a8885a308d313198a2e03707344a4093822299f31d0082efa98ec4e6c8"
    "9452821e638d01377be5466cf34e90c6cc0ac29b7c97c50dd3f84d5b5b547091"
    "79216d5d98979fb1bd1310ba698dfb5ac2ffd72dbd01adfb7b8e1afed6a267e9"
    "6ba7c9045f12c7f9924a19947b3916cf70801f2e2858efc16636920d871574e6"
    "9a458fea3f4933d7e0d95748f728eb658718bcd5882154aee7b54a41dc25a59b"
    "59c30d5392af26013c5d1b023286085f0ca417918b8db38ef8e79dcb0603a180"
    "e"
)
_PI_MAN = int(_PI_HEX, 16)
_PI_EXP = -1536
# pi lies strictly between _PI_MAN*2**-1536 and (_PI_MAN + 1)*2**-1536.

PI_PRECISION_CAP = 1520


def _riv_pi(bits: int) -> _Raw:
    lo = _round_floor(_PI_MAN, _PI_EXP, bits)
    hi = _round_ceil(_PI_MAN + 1, _PI_EXP, bits)
    return lo, hi


def pi_enclosure(precision_bits: int) -> Interval:
    """Certified enclosure of pi, truncated from the shipped constant."""
    if precision_bits < 1:
        raise DomainError("precision_bits must be positive")
    if precision_bits > PI_PRECISION_CAP:
        raise CapacityError(
            f"pi is shipped to {PI_PRECISION_CAP} bits; "
            f"{precision_bits} requested"
        )
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
        result = _ONE
        base = self
        n = exponent
        while n:
            if n & 1:
                result = _mul(result, base)
            base = _mul(base, base)
            n >>= 1
        return result

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
        """Raw enclosure at ~bits working precision, memoized monotonically.

        Fresh results are intersected with the cached best enclosure, so
        later calls can only tighten; this is what makes nested requests
        return nested intervals.
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
            root = _riv_sqrt(d, bits)
            fresh = _riv_add(a, _riv_mul(b, root, bits), bits)
        if cached is not None:
            lo = fresh[0] if cached[0] < fresh[0] else cached[0]
            hi = fresh[1] if fresh[1] < cached[1] else cached[1]
            fresh = (lo, hi)
        self._iv = fresh
        return fresh

    def enclose(self, precision_bits: int) -> Interval:
        return enclose(self, precision_bits)

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        if self.tower is None:
            return str(self.frac)
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
    """Certified interval containing the value, at relative width 2**(1-p)."""
    if precision_bits < 4:
        raise DomainError("precision_bits must be at least 4")
    return _certified(constructible(value)._interval_raw, precision_bits)


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
        """Exact sign; c0 + c1*pi vanishes only when both components do."""
        if self.c1.is_zero():
            return self.c0.sign()
        if self.c0.is_zero():
            return self.c1.sign()

        def stuck(lo: Dyadic, hi: Dyadic, bits: int) -> bool:
            if bits <= PI_PRECISION_CAP:  # more bits still narrow the pi term
                return False
            low, high = self._pi_segment_signs(Fraction(0))
            return low <= 0 <= high

        return _refine(
            self._interval_raw,
            32,
            _interval_sign,
            4096,
            "cannot separate quantity from zero within the shipped pi precision",
            stuck,
        )

    __eq__ = _comparison(_coerce_quantity, operator.eq)
    __lt__ = _comparison(_coerce_quantity, operator.lt)
    __le__ = _comparison(_coerce_quantity, operator.le)
    __gt__ = _comparison(_coerce_quantity, operator.gt)
    __ge__ = _comparison(_coerce_quantity, operator.ge)

    __hash__ = None  # type: ignore[assignment]

    # -- enclosures ------------------------------------------------------------

    def _pi_segment_signs(self, t: Fraction) -> tuple[int, int]:
        """Signs of ``c0 + c1*p - t`` at the low and the high end of the
        segment it sweeps as p runs over the shipped pi interval.

        Every enclosure of ``self`` contains that segment, whatever its
        precision, so a test the segment fails no round can pass.
        """
        ends = [
            self.c0 - t + self.c1 * Fraction(m, 2**-_PI_EXP)
            for m in (_PI_MAN, _PI_MAN + 1)
        ]
        low, high = ends if self.c1.sign() > 0 else ends[::-1]
        return low.sign(), high.sign()

    def _interval_raw(self, bits: int) -> _Raw:
        base = self.c0._interval_raw(bits)
        if self.c1.is_zero():
            return base
        coef = self.c1._interval_raw(bits)
        return _riv_add(base, _riv_mul(coef, _riv_pi(bits), bits), bits)

    def enclose(self, precision_bits: int) -> Interval:
        if precision_bits < 4:
            raise DomainError("precision_bits must be at least 4")
        if not self.c1.is_zero() and precision_bits > PI_PRECISION_CAP - 16:
            raise CapacityError(
                f"pi-quantities cannot be enclosed beyond "
                f"{PI_PRECISION_CAP - 16} bits"
            )
        return _certified(self._interval_raw, precision_bits)

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
    """Certified interval containing ``100*num/den``, at relative width 2**(1-p)."""
    if precision_bits < 4:
        raise DomainError("precision_bits must be at least 4")
    hundred = _riv_from_fraction(Fraction(100), 16)

    def percent(bits: int) -> _Raw:
        # x100 after the division: scaling the numerator first rounds differently
        quotient = _riv_div(num._interval_raw(bits), den._interval_raw(bits), bits)
        return _riv_mul(quotient, hundred, bits)

    return _certified(percent, precision_bits)


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
    text = str(abs(units)).rjust(digits + 1, "0")
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
        pi_part: Optional[Quantity] = value
    else:
        x = constructible(value)
        if x.tower is None:
            return _decimal_exact(x.as_fraction(), digits)
        encloser = x._interval_raw
        pi_part = None
    # irrational: refine until both endpoints round to the same decimal
    scale = 10**digits

    def nearest(d: Dyadic) -> int:
        return (d.as_fraction() * scale + Fraction(1, 2)).__floor__()

    def decide(lo: Dyadic, hi: Dyadic, bits: int) -> Optional[str]:
        n_lo = nearest(lo)
        return _format_scaled(n_lo, digits) + "…" if n_lo == nearest(hi) else None

    def stuck(lo: Dyadic, hi: Dyadic, bits: int) -> bool:
        if pi_part is None or bits <= PI_PRECISION_CAP:
            return False
        n_hi = nearest(hi)
        if n_hi != nearest(lo) + 1:
            return False
        # the one rounding boundary inside the enclosure
        low, high = pi_part._pi_segment_signs(Fraction(2 * n_hi - 1, 2 * scale))
        return low < 0 <= high  # nearest() rounds the boundary itself up

    return _refine(encloser, 64, decide, 8192, "decimal rendering did not converge", stuck)

