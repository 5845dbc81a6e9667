"""Catalog of Sulvasutra constructions and numeric rules.

Every entry is a named, citation-tagged procedure from an exact input
length to a :class:`RuleOutput` holding the constructed figures, the value
the rule asserts (``claimed``) and the exact measure of what was actually
built (``actual``).  The circling-the-square verse of the Manava text is
represented by three separate entries, one per scholarly reading (Dani,
van Gelder/Kulkarni, Gupta), because the readings produce materially
different circles; conflating them would hide exactly the comparison this
package exists to make.

All rules are homogeneous of degree one in length, so general inputs are
produced by exact scaling of the unit-size construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable, Optional

from .exactreal import (
    Coercible,
    ConstructibleReal,
    DomainError,
    Quantity,
    constructible,
    from_rational,
    sqrt,
)
from .geom import (
    Circle,
    Figure,
    Point,
    Segment,
    Square,
    circle_area,
    circumscribed_circle,
    distance_squared,
    point,
    similar,
    square_area,
    trisector_lines,
    vertical_line_circle_intersection,
)

__all__ = [
    "CATALOG",
    "KINDS",
    "Rule",
    "RuleOutput",
    "UnknownRuleError",
    "circle_from_square_baudhayana",
    "circle_from_square_gupta",
    "circle_from_square_manava_dani",
    "circle_from_square_manava_vangelder",
    "circumference_rule",
    "double_square_by_diagonal",
    "hypotenuse",
    "inscribed_square",
    "lookup",
    "rule_ids",
    "square_from_circle",
    "sqrt2_sulba_constant",
]

KINDS = (
    "circle-from-square",
    "square-from-circle",
    "circumference",
    "inscribed-square",
    "constant",
    "doubling",
    "hypotenuse",
)


class UnknownRuleError(LookupError):
    """No catalog entry under the requested identifier."""


@dataclass(frozen=True)
class RuleOutput:
    """What a rule built, what it asserts, and what it truly measures."""

    figures: tuple[Figure, ...]
    claimed: Quantity
    actual: Quantity
    witness_points: Optional[tuple[Point, ...]] = None


@dataclass(frozen=True)
class Rule:
    id: str
    kind: str
    citation: str
    description: str
    construct: Callable[[ConstructibleReal], RuleOutput]
    reconstruction: bool = False
    notes: str = ""

    def run(self, size: Coercible = 1) -> RuleOutput:
        return self.construct(_positive(size, "input length"))


def _positive(value: Coercible, what: str) -> ConstructibleReal:
    x = constructible(value)
    if x.sign() != 1:
        raise DomainError(f"{what} must be positive")
    return x


def _scaled(unit: RuleOutput, k: ConstructibleReal, power: int) -> RuleOutput:
    """Scale a unit-size output to size ``k``; quantities scale as ``k**power``."""
    if k.is_rational() and k.as_fraction() == 1:
        return unit
    factor = k**power
    origin = Point(constructible(0), constructible(0))
    return RuleOutput(
        figures=tuple(similar(f, k, origin) for f in unit.figures),
        claimed=unit.claimed.scale(factor),
        actual=unit.actual.scale(factor),
        witness_points=None
        if unit.witness_points is None
        else tuple(similar(p, k, origin) for p in unit.witness_points),
    )


# -- hypotenuse ---------------------------------------------------------------


def hypotenuse(length: Coercible, width: Coercible) -> ConstructibleReal:
    """Exact hypotenuse of a rectangle from its side lengths."""
    a = constructible(length)
    b = constructible(width)
    if a.sign() < 0 or b.sign() < 0:
        raise DomainError("lengths must be nonnegative")
    return sqrt(a * a + b * b)


def _hypotenuse_rule(size: ConstructibleReal) -> RuleOutput:
    # demonstration instance: a 3x4 rectangle and its diagonal
    a, b = size * 3, size * 4
    zero = constructible(0)
    corners = (point(0, 0), Point(a, zero), Point(a, b), Point(zero, b))
    figures = tuple(
        Segment(corners[i], corners[(i + 1) % 4]) for i in range(4)
    ) + (Segment(corners[0], corners[2]),)
    return RuleOutput(figures, Quantity(size * 5), Quantity(hypotenuse(a, b)))


# -- circling the square ---------------------------------------------------------


def circle_from_square_baudhayana(side: Coercible) -> RuleOutput:
    """Circle with (approximately) the area of a square, classical recipe.

    Half the diagonal is swung from the center past the side; one third of
    the jutting part is added back to the half side to give the radius, so
    for side s the radius is s*(2 + sqrt(2))/6.
    """
    s = _positive(side, "side")
    square = Square(point(0, 0), from_rational(1, 2))
    half = square.half_side
    half_diagonal = circumscribed_circle(square).radius
    jut = half_diagonal - half
    radius = half + jut / 3
    circle = Circle(square.center, radius)
    unit = RuleOutput(
        figures=(square, circle),
        claimed=square_area(square),
        actual=circle_area(circle),
        witness_points=(Point(constructible(0), radius),),
    )
    return _scaled(unit, s, 2)


@cache
def _dani_unit() -> RuleOutput:
    square = Square(point(0, 0), from_rational(1, 2))
    outer = circumscribed_circle(square)
    vertical = trisector_lines(square, "vertical")
    horizontal = trisector_lines(square, "horizontal")
    x0 = vertical[1].a.x  # +half_side/3
    _, top = vertical_line_circle_intersection(x0, outer)
    jut = top.y - square.half_side
    mark = square.half_side + jut / 5
    # the eight marks, one per jutting part, all at |coord| in {x0, mark}
    witnesses = (
        Point(x0, mark),
        Point(-x0, mark),
        Point(x0, -mark),
        Point(-x0, -mark),
        Point(mark, x0),
        Point(mark, -x0),
        Point(-mark, x0),
        Point(-mark, -x0),
    )
    radius_squared = distance_squared(witnesses[0], square.center)
    circle = Circle(square.center, sqrt(radius_squared))
    return RuleOutput(
        figures=(square, outer) + vertical + horizontal + (circle,),
        claimed=square_area(square),
        actual=Quantity(0, radius_squared),
        witness_points=witnesses,
    )


def circle_from_square_manava_dani(side: Coercible) -> RuleOutput:
    """Circle through eight marks on the trisectors, Dani's reading.

    Trisect the square both ways, extend the trisectors to the circle
    through the corners, mark each jutting part at one fifth from the
    square's side, and pass the circle through the eight marks.  The
    radius is derived from the constructed mark, not from a closed form;
    the closed form r**2 = 31/150 + (2/75)*sqrt(17) is kept as a test
    invariant.
    """
    s = _positive(side, "side")
    return _scaled(_dani_unit(), s, 2)


def circle_from_square_manava_vangelder(side: Coercible) -> RuleOutput:
    """Circle from the trisector chord, van Gelder/Kulkarni's reading.

    The radius is the half chord of a trisector inside the circumscribed
    circle, minus one fifth of the jutting part: sqrt(17)/6 - (1/5)*
    (sqrt(17)/6 - 1/2) for the unit square.  The resulting circle is far
    too large to match the square's area; the numbers reported for this
    entry are a reconstruction, since the reading's authors did not print
    the value they computed.
    """
    s = _positive(side, "side")
    square = Square(point(0, 0), from_rational(1, 2))
    outer = circumscribed_circle(square)
    vertical = trisector_lines(square, "vertical")
    horizontal = trisector_lines(square, "horizontal")
    x0 = vertical[1].a.x
    _, top = vertical_line_circle_intersection(x0, outer)
    half_chord = top.y  # distance from the trisector midpoint to the circle
    jut = top.y - square.half_side
    radius = half_chord - jut / 5
    circle = Circle(square.center, radius)
    unit = RuleOutput(
        figures=(square, outer) + vertical + horizontal + (circle,),
        claimed=square_area(square),
        actual=circle_area(circle),
    )
    return _scaled(unit, s, 2)


def circle_from_square_gupta(side: Coercible) -> RuleOutput:
    """Circle at four fifths of the circumscribed radius, Gupta's reading.

    For the unit square the radius is (4/5)*sqrt(2)/2, the area is exactly
    8*pi/25, and the implied circumference ratio is exactly 25/8.
    """
    s = _positive(side, "side")
    square = Square(point(0, 0), from_rational(1, 2))
    outer = circumscribed_circle(square)
    circle = Circle(square.center, outer.radius * Fraction(4, 5))
    unit = RuleOutput(
        figures=(square, outer, circle),
        claimed=square_area(square),
        actual=circle_area(circle),
    )
    return _scaled(unit, s, 2)


# -- circumference prescriptions ----------------------------------------------------


_CIRCUMFERENCE_RATIOS: dict[str, Callable[[], ConstructibleReal]] = {
    "manava_16_5": lambda: from_rational(16, 5),
    "classical_3": lambda: from_rational(3),
    "jaina_sqrt10": lambda: sqrt(10),
}


def circumference_rule(variant: str, diameter: Coercible) -> RuleOutput:
    """Prescribed circumference for a circle of the given diameter.

    Variants: ``manava_16_5`` (three diameters plus a fifth), ``classical_3``
    (three diameters), ``jaina_sqrt10`` (sqrt(10) diameters).
    """
    if variant not in _CIRCUMFERENCE_RATIOS:
        raise DomainError(f"unknown circumference variant {variant!r}")
    d = _positive(diameter, "diameter")
    ratio = _CIRCUMFERENCE_RATIOS[variant]()
    circle = Circle(point(0, 0), from_rational(1, 2))
    unit = RuleOutput(
        figures=(circle,),
        claimed=Quantity(ratio),
        actual=Quantity(0, 1),  # true circumference of a unit-diameter circle
    )
    return _scaled(unit, d, 1)


# -- squares in and from circles ------------------------------------------------------


_INSCRIBED_SIDES: dict[str, Callable[[], ConstructibleReal]] = {
    "manava_7_10": lambda: from_rational(7, 10),
    "standard_12_17": lambda: from_rational(12, 17),
    "exact": lambda: 1 / sqrt(2),
}


def inscribed_square(variant: str, diameter: Coercible) -> RuleOutput:
    """Side prescribed for the square inscribed in a circle.

    Variants: ``manava_7_10`` (seven of ten diameter parts),
    ``standard_12_17`` (twelve of seventeen, via the 17/12 value for
    sqrt(2)), ``exact`` (diameter/sqrt(2); corners land on the circle).
    """
    if variant not in _INSCRIBED_SIDES:
        raise DomainError(f"unknown inscribed-square variant {variant!r}")
    d = _positive(diameter, "diameter")
    side = _INSCRIBED_SIDES[variant]()
    circle = Circle(point(0, 0), from_rational(1, 2))
    square = Square(point(0, 0), side / 2)
    unit = RuleOutput(
        figures=(circle, square),
        claimed=Quantity(1 / sqrt(2)),  # the true inscribed side
        actual=Quantity(side),
    )
    return _scaled(unit, d, 1)


_SQUARING_SIDES: dict[str, Callable[[], ConstructibleReal]] = {
    "rule_13_15": lambda: from_rational(13, 15),
    "hayashi": lambda: sqrt(3) / 2,
}


def square_from_circle(variant: str, diameter: Coercible) -> RuleOutput:
    """Square prescribed to match a circle's area.

    Variants: ``rule_13_15`` (thirteen of fifteen diameter parts) and
    ``hayashi`` (the altitude of the equilateral triangle on the diameter,
    i.e. sqrt(3)/2 of it, which makes the implied circumference ratio
    exactly 3).
    """
    if variant not in _SQUARING_SIDES:
        raise DomainError(f"unknown square-from-circle variant {variant!r}")
    d = _positive(diameter, "diameter")
    side = _SQUARING_SIDES[variant]()
    circle = Circle(point(0, 0), from_rational(1, 2))
    square = Square(point(0, 0), side / 2)
    unit = RuleOutput(
        figures=(circle, square),
        claimed=circle_area(circle),
        actual=square_area(square),
    )
    return _scaled(unit, d, 2)


def double_square_by_diagonal(side: Coercible) -> RuleOutput:
    """Square on the diagonal: exactly twice the area of the given square."""
    s = _positive(side, "side")
    square = Square(point(0, 0), from_rational(1, 2))
    doubled = Square(point(0, 0), square.half_side * sqrt(2))
    unit = RuleOutput(
        figures=(square, doubled),
        claimed=square_area(square).scale(2),
        actual=square_area(doubled),
    )
    return _scaled(unit, s, 2)


def sqrt2_sulba_constant() -> ConstructibleReal:
    """The traditional working value 17/12 for sqrt(2)."""
    return from_rational(17, 12)


def _sqrt2_rule(size: ConstructibleReal) -> RuleOutput:
    return RuleOutput(
        figures=(),
        claimed=Quantity(sqrt2_sulba_constant() * size),
        actual=Quantity(sqrt(2) * size),
    )


# -- registry ---------------------------------------------------------------------


def _entries() -> tuple[Rule, ...]:
    ms_1013 = "Manava Sulvasutra 10.3.2.13 / 11.13"
    ms_1014 = "Manava Sulvasutra 10.3.2.14 / 11.14"
    ms_1015 = "Manava Sulvasutra 10.3.2.15 / 11.15"
    return (
        Rule(
            id="manava_16_5",
            kind="circumference",
            citation=ms_1013,
            description="circumference taken as thrice the diameter plus a fifth",
            construct=lambda s: circumference_rule("manava_16_5", s),
        ),
        Rule(
            id="classical_3",
            kind="circumference",
            citation="Baudhayana Sulvasutra (pit with diameter 1 pada, circumference 3)",
            description="classical circumference of three diameters",
            construct=lambda s: circumference_rule("classical_3", s),
        ),
        Rule(
            id="jaina_sqrt10",
            kind="circumference",
            citation="Suryaprajnapti (Jaina tradition)",
            description="circumference taken as sqrt(10) diameters",
            construct=lambda s: circumference_rule("jaina_sqrt10", s),
        ),
        Rule(
            id="baudhayana",
            kind="circle-from-square",
            citation="Baudhayana Sulvasutra; Manava Sulvasutra 10.3.2.10",
            description="circle radius: half side plus a third of the jutting half diagonal",
            construct=circle_from_square_baudhayana,
        ),
        Rule(
            id="manava_dani",
            kind="circle-from-square",
            citation=f"{ms_1015}; reading: Dani",
            description="circle through eight marks at one fifth of the trisector juts",
            construct=circle_from_square_manava_dani,
            notes=(
                "The radius is derived from the constructed mark.  A printed "
                "closed form for this radius circulates with the exponent "
                "misplaced and 1/18 for 1/36; the constructed value r**2 = "
                "31/150 + (2/75)*sqrt(17) reproduces the documented area "
                "0.994... and is what this entry computes."
            ),
        ),
        Rule(
            id="manava_vangelder",
            kind="circle-from-square",
            citation=f"{ms_1015}; reading: van Gelder, Kulkarni",
            description="circle radius: trisector half chord minus a fifth of the jut",
            construct=circle_from_square_manava_vangelder,
            reconstruction=True,
            notes=(
                "The originators reported the radius only as much too large; "
                "the numbers here are reconstructed from their procedure."
            ),
        ),
        Rule(
            id="manava_gupta",
            kind="circle-from-square",
            citation=f"{ms_1015}; reading: Gupta",
            description="circle radius: four fifths of the circumscribed radius",
            construct=circle_from_square_gupta,
        ),
        Rule(
            id="manava_7_10",
            kind="inscribed-square",
            citation=ms_1014,
            description="inscribed square side: seven of ten diameter parts",
            construct=lambda d: inscribed_square("manava_7_10", d),
        ),
        Rule(
            id="standard_12_17",
            kind="inscribed-square",
            citation="Sulvasutra corpus (12 of 17 parts, from sqrt(2) ~ 17/12)",
            description="inscribed square side: twelve of seventeen diameter parts",
            construct=lambda d: inscribed_square("standard_12_17", d),
        ),
        Rule(
            id="inscribed_exact",
            kind="inscribed-square",
            citation="exact reference construction",
            description="inscribed square side: diameter over sqrt(2)",
            construct=lambda d: inscribed_square("exact", d),
        ),
        Rule(
            id="rule_13_15",
            kind="square-from-circle",
            citation="Baudhayana Sulvasutra 1.60; also Apastamba, Katyayana",
            description="squaring side: thirteen of fifteen diameter parts",
            construct=lambda d: square_from_circle("rule_13_15", d),
        ),
        Rule(
            id="hayashi",
            kind="square-from-circle",
            citation="Manava Sulvasutra 10.3.2.10; reading: Hayashi",
            description="squaring side: altitude of the equilateral triangle on the diameter",
            construct=lambda d: square_from_circle("hayashi", d),
        ),
        Rule(
            id="double_diagonal",
            kind="doubling",
            citation="Manava Sulvasutra 10.3.2.11-12",
            description="side replaced by diagonal doubles the square's area",
            construct=double_square_by_diagonal,
        ),
        Rule(
            id="hypotenuse",
            kind="hypotenuse",
            citation="Manava Sulvasutra 10.3 (after the samitra vedi passage)",
            description="hypotenuse from length and width, squared and summed",
            construct=_hypotenuse_rule,
        ),
        Rule(
            id="sqrt2_sulba",
            kind="constant",
            citation="Sulvasutra corpus",
            description="the working value 17/12 for sqrt(2)",
            construct=_sqrt2_rule,
        ),
    )


CATALOG: tuple[Rule, ...] = _entries()
_BY_ID: dict[str, Rule] = {rule.id: rule for rule in CATALOG}

_ALIASES = {
    "dani": "manava_dani",
    "gupta": "manava_gupta",
    "vangelder": "manava_vangelder",
    "van_gelder": "manava_vangelder",
}


def lookup(rule_id: str) -> Rule:
    key = _ALIASES.get(rule_id, rule_id)
    try:
        return _BY_ID[key]
    except KeyError:
        raise UnknownRuleError(f"unknown rule id {rule_id!r}") from None


def rule_ids() -> tuple[str, ...]:
    return tuple(sorted(_BY_ID))
