"""Catalog of Sulvasutra constructions and numeric rules.

Every entry is a named, citation-tagged procedure from an exact input
length to a :class:`RuleOutput` holding the constructed figures, the value
the rule asserts (``claimed``) and the exact measure of what was actually
built (``actual``).  The circling-the-square verse of the Manava text is
represented by three separate entries, one per scholarly reading (Dani,
van Gelder/Kulkarni, Gupta), because the readings produce materially
different circles; conflating them would hide exactly the comparison this
package exists to make.

Every rule is homogeneous: at input length ``k`` its figures are the
unit-size figures scaled by ``k``, and its ``claimed`` and ``actual``
values scale as ``k**KINDS[kind].degree`` (``k**2`` for areas, ``k`` for
lengths and ratios).  So each entry holds only its construction at input
length 1, and :meth:`Rule.run` scales and places that for any size and
center.  The unit construction is built once, on the rule's first run, and
shared by every later run; a placed output scales the values at once and
maps the figures only on first access.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    "Kind",
    "Rule",
    "RuleOutput",
    "UnknownRuleError",
    "hypotenuse",
    "lookup",
    "rule_ids",
    "sqrt2_sulba_constant",
]

@dataclass(frozen=True)
class Kind:
    """What every rule of one kind means."""

    degree: int  # claimed and actual scale as the input length to this power
    takes: Optional[type]  # the figure (Square, Circle) a call reads its input length from
    basis: str  # what the values measure: "area", "circumference" or "length"
    implies_pi: bool = False  # claimed against actual implies a value of pi
    error: Optional[str] = None  # "claimed" or "actual", whichever approximates the other


# rule kind -> its meaning: the one place each kind is declared
KINDS: dict[str, Kind] = {
    "circle-from-square": Kind(2, Square, "area", implies_pi=True, error="actual"),
    "square-from-circle": Kind(2, Circle, "area", implies_pi=True, error="actual"),
    "circumference": Kind(1, Circle, "circumference", implies_pi=True, error="claimed"),
    "inscribed-square": Kind(1, Circle, "length", error="actual"),
    "constant": Kind(1, None, "length", error="claimed"),
    "doubling": Kind(2, Square, "area"),
    "hypotenuse": Kind(1, None, "length"),
}


class UnknownRuleError(LookupError):
    """No catalog entry under the requested identifier."""


@dataclass(frozen=True, init=False)
class RuleOutput:
    """What a rule built, what it asserts, and what it truly measures.

    ``claimed`` and ``actual`` are set when the output is made.  An output
    that :meth:`Rule.run` placed away from the unit construction holds that
    unit output and the map ``p -> k*p + center`` instead of its figures;
    it maps ``figures`` and ``witness_points`` through
    :func:`~sulvalab.geom.similar` on first access, once, so callers that
    read only the values never build them.
    """

    figures: tuple[Figure, ...]
    claimed: Quantity
    actual: Quantity
    witness_points: Optional[tuple[Point, ...]]

    def __init__(
        self,
        figures: tuple[Figure, ...],
        claimed: Quantity,
        actual: Quantity,
        witness_points: Optional[tuple[Point, ...]] = None,
    ) -> None:
        vars(self).update(
            figures=figures, claimed=claimed, actual=actual, witness_points=witness_points
        )

    def __getattr__(self, name: str) -> object:
        # reached only for an attribute not yet set: the figures or witness
        # points of a placed output, on first access
        placement = vars(self).get("_placement")
        if placement is None or name not in ("figures", "witness_points"):
            raise AttributeError(f"'RuleOutput' object has no attribute {name!r}")
        unit, k, center = placement
        anchors = getattr(unit, name)
        placed = None if anchors is None else tuple(similar(a, k, center) for a in anchors)
        vars(self)[name] = placed
        return placed


_ORIGIN = point(0, 0)


@dataclass(frozen=True)
class Rule:
    id: str
    kind: str
    citation: str
    description: str
    unit: Callable[[], RuleOutput]  # the construction at input length 1
    reconstruction: bool = False
    notes: str = ""

    def __post_init__(self) -> None:
        # the unit construction is a value: build it on first use, then share it
        object.__setattr__(self, "unit", cache(self.unit))

    def run(self, size: Coercible = 1, center: Point = _ORIGIN) -> RuleOutput:
        """The construction at input length ``size``, placed at ``center``.

        Every point ``p`` of the unit construction maps to
        ``size*p + center``, and ``claimed`` and ``actual`` scale by
        ``size**KINDS[kind].degree``.  The unit output is built once, on the
        rule's first run, and shared: at size 1 on the origin it is
        returned itself, and elsewhere the output maps its figures and
        witness points from it on first access.
        """
        k = constructible(size)
        if k.sign() != 1:
            raise DomainError("input length must be positive")
        unit = self.unit()
        unit_size = k.is_rational() and k.num == k.den == 1
        if unit_size and center.x.is_zero() and center.y.is_zero():
            return unit
        claimed, actual = unit.claimed, unit.actual
        if not unit_size:
            factor = k ** KINDS[self.kind].degree
            claimed, actual = claimed.scale(factor), actual.scale(factor)
        placed = RuleOutput.__new__(RuleOutput)
        vars(placed).update(claimed=claimed, actual=actual, _placement=(unit, k, center))
        return placed


# -- hypotenuse ---------------------------------------------------------------


def hypotenuse(length: Coercible, width: Coercible) -> ConstructibleReal:
    """Exact hypotenuse of a rectangle from its side lengths."""
    a = constructible(length)
    b = constructible(width)
    if a.sign() < 0 or b.sign() < 0:
        raise DomainError("lengths must be nonnegative")
    return sqrt(a * a + b * b)


def _hypotenuse_unit() -> RuleOutput:
    # demonstration instance: a 3x4 rectangle with a corner at the origin,
    # and its diagonal
    corners = (_ORIGIN, point(3, 0), point(3, 4), point(0, 4))
    figures = tuple(
        Segment(corners[i], corners[(i + 1) % 4]) for i in range(4)
    ) + (Segment(corners[0], corners[2]),)
    return RuleOutput(figures, Quantity(5), Quantity(hypotenuse(3, 4)))


# -- circling the square ---------------------------------------------------------


def _baudhayana_unit() -> RuleOutput:
    """Circle with (approximately) the area of a square, classical recipe.

    Half the diagonal is swung from the center past the side; one third of
    the jutting part is added back to the half side to give the radius, so
    for side s the radius is s*(2 + sqrt(2))/6.
    """
    square = Square(_ORIGIN, from_rational(1, 2))
    half = square.half_side
    half_diagonal = circumscribed_circle(square).radius
    jut = half_diagonal - half
    radius = half + jut / 3
    circle = Circle(square.center, radius)
    return RuleOutput(
        figures=(square, circle),
        claimed=square_area(square),
        actual=circle_area(circle),
        witness_points=(Point(constructible(0), radius),),
    )


def _trisected_unit() -> tuple[Square, Circle, tuple[Segment, ...], Point]:
    """The unit square, the circle through its corners, its vertical and
    then horizontal trisectors, and the upper point where the right
    vertical trisector meets that circle."""
    square = Square(_ORIGIN, from_rational(1, 2))
    outer = circumscribed_circle(square)
    vertical = trisector_lines(square, "vertical")
    horizontal = trisector_lines(square, "horizontal")
    _, top = vertical_line_circle_intersection(vertical[1].a.x, outer)
    return square, outer, vertical + horizontal, top


# bench/ reads this cache's cache_info(); the rule's own cache already
# shares the unit, so ROADMAP item 1 (in-package counters) deletes this one
@cache
def _dani_unit() -> RuleOutput:
    """Circle through eight marks on the trisectors, Dani's reading.

    Trisect the square both ways, extend the trisectors to the circle
    through the corners, mark each jutting part at one fifth from the
    square's side, and pass the circle through the eight marks.  The
    radius is derived from the constructed mark, not from a closed form;
    the closed form r**2 = 31/150 + (2/75)*sqrt(17) is kept as a test
    invariant.
    """
    square, outer, trisectors, top = _trisected_unit()
    x0 = top.x  # +half_side/3
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
        figures=(square, outer) + trisectors + (circle,),
        claimed=square_area(square),
        actual=Quantity(0, radius_squared),
        witness_points=witnesses,
    )


def _vangelder_unit() -> RuleOutput:
    """Circle from the trisector chord, van Gelder/Kulkarni's reading.

    The radius is the half chord of a trisector inside the circumscribed
    circle, minus one fifth of the jutting part: sqrt(17)/6 - (1/5)*
    (sqrt(17)/6 - 1/2) for the unit square.  The resulting circle is far
    too large to match the square's area; the numbers reported for this
    entry are a reconstruction, since the reading's authors did not print
    the value they computed.
    """
    square, outer, trisectors, top = _trisected_unit()
    half_chord = top.y  # distance from the trisector midpoint to the circle
    jut = top.y - square.half_side
    radius = half_chord - jut / 5
    circle = Circle(square.center, radius)
    return RuleOutput(
        figures=(square, outer) + trisectors + (circle,),
        claimed=square_area(square),
        actual=circle_area(circle),
    )


def _gupta_unit() -> RuleOutput:
    """Circle at four fifths of the circumscribed radius, Gupta's reading.

    For the unit square the radius is (4/5)*sqrt(2)/2, the area is exactly
    8*pi/25, and the implied circumference ratio is exactly 25/8.
    """
    square = Square(_ORIGIN, from_rational(1, 2))
    outer = circumscribed_circle(square)
    circle = Circle(square.center, outer.radius * from_rational(4, 5))
    return RuleOutput(
        figures=(square, outer, circle),
        claimed=square_area(square),
        actual=circle_area(circle),
    )


# -- prescriptions for a circle of diameter 1 ----------------------------------------


def _circumference_unit(ratio: ConstructibleReal) -> RuleOutput:
    """The circumference ``ratio`` prescribes for a circle of diameter 1."""
    circle = Circle(_ORIGIN, from_rational(1, 2))
    return RuleOutput(
        figures=(circle,),
        claimed=Quantity(ratio),
        actual=Quantity(0, 1),  # true circumference of a unit-diameter circle
    )


def _inscribed_unit(side: ConstructibleReal) -> RuleOutput:
    """The square of the prescribed ``side`` inscribed in a circle of diameter 1."""
    circle = Circle(_ORIGIN, from_rational(1, 2))
    square = Square(_ORIGIN, side / 2)
    return RuleOutput(
        figures=(circle, square),
        claimed=Quantity(1 / sqrt(2)),  # the true inscribed side
        actual=Quantity(side),
    )


def _squaring_unit(side: ConstructibleReal) -> RuleOutput:
    """The square of the ``side`` prescribed to match a circle of diameter 1."""
    circle = Circle(_ORIGIN, from_rational(1, 2))
    square = Square(_ORIGIN, side / 2)
    return RuleOutput(
        figures=(circle, square),
        claimed=circle_area(circle),
        actual=square_area(square),
    )


def _doubling_unit() -> RuleOutput:
    """Square on the diagonal: exactly twice the area of the given square."""
    square = Square(_ORIGIN, from_rational(1, 2))
    doubled = Square(_ORIGIN, square.half_side * sqrt(2))
    return RuleOutput(
        figures=(square, doubled),
        claimed=square_area(square).scale(2),
        actual=square_area(doubled),
    )


def sqrt2_sulba_constant() -> ConstructibleReal:
    """The traditional working value 17/12 for sqrt(2)."""
    return from_rational(17, 12)


def _sqrt2_unit() -> RuleOutput:
    return RuleOutput(
        figures=(),
        claimed=Quantity(sqrt2_sulba_constant()),
        actual=Quantity(sqrt(2)),
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
            unit=lambda: _circumference_unit(from_rational(16, 5)),
        ),
        Rule(
            id="classical_3",
            kind="circumference",
            citation="Baudhayana Sulvasutra (pit with diameter 1 pada, circumference 3)",
            description="classical circumference of three diameters",
            unit=lambda: _circumference_unit(from_rational(3)),
        ),
        Rule(
            id="jaina_sqrt10",
            kind="circumference",
            citation="Suryaprajnapti (Jaina tradition)",
            description="circumference taken as sqrt(10) diameters",
            unit=lambda: _circumference_unit(sqrt(10)),
        ),
        Rule(
            id="baudhayana",
            kind="circle-from-square",
            citation="Baudhayana Sulvasutra; Manava Sulvasutra 10.3.2.10",
            description="circle radius: half side plus a third of the jutting half diagonal",
            unit=_baudhayana_unit,
        ),
        Rule(
            id="manava_dani",
            kind="circle-from-square",
            citation=f"{ms_1015}; reading: Dani",
            description="circle through eight marks at one fifth of the trisector juts",
            unit=_dani_unit,
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
            unit=_vangelder_unit,
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
            unit=_gupta_unit,
        ),
        Rule(
            id="manava_7_10",
            kind="inscribed-square",
            citation=ms_1014,
            description="inscribed square side: seven of ten diameter parts",
            unit=lambda: _inscribed_unit(from_rational(7, 10)),
        ),
        Rule(
            id="standard_12_17",
            kind="inscribed-square",
            citation="Sulvasutra corpus (12 of 17 parts, from sqrt(2) ~ 17/12)",
            description="inscribed square side: twelve of seventeen diameter parts",
            unit=lambda: _inscribed_unit(from_rational(12, 17)),
        ),
        Rule(
            id="inscribed_exact",
            kind="inscribed-square",
            citation="exact reference construction",
            description="inscribed square side: diameter over sqrt(2)",
            unit=lambda: _inscribed_unit(1 / sqrt(2)),
        ),
        Rule(
            id="rule_13_15",
            kind="square-from-circle",
            citation="Baudhayana Sulvasutra 1.60; also Apastamba, Katyayana",
            description="squaring side: thirteen of fifteen diameter parts",
            unit=lambda: _squaring_unit(from_rational(13, 15)),
        ),
        Rule(
            id="hayashi",
            kind="square-from-circle",
            citation="Manava Sulvasutra 10.3.2.10; reading: Hayashi",
            description="squaring side: altitude of the equilateral triangle on the diameter",
            unit=lambda: _squaring_unit(sqrt(3) / 2),
        ),
        Rule(
            id="double_diagonal",
            kind="doubling",
            citation="Manava Sulvasutra 10.3.2.11-12",
            description="side replaced by diagonal doubles the square's area",
            unit=_doubling_unit,
        ),
        Rule(
            id="hypotenuse",
            kind="hypotenuse",
            citation="Manava Sulvasutra 10.3 (after the samitra vedi passage)",
            description="hypotenuse from length and width, squared and summed",
            unit=_hypotenuse_unit,
        ),
        Rule(
            id="sqrt2_sulba",
            kind="constant",
            citation="Sulvasutra corpus",
            description="the working value 17/12 for sqrt(2)",
            unit=_sqrt2_unit,
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
