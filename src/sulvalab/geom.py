"""Exact planar geometry over constructible coordinates.

Figures carry :class:`~sulvalab.exactreal.ConstructibleReal` coordinates, so
every predicate below (equal spacing, incidence, tangency) is decided by an
exact sign test rather than a tolerance.  Squares are axis-aligned and
center-based; distances are exposed squared so that square roots are taken
explicitly by callers and tower growth stays visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .exactreal import (
    Coercible,
    ConstructibleReal,
    DomainError,
    Quantity,
    constructible,
    sqrt,
)

__all__ = [
    "Circle",
    "Figure",
    "Point",
    "Segment",
    "Square",
    "circle_area",
    "circle_circumference_true",
    "circumscribed_circle",
    "distance_squared",
    "divide_segment",
    "point",
    "similar",
    "square_area",
    "trisector_lines",
    "vertical_line_circle_intersection",
]


@dataclass(frozen=True, eq=False)
class Point:
    x: ConstructibleReal
    y: ConstructibleReal

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Point):
            return NotImplemented
        return self.x == other.x and self.y == other.y


def point(x: Coercible, y: Coercible) -> Point:
    return Point(constructible(x), constructible(y))


@dataclass(frozen=True, eq=False)
class Segment:
    a: Point
    b: Point

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise DomainError("degenerate segment: endpoints coincide")

    def midpoint(self) -> Point:
        half = constructible(1) / 2
        return Point((self.a.x + self.b.x) * half, (self.a.y + self.b.y) * half)


@dataclass(frozen=True, eq=False)
class Square:
    """Axis-aligned square given by its center and half side length."""

    center: Point
    half_side: ConstructibleReal

    def __post_init__(self) -> None:
        if self.half_side.sign() != 1:
            raise DomainError("square half_side must be positive")

    @property
    def side(self) -> ConstructibleReal:
        return self.half_side * 2

    def corners(self) -> tuple[Point, Point, Point, Point]:
        cx, cy, h = self.center.x, self.center.y, self.half_side
        return (
            Point(cx - h, cy - h),
            Point(cx + h, cy - h),
            Point(cx + h, cy + h),
            Point(cx - h, cy + h),
        )


@dataclass(frozen=True, eq=False)
class Circle:
    center: Point
    radius: ConstructibleReal

    def __post_init__(self) -> None:
        if self.radius.sign() != 1:
            raise DomainError("circle radius must be positive")


Figure = Union[Point, Segment, Square, Circle]


def similar(figure: Figure, k: ConstructibleReal, offset: Point) -> Figure:
    """The image of ``figure`` under ``p -> k*p + offset``, for ``k > 0``.

    The multiply is skipped when ``k`` is 1 and the add when ``offset`` is
    the origin, so a length the map leaves alone stays the same value.
    """
    scale = not (k.is_rational() and k.as_fraction() == 1)
    shift = not (offset.x.is_zero() and offset.y.is_zero())
    if isinstance(figure, Point):
        anchors: tuple[Point, ...] = (figure,)
    elif isinstance(figure, Segment):
        anchors = (figure.a, figure.b)
    else:
        anchors = (figure.center,)
    images = []
    for p in anchors:
        x, y = (p.x * k, p.y * k) if scale else (p.x, p.y)
        images.append(Point(x + offset.x, y + offset.y) if shift else Point(x, y))
    if isinstance(figure, Point):
        return images[0]
    if isinstance(figure, Segment):
        return Segment(images[0], images[1])
    if isinstance(figure, Square):
        return Square(images[0], figure.half_side * k if scale else figure.half_side)
    return Circle(images[0], figure.radius * k if scale else figure.radius)


def divide_segment(segment: Segment, parts: int) -> list[Point]:
    """The ``parts + 1`` equally spaced points from one endpoint to the other."""
    if parts < 1:
        raise DomainError("a segment divides into at least one part")
    ax, ay = segment.a.x, segment.a.y
    dx, dy = segment.b.x - ax, segment.b.y - ay
    points = []
    for k in range(parts + 1):
        t = constructible(k) / parts
        points.append(Point(ax + dx * t, ay + dy * t))
    return points


def circumscribed_circle(square: Square) -> Circle:
    """The circle through the square's four corners (radius = half diagonal)."""
    return Circle(square.center, square.half_side * sqrt(2))


def trisector_lines(square: Square, axis: str) -> tuple[Segment, Segment]:
    """The two lines cutting the square into thirds, as segments spanning it.

    ``axis="vertical"`` gives the vertical lines ``x = cx +- half_side/3``;
    ``axis="horizontal"`` the corresponding horizontal pair.
    """
    cx, cy, h = square.center.x, square.center.y, square.half_side
    offset = h / 3
    if axis == "vertical":
        return (
            Segment(Point(cx - offset, cy - h), Point(cx - offset, cy + h)),
            Segment(Point(cx + offset, cy - h), Point(cx + offset, cy + h)),
        )
    if axis == "horizontal":
        return (
            Segment(Point(cx - h, cy - offset), Point(cx + h, cy - offset)),
            Segment(Point(cx - h, cy + offset), Point(cx + h, cy + offset)),
        )
    raise DomainError(f"axis must be 'horizontal' or 'vertical', got {axis!r}")


def vertical_line_circle_intersection(
    x0: Coercible, circle: Circle
) -> list[Point]:
    """Exact intersections of the line ``x = x0`` with a circle.

    Returns two points (ascending y), one point at tangency, or none; an
    empty result is a valid answer, not an error.
    """
    x = constructible(x0)
    dx = x - circle.center.x
    rest = circle.radius * circle.radius - dx * dx
    s = rest.sign()
    if s < 0:
        return []
    if s == 0:
        return [Point(x, circle.center.y)]
    offset = sqrt(rest)
    return [
        Point(x, circle.center.y - offset),
        Point(x, circle.center.y + offset),
    ]


def distance_squared(p: Point, q: Point) -> ConstructibleReal:
    dx = p.x - q.x
    dy = p.y - q.y
    return dx * dx + dy * dy


def square_area(square: Square) -> Quantity:
    return Quantity(square.side * square.side, 0)


def circle_area(circle: Circle) -> Quantity:
    return Quantity(0, circle.radius * circle.radius)


def circle_circumference_true(circle: Circle) -> Quantity:
    return Quantity(0, circle.radius * 2)
