"""Exact geometry kernel: spec'd examples plus incidence/scaling properties."""

from fractions import Fraction

import mpmath
import pytest

from sulvalab.exactreal import DomainError, enclose, from_rational, sqrt
from sulvalab.geom import (
    Circle,
    Point,
    Segment,
    Square,
    circle_area,
    circle_circumference_true,
    circumscribed_circle,
    distance_squared,
    divide_segment,
    point,
    shape,
    similar,
    square_area,
    trisector_lines,
    vertical_line_circle_intersection,
)


def unit_square():
    return Square(point(0, 0), from_rational(1, 2))


def test_degenerate_segment_rejected():
    with pytest.raises(DomainError):
        Segment(point(0, 0), point(0, 0))


def test_nonpositive_sizes_rejected():
    with pytest.raises(DomainError):
        Square(point(0, 0), from_rational(0))
    with pytest.raises(DomainError):
        Circle(point(0, 0), from_rational(-1))


# -- divide_segment -----------------------------------------------------------


def test_divide_endpoints_only():
    s = Segment(point(0, 0), point(1, 0))
    pts = divide_segment(s, 1)
    assert len(pts) == 2
    assert pts[0] == s.a and pts[1] == s.b


def test_divide_in_thirds():
    s = Segment(point(0, 0), point(1, 0))
    pts = divide_segment(s, 3)
    assert [p.x.as_fraction() for p in pts] == [
        Fraction(0),
        Fraction(1, 3),
        Fraction(2, 3),
        Fraction(1),
    ]


def test_divide_diameter_in_ten():
    diameter = Segment(point(Fraction(-1, 2), 0), point(Fraction(1, 2), 0))
    pts = divide_segment(diameter, 10)
    assert len(pts) == 11
    # 7/10 of the diameter spans from the 2nd to the 9th division point
    span = pts[8].x - pts[1].x
    assert span.as_fraction() == Fraction(7, 10)


def test_divide_zero_parts_rejected():
    with pytest.raises(DomainError):
        divide_segment(Segment(point(0, 0), point(1, 0)), 0)


def test_divide_equal_spacing_exact():
    s = Segment(point(Fraction(1, 7), Fraction(2, 3)), point(3, sqrt(2)))
    pts = divide_segment(s, 5)
    gaps = [distance_squared(pts[i], pts[i + 1]) for i in range(5)]
    for gap in gaps[1:]:
        assert (gap - gaps[0]).sign() == 0
    # collinearity: cross product of consecutive displacements vanishes
    for i in range(4):
        ux, uy = pts[i + 1].x - pts[i].x, pts[i + 1].y - pts[i].y
        vx, vy = pts[i + 2].x - pts[i + 1].x, pts[i + 2].y - pts[i + 1].y
        assert (ux * vy - uy * vx).sign() == 0


# -- circumscribed circle -------------------------------------------------------


def test_circumscribed_circle_unit_square():
    c = circumscribed_circle(unit_square())
    assert (c.radius - sqrt(2) / 2).sign() == 0
    iv = enclose(c.radius, 40)
    assert iv.lo.as_fraction() > Fraction(7071067, 10**7)
    assert iv.hi.as_fraction() < Fraction(7071068, 10**7)


def test_circumscribed_circle_half_side_one():
    c = circumscribed_circle(Square(point(0, 0), from_rational(1)))
    assert (c.radius - sqrt(2)).sign() == 0


def test_circumscribed_circle_through_all_corners():
    sq = Square(point(Fraction(1, 3), Fraction(-2, 5)), from_rational(3, 4))
    c = circumscribed_circle(sq)
    r2 = c.radius * c.radius
    for corner in sq.corners():
        assert (distance_squared(corner, c.center) - r2).sign() == 0


# -- trisectors -----------------------------------------------------------------


def test_trisectors_unit_square():
    left, right = trisector_lines(unit_square(), "vertical")
    assert left.a.x.as_fraction() == Fraction(-1, 6)
    assert right.a.x.as_fraction() == Fraction(1, 6)


def test_trisectors_scaled_square():
    sq = Square(point(0, 0), from_rational(3, 2))
    low, high = trisector_lines(sq, "horizontal")
    assert low.a.y.as_fraction() == Fraction(-1, 2)
    assert high.a.y.as_fraction() == Fraction(1, 2)


def test_trisectors_both_axes_give_eight_circle_points():
    sq = unit_square()
    circle = circumscribed_circle(sq)
    hits = []
    for seg in trisector_lines(sq, "vertical"):
        hits.extend(vertical_line_circle_intersection(seg.a.x, circle))
    for seg in trisector_lines(sq, "horizontal"):
        # horizontal line y = y0 meets the circle where the vertical line
        # x = y0 meets the coordinate-swapped circle
        swapped = Circle(Point(circle.center.y, circle.center.x), circle.radius)
        hits.extend(
            Point(p.y, p.x)
            for p in vertical_line_circle_intersection(seg.a.y, swapped)
        )
    assert len(hits) == 8
    r2 = circle.radius * circle.radius
    for p in hits:
        assert (distance_squared(p, circle.center) - r2).sign() == 0


def test_trisectors_bad_axis():
    with pytest.raises(DomainError):
        trisector_lines(unit_square(), "diagonal")


# -- line/circle intersection ------------------------------------------------------


def test_intersection_at_one_sixth():
    circle = circumscribed_circle(unit_square())
    lower, upper = vertical_line_circle_intersection(Fraction(1, 6), circle)
    assert (upper.y - sqrt(17) / 6).sign() == 0
    assert (lower.y + sqrt(17) / 6).sign() == 0
    with mpmath.workprec(100):
        reference = mpmath.sqrt(17) / 6
        man, exp = mpmath.mpf(reference).man_exp
    assert enclose(upper.y, 64).contains(Fraction(man) * Fraction(2) ** exp)


def test_intersection_tangent():
    circle = Circle(point(0, 0), from_rational(1))
    pts = vertical_line_circle_intersection(1, circle)
    assert len(pts) == 1
    assert pts[0] == point(1, 0)


def test_intersection_beyond_radius():
    circle = Circle(point(0, 0), from_rational(1))
    assert vertical_line_circle_intersection(2, circle) == []


def test_intersection_residual_is_zero():
    circle = Circle(point(Fraction(1, 4), Fraction(-1, 3)), sqrt(2))
    for p in vertical_line_circle_intersection(Fraction(5, 6), circle):
        residual = distance_squared(p, circle.center) - circle.radius**2
        assert residual.sign() == 0


# -- distances and measures ----------------------------------------------------------


def test_distance_squared_345():
    assert distance_squared(point(0, 0), point(3, 4)).as_fraction() == 25


def test_distance_squared_diagonal_doubling():
    assert distance_squared(point(0, 0), point(1, 1)).as_fraction() == 2


def test_areas_and_circumference():
    q = square_area(unit_square())
    assert q.is_constant() and q.constant_part().as_fraction() == 1
    c = circle_area(Circle(point(0, 0), from_rational(1)))
    assert c.c0.is_zero() and c.c1.as_fraction() == 1
    iv = c.enclose(40)
    assert iv.lo.as_fraction() > Fraction(314159, 10**5)
    assert iv.hi.as_fraction() < Fraction(314160, 10**5)
    circ = circle_circumference_true(Circle(point(0, 0), from_rational(1, 2)))
    assert circ.c1.as_fraction() == 1


def test_scaling_covariance():
    base = Square(point(0, 0), from_rational(1, 2))
    base_radius = circumscribed_circle(base).radius
    base_area = square_area(base).constant_part()
    for k in (1, 2, 3, Fraction(7, 2)):
        scaled = Square(point(0, 0), from_rational(1, 2) * k)
        radius = circumscribed_circle(scaled).radius
        assert (radius - base_radius * k).sign() == 0
        area = square_area(scaled).constant_part()
        assert (area - base_area * k * k).sign() == 0


def test_shape_gives_placing_points_and_half_extent():
    a, b, h = point(1, 2), point(-1, sqrt(3)), sqrt(5)
    assert shape(a) == ((a,), None)
    assert shape(Segment(a, b)) == ((a, b), None)
    assert shape(Square(b, h)) == ((b,), h)
    assert shape(Circle(a, h)) == ((a,), h)


def test_similar_maps_every_figure_kind():
    k, offset = sqrt(2), point(3, from_rational(-1, 2))
    a, b = point(1, 2), point(-1, sqrt(3))

    def image(p):
        return Point(p.x * k + offset.x, p.y * k + offset.y)

    assert similar(a, k, offset) == image(a)
    segment = similar(Segment(a, b), k, offset)
    assert segment.a == image(a) and segment.b == image(b)
    square = similar(Square(a, from_rational(1, 2)), k, offset)
    assert square.center == image(a) and square.half_side == k / 2
    circle = similar(Circle(b, sqrt(5)), k, offset)
    assert circle.center == image(b) and circle.radius == sqrt(10)


def test_similar_leaves_identity_parts_alone():
    one, origin = from_rational(1), point(0, 0)
    half_side = sqrt(2)
    translated = similar(Square(point(1, 1), half_side), one, point(2, 3))
    assert translated.half_side is half_side
    assert translated.center == point(3, 4)
    corner = point(sqrt(3), 1)
    fixed = similar(corner, one, origin)
    assert fixed.x is corner.x and fixed.y is corner.y


def test_figures_compare_exactly_by_fields():
    # equal values built along different paths compare equal; hashing stays
    # unsupported, as for the coordinates
    half = from_rational(1, 2)
    same_half = sqrt(2) * sqrt(2) / 4
    a, b = point(0, 0), point(1, sqrt(3))
    assert Square(a, half) == Square(point(0, 0), same_half)
    assert Square(a, half) != Square(a, from_rational(1, 3))
    assert Square(a, half) != Square(b, half)
    assert Circle(b, sqrt(2)) == Circle(point(1, sqrt(3)), sqrt(8) / 2)
    assert Circle(a, half) != Circle(a, sqrt(2))
    assert Segment(a, b) == Segment(point(0, 0), point(1, sqrt(12) / 2))
    assert Segment(a, b) != Segment(b, a)
    # a square and a circle on the same numbers are different figures
    assert Square(a, half) != Circle(a, half)
    assert Point(a.x, a.y) != Circle(a, half)
    for figure in (a, Segment(a, b), Square(a, half), Circle(a, half)):
        with pytest.raises(TypeError):
            hash(figure)
