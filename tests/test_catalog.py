"""Catalog rules: documented values, witness invariants, scale behaviour."""

import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest

from sulvalab.catalog import (
    CATALOG,
    UnknownRuleError,
    hypotenuse,
    lookup,
    rule_ids,
    sqrt2_sulba_constant,
)
from sulvalab import svg_render
from sulvalab.exactreal import (
    DomainError,
    cell_midpoint,
    constructible,
    enclose,
    from_rational,
    sqrt,
)
from sulvalab.geom import Circle, Point, Segment, Square, distance_squared, point, shape, similar


from child_env import child_env
from oracle_util import oracle


def in_band(interval, low: str, high: str) -> bool:
    return (
        interval.lo.as_fraction() > Fraction(low)
        and interval.hi.as_fraction() < Fraction(high)
    )


# -- hypotenuse ----------------------------------------------------------------


def test_hypotenuse_345():
    assert hypotenuse(3, 4).as_fraction() == 5


def test_hypotenuse_unit():
    assert (hypotenuse(1, 1) - sqrt(2)).sign() == 0


def test_hypotenuse_5_12_13():
    assert hypotenuse(5, 12).as_fraction() == 13


def test_hypotenuse_rejects_negative():
    with pytest.raises(DomainError):
        hypotenuse(-3, 4)


# -- Baudhayana circling ---------------------------------------------------------


def test_baudhayana_radius():
    out = lookup("baudhayana").run(1)
    circle = out.figures[-1]
    assert isinstance(circle, Circle)
    iv = enclose(circle.radius, 64)
    assert iv.contains(oracle(lambda: (2 + mpmath.sqrt(2)) / 6))
    assert in_band(iv, "0.569035", "0.569036")


def test_baudhayana_radius_identity():
    # half side plus a third of the jut equals side*(2+sqrt(2))/6 exactly
    out = lookup("baudhayana").run(1)
    circle = out.figures[-1]
    assert (circle.radius - (2 + sqrt(2)) / 6).sign() == 0


def test_baudhayana_area_oracle():
    out = lookup("baudhayana").run(1)
    iv = out.actual.enclose(96)
    area = oracle(lambda: mpmath.pi * ((2 + mpmath.sqrt(2)) / 6) ** 2)
    assert iv.contains(area)
    # roughly +1.7 percent over the claimed unit area
    assert in_band(iv, "1.0172", "1.0173")


def test_baudhayana_scaling():
    r1 = lookup("baudhayana").run(1).figures[-1].radius
    r2 = lookup("baudhayana").run(2).figures[-1].radius
    assert (r2 - r1 * 2).sign() == 0


def test_baudhayana_rejects_nonpositive():
    with pytest.raises(DomainError):
        lookup("baudhayana").run(0)


# -- Dani reading ------------------------------------------------------------------


def dani_unit():
    return lookup("manava_dani").run(1)


def test_dani_witnesses_equidistant():
    out = dani_unit()
    assert out.witness_points is not None and len(out.witness_points) == 8
    center = Point(from_rational(0), from_rational(0))
    d0 = distance_squared(out.witness_points[0], center)
    for p in out.witness_points[1:]:
        assert (distance_squared(p, center) - d0).sign() == 0


def test_dani_witnesses_on_trisectors_between_side_and_circle():
    out = dani_unit()
    half = from_rational(1, 2)
    outer_radius = sqrt(2) / 2
    sixth = from_rational(1, 6)
    for p in out.witness_points:
        on_vertical = (abs_sign(p.x, sixth)) == 0
        on_horizontal = (abs_sign(p.y, sixth)) == 0
        assert on_vertical or on_horizontal
        far = p.y if on_vertical else p.x
        far = far if far.sign() > 0 else -far
        assert (far - half).sign() == 1  # beyond the square's side
        chord = sqrt(17) / 6
        assert (chord - far).sign() == 1  # short of the circumscribed circle
        assert (distance_squared(p, Point(from_rational(0), from_rational(0)))
                - outer_radius * outer_radius).sign() == -1


def abs_sign(value, target):
    v = value if value.sign() >= 0 else -value
    return (v - target).sign()


def test_dani_radius_closed_form():
    out = dani_unit()
    r2 = out.actual.c1
    closed = from_rational(31, 150) + from_rational(2, 75) * sqrt(17)
    assert (r2 - closed).sign() == 0
    iv = enclose(r2, 64)
    assert in_band(iv, "0.316616", "0.316617")


def test_dani_area_against_oracle():
    iv = dani_unit().actual.enclose(96)
    area = oracle(
        lambda: mpmath.pi
        * (Fraction(31, 150) + 2 * mpmath.sqrt(17) / 75)
    )
    assert iv.contains(area)
    assert in_band(iv, "0.99467", "0.99468")


def test_dani_figures_inventory():
    out = dani_unit()
    squares = [f for f in out.figures if isinstance(f, Square)]
    circles = [f for f in out.figures if isinstance(f, Circle)]
    segments = [f for f in out.figures if isinstance(f, Segment)]
    assert len(squares) == 1 and len(circles) == 2 and len(segments) == 4


def test_dani_scaled_witnesses():
    out = lookup("manava_dani").run(3)
    center = Point(from_rational(0), from_rational(0))
    d0 = distance_squared(out.witness_points[0], center)
    unit_d0 = distance_squared(dani_unit().witness_points[0], center)
    assert (d0 - unit_d0 * 9).sign() == 0


# -- van Gelder reading ----------------------------------------------------------------


def test_vangelder_radius():
    out = lookup("manava_vangelder").run(1)
    circle = out.figures[-1]
    iv = enclose(circle.radius, 64)
    assert iv.contains(
        oracle(lambda: mpmath.sqrt(17) / 6 - (mpmath.sqrt(17) / 6 - 0.5) / 5)
    )
    assert in_band(iv, "0.649747", "0.649748")
    closed = 2 * sqrt(17) / 15 + Fraction(1, 10)
    assert (circle.radius - closed).sign() == 0


def test_vangelder_area_much_too_large():
    out = lookup("manava_vangelder").run(1)
    iv = out.actual.enclose(96)
    assert iv.lo.as_fraction() > Fraction("1.30")
    assert in_band(iv, "1.3262", "1.3263")


def test_vangelder_flagged_as_reconstruction():
    assert lookup("manava_vangelder").reconstruction
    assert not lookup("manava_dani").reconstruction


# -- Gupta reading ------------------------------------------------------------------------


def test_gupta_area_exact():
    out = lookup("manava_gupta").run(1)
    assert out.actual.c0.is_zero()
    assert out.actual.c1.as_fraction() == Fraction(8, 25)


def test_gupta_radius():
    out = lookup("manava_gupta").run(1)
    iv = enclose(out.figures[-1].radius, 64)
    assert in_band(iv, "0.565685", "0.565686")


# -- circumference rules --------------------------------------------------------------------


def test_circumference_manava():
    out = lookup("manava_16_5").run(1)
    assert out.claimed.constant_part().as_fraction() == Fraction(16, 5)
    assert out.actual.c1.as_fraction() == 1


def test_circumference_classical():
    out = lookup("classical_3").run(1)
    assert out.claimed.constant_part().as_fraction() == 3


def test_circumference_jaina():
    out = lookup("jaina_sqrt10").run(1)
    iv = enclose(out.claimed.constant_part(), 64)
    assert iv.contains(oracle(lambda: mpmath.sqrt(10)))
    assert in_band(iv, "3.16227", "3.16228")


def test_circumference_scales_linearly():
    out = lookup("manava_16_5").run(Fraction(7, 2))
    assert out.claimed.constant_part().as_fraction() == Fraction(16, 5) * Fraction(7, 2)


# -- inscribed squares ------------------------------------------------------------------------


def test_inscribed_exact_on_circle():
    out = lookup("inscribed_exact").run(1)
    circle, square = out.figures
    r2 = circle.radius * circle.radius
    for corner in square.corners():
        assert (distance_squared(corner, circle.center) - r2).sign() == 0
    area = square.side * square.side
    assert area.as_fraction() == Fraction(1, 2)


def test_inscribed_variants():
    assert lookup("manava_7_10").run(1).actual.constant_part().as_fraction() == Fraction(7, 10)
    assert lookup("standard_12_17").run(1).actual.constant_part().as_fraction() == Fraction(12, 17)


def test_inscribed_accuracy_ordering():
    target = 1 / sqrt(2)
    err_7_10 = from_rational(7, 10) - target
    err_12_17 = from_rational(12, 17) - target
    for err in (err_7_10, err_12_17):
        assert err.sign() == -1
    assert ((-err_12_17) - (-err_7_10)).sign() == -1  # |12/17 error| smaller


# -- squaring the circle ------------------------------------------------------------------------


def test_square_from_circle_13_15():
    out = lookup("rule_13_15").run(1)
    square = out.figures[1]
    assert square.side.as_fraction() == Fraction(13, 15)
    assert out.claimed.c1.as_fraction() == Fraction(1, 4)


def test_square_from_circle_hayashi():
    out = lookup("hayashi").run(1)
    square = out.figures[1]
    iv = enclose(square.side, 64)
    assert iv.contains(oracle(lambda: mpmath.sqrt(3) / 2))
    assert in_band(iv, "0.866025", "0.866026")
    # implied circumference ratio 4*side**2/d**2 is exactly 3
    assert (square.side * square.side * 4 - 3).sign() == 0


# -- doubling and constants ------------------------------------------------------------------------


def test_double_square_exact():
    out = lookup("double_diagonal").run(1)
    assert (out.actual - out.claimed).sign() == 0
    assert out.actual.constant_part().as_fraction() == 2


def test_double_square_three_halves():
    out = lookup("double_diagonal").run(Fraction(3, 2))
    assert out.actual.constant_part().as_fraction() == Fraction(9, 2)


def test_double_square_composed_twice():
    once = lookup("double_diagonal").run(1)
    new_side = once.figures[1].side
    twice = lookup("double_diagonal").run(new_side)
    assert twice.actual.constant_part().as_fraction() == 4


def test_sqrt2_constant():
    value = sqrt2_sulba_constant()
    assert value.as_fraction() == Fraction(17, 12)
    assert (value - sqrt(2)).sign() == 1
    gap = value - sqrt(2)
    iv = enclose(gap, 64)
    assert in_band(iv, "0.002453", "0.002454")


# -- registry ------------------------------------------------------------------------


def test_catalog_ids_unique_and_cited():
    ids = [rule.id for rule in CATALOG]
    assert len(ids) == len(set(ids))
    assert len(ids) >= 13
    for rule in CATALOG:
        assert rule.citation
        assert rule.description


def test_lookup_aliases():
    assert lookup("gupta").id == "manava_gupta"
    assert lookup("dani").id == "manava_dani"
    assert lookup("manava_16_5").id == "manava_16_5"


def test_lookup_unknown():
    with pytest.raises(UnknownRuleError):
        lookup("archimedes")


def test_rule_ids_sorted():
    ids = rule_ids()
    assert list(ids) == sorted(ids)
    assert "baudhayana" in ids and "manava_dani" in ids


def _unit_values(out):
    """Every value of a rule's output: claims, figure anchors and extents,
    witnesses."""
    values = [out.claimed.c0, out.claimed.c1, out.actual.c0, out.actual.c1]
    for figure in out.figures:
        anchors, extent = shape(figure)
        values += [c for p in anchors for c in (p.x, p.y)]
        values += [] if extent is None else [extent]
    values += [c for p in out.witness_points or () for c in (p.x, p.y)]
    return values


def test_catalog_needs_towers_of_height_at_most_2():
    # far below MAX_TOWER_HEIGHT, so the kernel's bound never shapes a rule
    heights = {
        rule.id: max(0 if v.tower is None else v.tower.height for v in _unit_values(rule.run(1)))
        for rule in CATALOG
    }
    assert max(heights.values()) == 2 == heights["manava_dani"]


def test_run_validates_size():
    with pytest.raises(DomainError):
        lookup("baudhayana").run(-1)


def test_scale_invariance_of_claim_ratio():
    # actual/claimed ratio has identical components at every scale
    for rule_id in ("baudhayana", "manava_dani", "manava_gupta", "rule_13_15"):
        rule = lookup(rule_id)
        base = rule.run(1)
        if base.actual.c1.is_zero():
            base_ratio = base.actual.c0 / base.claimed.c1
        else:
            base_ratio = base.actual.c1 / base.claimed.c0
        for k in (2, 3, Fraction(7, 2)):
            out = rule.run(k)
            if out.actual.c1.is_zero():
                ratio = out.actual.c0 / out.claimed.c1
            else:
                ratio = out.actual.c1 / out.claimed.c0
            assert (ratio - base_ratio).sign() == 0


# -- shared units and lazy placement ----------------------------------------------


@pytest.mark.parametrize("rule", CATALOG, ids=lambda rule: rule.id)
def test_lazy_placement_equals_eager_placement(rule):
    unit = rule.unit()
    assert rule.unit() is unit
    assert rule.run(1) is unit
    for size in (1, Fraction(7, 2), sqrt(2)):
        k = constructible(size)
        for center in (point(0, 0), point(Fraction(3, 2), -5)):
            out = rule.run(size, center)
            assert out.figures == tuple(similar(f, k, center) for f in unit.figures)
            if unit.witness_points is None:
                assert out.witness_points is None
            else:
                assert out.witness_points == tuple(
                    similar(p, k, center) for p in unit.witness_points
                )
            # mapped once: a second access returns the same objects
            assert out.figures is out.figures
            assert out == rule.run(size, center)


def _coordinates(figures) -> list[tuple[int, object]]:
    """``(axis, value)`` of every coordinate of ``figures``: 0 and 1 for x
    and y, 2 for a half extent."""
    found = []
    for figure in figures:
        anchors, extent = shape(figure)
        for p in anchors:
            found += [(0, p.x), (1, p.y)]
        if extent is not None:
            found.append((2, extent))
    return found


@pytest.mark.parametrize("rule_id", ["manava_dani", "manava_vangelder"])
def test_placement_maps_each_distinct_coordinate_once(rule_id, monkeypatch):
    rule = lookup(rule_id)
    unit = rule.unit()
    size, center = Fraction(7, 3), point(Fraction(3, 2), -5)
    out = rule.run(size, center)
    unit_figures = unit.figures + (unit.witness_points or ())
    placed_figures = out.figures + (out.witness_points or ())
    # equal rationals, or one irrational object, come out as one object per axis
    images: dict = {}
    for (axis, u), (same_axis, v) in zip(
        _coordinates(unit_figures), _coordinates(placed_figures), strict=True
    ):
        assert axis == same_axis
        key = (axis, u.num, u.den) if u.is_rational() else (axis, id(u))
        assert images.setdefault(key, v) is v
    assert len({id(v) for v in images.values()}) == len(images)
    assert len(images) < len(_coordinates(placed_figures))
    # the renderer takes one cell per distinct value
    calls = []

    def counting(value, precision_bits):
        calls.append(value)
        return cell_midpoint(value, precision_bits)

    monkeypatch.setattr(svg_render, "cell_midpoint", counting)
    svg = svg_render.render_rule_output(out)
    assert len(calls) == len(images)
    monkeypatch.undo()
    # direct similar calls, each mapping on its own, give equal figures and
    # the same bytes
    k = constructible(size)
    eager = [similar(f, k, center) for f in unit_figures]
    assert tuple(eager) == placed_figures
    assert svg_render.to_svg(eager) == svg


def test_importing_builds_nothing():
    # what the benchmark's worker checks at start, checked here in a fresh
    # interpreter: importing the package opens no tower, builds no unit
    # construction and leaves the shared constants without memos
    child = """
import sulvalab, sulvalab.cli
from sulvalab import catalog, exactreal as er
problems = []
if er._ROOT_EXTENSIONS:
    problems.append(f"{len(er._ROOT_EXTENSIONS)} towers registered")
for name, unit in [("_dani_unit", catalog._dani_unit)] + [
    (rule.id, rule.unit) for rule in catalog.CATALOG
]:
    if unit.cache_info().currsize:
        problems.append(f"unit of {name} built")
for name in ("_ZERO", "_ONE"):
    if getattr(er, name)._iv is not None:
        problems.append(f"{name} carries a memo")
for name in ("c0", "c1"):
    if getattr(er.PI, name)._iv is not None:
        problems.append(f"PI.{name} carries a memo")
print(problems)
"""
    proc = subprocess.run(
        [sys.executable, "-c", child],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
