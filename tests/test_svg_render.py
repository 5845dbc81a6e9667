"""SVG rendering: element inventories, determinism, on-circle markers."""

import math
import re
from fractions import Fraction

import pytest

from sulvalab.catalog import lookup
from sulvalab.exactreal import DomainError, cell_midpoint, enclose, from_rational, sqrt
from sulvalab.geom import Circle, point
from sulvalab.svg_render import RenderOptions, render_rule_output, to_svg

from oracle_util import fraction_calls


def dani_scene():
    out = lookup("manava_dani").run(1)
    return list(out.figures) + list(out.witness_points)


def count(pattern: str, svg: str) -> int:
    return len(re.findall(pattern, svg))


def test_dani_scene_inventory():
    svg = to_svg(dani_scene())
    assert count(r"<rect\b", svg) == 1
    assert count(r'class="circle"', svg) == 2
    assert count(r'class="segment"', svg) == 4
    assert count(r'class="mark"', svg) == 8


def test_single_circle_centered():
    options = RenderOptions(size=400)
    svg = to_svg([Circle(point(0, 0), from_rational(1))], options)
    match = re.search(
        r'<circle class="circle" cx="([\d.]+)" cy="([\d.]+)" r="([\d.]+)"', svg
    )
    assert match is not None
    cx, cy, r = (float(g) for g in match.groups())
    assert cx == pytest.approx(200, abs=0.01)
    assert cy == pytest.approx(200, abs=0.01)
    assert r == pytest.approx(160, abs=0.01)  # 400 px minus 10% margins


def test_byte_identical_across_runs():
    scene = dani_scene()
    first = to_svg(scene).encode()
    second = to_svg(list(lookup("manava_dani").run(1).figures)
                    + list(lookup("manava_dani").run(1).witness_points))
    assert first == second.encode()


def test_coordinates_do_not_depend_on_earlier_enclosures():
    value = sqrt(2) + sqrt(3) / 7
    before = cell_midpoint(value, 64)
    enclose(value, 1024)  # leaves a tighter memo than the 64 bits used here
    assert cell_midpoint(value, 64) == before
    assert before.as_fraction() == enclose(value, 64).midpoint()


def test_rendering_makes_no_fraction_calls():
    out = lookup("manava_dani").run(Fraction(3, 2), point(sqrt(2), Fraction(-7, 2)))
    scene = list(out.figures) + list(out.witness_points)
    options = RenderOptions(size=333, show_labels=True)
    calls = fraction_calls(lambda: to_svg(scene, options))
    assert calls == {}, f"{sum(calls.values())} calls into fractions.py: {calls}"


def test_all_coordinates_inside_canvas():
    options = RenderOptions(size=640)
    svg = to_svg(dani_scene(), options)
    for sx, sy in re.findall(r'cx="(-?[\d.]+)" cy="(-?[\d.]+)"', svg):
        assert 0 <= float(sx) <= 640
        assert 0 <= float(sy) <= 640
    for value in re.findall(r'[xy][12]="(-?[\d.]+)"', svg):
        assert -1 <= float(value) <= 641


def test_marks_sit_on_the_produced_circle():
    svg = to_svg(dani_scene())
    circles = [
        tuple(float(v) for v in m)
        for m in re.findall(
            r'<circle class="circle" cx="([\d.]+)" cy="([\d.]+)" r="([\d.]+)"',
            svg,
        )
    ]
    marks = [
        (float(a), float(b))
        for a, b in re.findall(
            r'<circle class="mark" cx="([\d.]+)" cy="([\d.]+)"', svg
        )
    ]
    assert len(marks) == 8
    # the produced circle is the smaller of the two drawn circles
    cx, cy, r = min(circles, key=lambda c: c[2])
    for mx, my in marks:
        distance = math.hypot(mx - cx, my - cy)
        assert abs(distance - r) <= 0.5


def test_empty_figure_list_rejected():
    with pytest.raises(DomainError):
        to_svg([])


def test_options_validated():
    with pytest.raises(DomainError):
        RenderOptions(size=50)
    with pytest.raises(DomainError):
        RenderOptions(label_digits=0)
    for bad in ({"size": 1000.0}, {"size": True}, {"size": "800"},
                {"label_digits": 2.5}, {"label_digits": True}, {"label_digits": Fraction(4)}):
        with pytest.raises(DomainError, match="must be an int"):
            RenderOptions(**bad)


def test_point_auto_labels_toggle():
    options = RenderOptions(show_labels=True, label_digits=4)
    svg = to_svg([point(Fraction(1, 3), 0)], options)
    assert "0.3333" in svg


def test_render_rule_output_witness_toggle():
    out = lookup("manava_dani").run(1)
    with_marks = render_rule_output(out)
    without = render_rule_output(
        out, RenderOptions(show_witness_points=False)
    )
    assert count(r'class="mark"', with_marks) == 8
    assert count(r'class="mark"', without) == 0


def test_render_baudhayana_square_plus_circle():
    out = lookup("baudhayana").run(1)
    svg = render_rule_output(out)
    assert count(r"<rect\b", svg) == 1
    assert count(r'class="circle"', svg) == 1
