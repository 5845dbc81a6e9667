"""Acceptance suite: the package's exit criteria, one test per criterion.

Each criterion prints a PASS line once its assertions hold (run with
``pytest tests/test_acceptance.py -v -s`` to see them).  Quoted reference
figures are checked with certified semantics: the enclosure must lie
within one unit in the last printed decimal place of the quoted value.
"""

import math
import random
import re
from fractions import Fraction

import mpmath
import pytest

from oracle_util import oracle
from sulvalab import analysis, catalog
from sulvalab.analysis import compare_rules, implied_pi, relative_error
from sulvalab.exactreal import enclose, from_rational, sqrt
from sulvalab.geom import Point, distance_squared
from sulvalab.svg_render import to_svg
from sulvalab.sulvascript import evaluate, format_script, parse, render_report

from test_sulvascript import CORPUS


def assert_quotes(interval, figure: str) -> None:
    """The certified enclosure confirms the quoted decimal figure.

    A figure printed with n decimals stands for its value up to one unit
    in the last place; the whole interval must sit inside that band.
    """
    quoted = Fraction(figure)
    decimals = len(figure.partition(".")[2])
    ulp = Fraction(1, 10**decimals)
    lo, hi = interval.lo.as_fraction(), interval.hi.as_fraction()
    assert quoted - ulp <= lo and hi <= quoted + ulp, (
        f"enclosure [{float(lo)}, {float(hi)}] does not confirm {figure}"
    )


def assert_rounds_to(interval, figure: str) -> None:
    """Every point of the enclosure rounds to the quoted decimal."""
    decimals = len(figure.partition(".")[2])
    scale = 10**decimals
    lo = (interval.lo.as_fraction() * scale + Fraction(1, 2)).__floor__()
    hi = (interval.hi.as_fraction() * scale + Fraction(1, 2)).__floor__()
    assert lo == hi == Fraction(figure) * scale


def report(line: str) -> None:
    print(line)


# -- criterion 1: the circumference prescription 16/5 --------------------------------


def test_criterion_01_manava_circumference():
    assert implied_pi("manava_16_5").as_fraction() == Fraction(16, 5)
    error = relative_error("manava_16_5", 128)
    assert error.width() < Fraction(1, 10**4)
    assert_quotes(error, "1.8592")
    assert error.is_positive()
    report(
        "ACCEPTANCE 1: PASS - implied ratio exactly 16/5, error "
        "+1.8592% certified to width < 1e-4"
    )


# -- criterion 2: the classical circling of the square --------------------------------


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the quoted figure 1.017307 is arithmetically inconsistent with the "
        "rule's radius (2+sqrt(2))/6: the circle's area is pi*(3+2*sqrt(2))/18 "
        "= 1.01725243..., confirmed by an independent 1000-bit oracle; the "
        "figure appears to be a misprint and the suite keeps the stated check "
        "as an expected failure rather than weakening it"
    ),
)
def test_criterion_02a_circling_area_quoted_figure():
    area = catalog.lookup("baudhayana").run(1).actual.enclose(128)
    report(
        "ACCEPTANCE 2a: FAIL (expected) - quoted area figure 1.017307 "
        "contradicts the exact value 1.01725243..."
    )
    assert_quotes(area, "1.017307")


def test_criterion_02b_circling_true_area_and_rounded_error():
    area = catalog.lookup("baudhayana").run(1).actual.enclose(128)
    assert_quotes(area, "1.01725243")
    assert area.contains(
        oracle(lambda: mpmath.pi * ((2 + mpmath.sqrt(2)) / 6) ** 2)
    )
    error = relative_error("baudhayana", 128)
    assert_rounds_to(error, "1.7")
    report(
        "ACCEPTANCE 2: PASS (area figure excepted, see 2a) - area "
        "1.01725243..., error rounds to 1.7% at one decimal"
    )


# -- criterion 3: the nine-part reading -------------------------------------------------


def test_criterion_03_dani_reading():
    out = catalog.lookup("manava_dani").run(1)
    area = out.actual.enclose(128)
    assert_quotes(area, "0.99467")
    error = relative_error("manava_dani", 128)
    assert error.is_negative()
    # the error magnitude rounds to 0.5 percent at one decimal
    for magnitude in (-error.hi.as_fraction(), -error.lo.as_fraction()):
        assert (magnitude * 10 + Fraction(1, 2)).__floor__() == 5
    assert out.witness_points is not None and len(out.witness_points) == 8
    center = Point(from_rational(0), from_rational(0))
    base = distance_squared(out.witness_points[0], center)
    for mark in out.witness_points[1:]:
        assert (distance_squared(mark, center) - base).sign() == 0
    report(
        "ACCEPTANCE 3: PASS - area 0.99467..., error rounds to 0.5%, "
        "8 witness marks exactly equidistant from the center"
    )


# -- criterion 4: the four-fifths reading ------------------------------------------------


def test_criterion_04_gupta_reading():
    out = catalog.lookup("manava_gupta").run(1)
    assert out.actual.c0.is_zero()
    assert out.actual.c1.as_fraction() == Fraction(8, 25)
    assert implied_pi("manava_gupta").as_fraction() == Fraction(25, 8)
    report(
        "ACCEPTANCE 4: PASS - area exactly (8/25)*pi, implied ratio "
        "exactly 25/8"
    )


# -- criterion 5: the chord-minus-a-fifth reading -------------------------------------------


def test_criterion_05_vangelder_reading():
    rule = catalog.lookup("manava_vangelder")
    assert rule.reconstruction
    area = rule.run(1).actual.enclose(128)
    assert area.lo.as_fraction() > Fraction("1.30")
    assert_quotes(area, "1.3262")
    report_row = analysis.report_for("manava_vangelder")
    assert report_row.reconstruction_flag
    report(
        "ACCEPTANCE 5: PASS - area certified above 1.30 (about 1.3262), "
        "row carries the reconstruction flag"
    )


# -- criterion 6: inscribed squares ------------------------------------------------------------


def test_criterion_06_inscribed_square_accuracy():
    target = 1 / sqrt(2)
    gap_7_10 = target - from_rational(7, 10)
    gap_12_17 = target - from_rational(12, 17)
    assert gap_7_10.sign() == 1 and gap_12_17.sign() == 1
    assert (gap_12_17 - gap_7_10).sign() == -1  # exact magnitude comparison
    finer = relative_error("standard_12_17", 128)
    rough = relative_error("manava_7_10", 128)
    # interval comparison: |finer| strictly below |rough| with disjoint bounds
    assert -finer.lo.as_fraction() < -rough.hi.as_fraction()
    report(
        "ACCEPTANCE 6: PASS - |error(12/17)| < |error(7/10)| against "
        "1/sqrt(2), exactly and as disjoint intervals"
    )


# -- criterion 7: squaring the circle ----------------------------------------------------------


def test_criterion_07_squaring_rules():
    assert implied_pi("rule_13_15").as_fraction() == Fraction(676, 225)
    assert implied_pi("hayashi").as_fraction() == 3
    for rule_id in ("rule_13_15", "hayashi"):
        error = relative_error(rule_id, 128)
        assert error.is_negative()
        assert -error.hi.as_fraction() > 4  # magnitude above 4 percent
    report(
        "ACCEPTANCE 7: PASS - implied ratios exactly 676/225 and 3, both "
        "with error magnitude above 4%"
    )


# -- criterion 8: exact-arithmetic property suite -------------------------------------------------


def test_criterion_08_property_suite():
    rng = random.Random(20260810)
    for _ in range(200):
        x = Fraction(rng.randrange(0, 10**6), rng.randrange(1, 10**4))
        r = sqrt(x)
        assert (r * r - x).sign() == 0

    corpus = [
        (sqrt(2), lambda: mpmath.sqrt(2)),
        ((2 + sqrt(2)) / 6, lambda: (2 + mpmath.sqrt(2)) / 6),
        (sqrt(17) / 3, lambda: mpmath.sqrt(17) / 3),
        (from_rational(17, 12) - sqrt(2),
         lambda: mpmath.mpf(17) / 12 - mpmath.sqrt(2)),
        (sqrt(1 + sqrt(2)), lambda: mpmath.sqrt(1 + mpmath.sqrt(2))),
    ]
    for value, reference in corpus:
        expected = oracle(reference, prec=1000)
        previous = None
        for precision in (8, 16, 64, 256):
            interval = enclose(value, precision)
            assert interval.contains(expected)
            if previous is not None:
                assert previous.contains_interval(interval)
            previous = interval

    triples = [
        (from_rational(2, 3) + sqrt(2), sqrt(3) - 1, from_rational(7, 5)),
        (sqrt(5), 1 - sqrt(2), sqrt(3) / 2),
    ]
    for x, y, z in triples:
        assert ((x * y) * z - x * (y * z)).sign() == 0
        assert (x * (y + z) - (x * y + x * z)).sign() == 0

    for rule_id in ("baudhayana", "manava_dani", "manava_gupta",
                    "manava_vangelder", "rule_13_15", "hayashi"):
        base = implied_pi(rule_id, at=1)
        for k in (1, 2, 3, Fraction(7, 2)):
            assert (implied_pi(rule_id, at=k) - base).sign() == 0

    report(
        "ACCEPTANCE 8: PASS - sqrt identity (200 cases), enclosure "
        "soundness and nesting vs 1000-bit oracle, field axioms, scale "
        "invariance of implied ratios"
    )


# -- criterion 9: the construction DSL ----------------------------------------------------------------


def test_criterion_09_dsl_contract():
    assert len(CORPUS) >= 6
    for path in CORPUS:
        first = parse(path.read_text(encoding="utf-8"))
        assert first.ok, path.name
        second = parse(format_script(first.script))
        assert second.ok and second.script == first.script, path.name

    errors = parse("let a = f1(); let b = f2(); let c = f3();").diagnostics
    assert len(errors) == 3

    source = CORPUS[0].read_text(encoding="utf-8")
    runs = [
        render_report(evaluate(parse(source).script), digits=12).encode()
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    report(
        "ACCEPTANCE 9: PASS - corpus round-trips, diagnostics count "
        "exactly, evaluation bytes deterministic"
    )


# -- criterion 10: rendering ------------------------------------------------------------------------------


def test_criterion_10_rendering():
    out = catalog.lookup("manava_dani").run(1)
    scene = list(out.figures) + list(out.witness_points)
    first = to_svg(scene)
    second = to_svg(scene)
    assert first.encode() == second.encode()

    circles = [
        tuple(float(v) for v in m)
        for m in re.findall(
            r'<circle class="circle" cx="([\d.]+)" cy="([\d.]+)" r="([\d.]+)"',
            first,
        )
    ]
    marks = re.findall(r'<circle class="mark" cx="([\d.]+)" cy="([\d.]+)"', first)
    assert len(marks) == 8
    cx, cy, r = min(circles, key=lambda c: c[2])
    for mx, my in marks:
        assert abs(math.hypot(float(mx) - cx, float(my) - cy) - r) <= 0.5
    report(
        "ACCEPTANCE 10: PASS - byte-identical SVG, 8 marks within 0.5 px "
        "of the produced circle"
    )


# -- criterion 11: the full ranking -------------------------------------------------------------------------


def test_criterion_11_ranking_stability():
    pi_rules = [
        rule.id
        for rule in catalog.CATALOG
        if rule.kind in ("circumference", "circle-from-square",
                         "square-from-circle")
    ]
    orders = [
        [rep.rule_id for rep in compare_rules(pi_rules, bits)]
        for bits in (64, 128, 256)
    ]
    assert orders[0] == orders[1] == orders[2]
    order = orders[0]
    assert order.index("manava_dani") < order.index("baudhayana")
    report(
        "ACCEPTANCE 11: PASS - ranking identical at 64/128/256 bits; the "
        "nine-part reading outranks the classical circling"
    )
