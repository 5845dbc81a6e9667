"""Adjudication engine: implied pi, certified errors, ranking, JSON schema."""

import json
from fractions import Fraction

import mpmath
import pytest

from sulvalab.analysis import (
    NotApplicableError,
    ToleranceError,
    compare_rules,
    implied_pi,
    full_table,
    relative_error,
    report_for,
    report_to_dict,
    reports_to_json,
)
from sulvalab.catalog import CATALOG
from sulvalab.exactreal import (
    DomainError,
    enclose,
    sqrt,
)


from oracle_util import oracle as oracle_percent


# -- implied pi ---------------------------------------------------------------


def test_implied_pi_manava():
    value = implied_pi("manava_16_5")
    assert value.as_fraction() == Fraction(16, 5)


def test_implied_pi_gupta():
    assert implied_pi("manava_gupta").as_fraction() == Fraction(25, 8)


def test_implied_pi_13_15():
    value = implied_pi("rule_13_15")
    assert value.as_fraction() == Fraction(676, 225)
    iv = enclose(value, 64)
    assert iv.lo.as_fraction() > Fraction("3.00444")
    assert iv.hi.as_fraction() < Fraction("3.00445")


def test_implied_pi_hayashi_exactly_three():
    assert implied_pi("hayashi").as_fraction() == 3


def test_implied_pi_baudhayana_exact_form():
    value = implied_pi("baudhayana")
    assert (value - (54 - 36 * sqrt(2))).sign() == 0


def test_implied_pi_jaina_is_sqrt10():
    assert (implied_pi("jaina_sqrt10") - sqrt(10)).sign() == 0


def test_implied_pi_scale_invariant():
    for rule_id in ("baudhayana", "manava_dani", "manava_gupta",
                    "rule_13_15", "hayashi", "manava_16_5"):
        base = implied_pi(rule_id, at=1)
        for k in (2, 3, Fraction(7, 2)):
            assert (implied_pi(rule_id, at=k) - base).sign() == 0


def test_implied_pi_not_applicable():
    for rule_id in ("hypotenuse", "double_diagonal", "sqrt2_sulba", "manava_7_10"):
        with pytest.raises(NotApplicableError):
            implied_pi(rule_id)


# -- relative error ------------------------------------------------------------


def test_error_baudhayana_area():
    iv = relative_error("baudhayana", 128)
    expected = oracle_percent(
        lambda: 100 * (mpmath.pi * ((2 + mpmath.sqrt(2)) / 6) ** 2 - 1)
    )
    assert iv.contains(expected)
    assert iv.lo.as_fraction() > Fraction("1.72")
    assert iv.hi.as_fraction() < Fraction("1.73")


def test_error_dani_area():
    iv = relative_error("manava_dani", 128)
    expected = oracle_percent(
        lambda: 100
        * (mpmath.pi * (Fraction(31, 150) + 2 * mpmath.sqrt(17) / 75) - 1)
    )
    assert iv.contains(expected)
    assert iv.hi.as_fraction() < Fraction("-0.53")
    assert iv.lo.as_fraction() > Fraction("-0.54")


def test_error_classical_circumference():
    iv = relative_error("classical_3", 128)
    expected = oracle_percent(lambda: 100 * (3 - mpmath.pi) / mpmath.pi)
    assert iv.contains(expected)
    assert iv.lo.as_fraction() > Fraction("-4.5071")
    assert iv.hi.as_fraction() < Fraction("-4.5070")


def test_error_not_applicable():
    for rule_id in ("hypotenuse", "double_diagonal"):
        with pytest.raises(NotApplicableError):
            relative_error(rule_id)


def test_error_sign_correctness():
    overestimates = ("manava_16_5", "sqrt2_sulba", "baudhayana",
                     "jaina_sqrt10", "manava_gupta", "manava_vangelder")
    underestimates = ("classical_3", "manava_7_10", "standard_12_17",
                      "rule_13_15", "hayashi", "manava_dani")
    for rule_id in overestimates:
        assert relative_error(rule_id, 64).is_positive(), rule_id
    for rule_id in underestimates:
        assert relative_error(rule_id, 64).is_negative(), rule_id


def test_error_soundness_full_catalog_against_oracle():
    references = {
        "manava_16_5": lambda: 100 * (mpmath.mpf(16) / 5 - mpmath.pi) / mpmath.pi,
        "classical_3": lambda: 100 * (3 - mpmath.pi) / mpmath.pi,
        "jaina_sqrt10": lambda: 100 * (mpmath.sqrt(10) - mpmath.pi) / mpmath.pi,
        "baudhayana": lambda: 100 * (mpmath.pi * ((2 + mpmath.sqrt(2)) / 6) ** 2 - 1),
        "manava_dani": lambda: 100
        * (mpmath.pi * (mpmath.mpf(31) / 150 + 2 * mpmath.sqrt(17) / 75) - 1),
        "manava_vangelder": lambda: 100
        * (mpmath.pi * (2 * mpmath.sqrt(17) / 15 + mpmath.mpf(1) / 10) ** 2 - 1),
        "manava_gupta": lambda: 100 * (8 * mpmath.pi / 25 - 1),
        "manava_7_10": lambda: 100
        * (mpmath.mpf(7) / 10 - 1 / mpmath.sqrt(2)) / (1 / mpmath.sqrt(2)),
        "standard_12_17": lambda: 100
        * (mpmath.mpf(12) / 17 - 1 / mpmath.sqrt(2)) / (1 / mpmath.sqrt(2)),
        "inscribed_exact": lambda: mpmath.mpf(0),
        "rule_13_15": lambda: 100
        * (mpmath.mpf(169) / 225 - mpmath.pi / 4) / (mpmath.pi / 4),
        "hayashi": lambda: 100
        * (mpmath.mpf(3) / 4 - mpmath.pi / 4) / (mpmath.pi / 4),
        "sqrt2_sulba": lambda: 100
        * (mpmath.mpf(17) / 12 - mpmath.sqrt(2)) / mpmath.sqrt(2),
    }
    for rule_id, reference in references.items():
        iv = relative_error(rule_id, 128)
        assert iv.contains(oracle_percent(reference)), rule_id


def test_error_monotone_refinement():
    for rule_id in ("manava_16_5", "baudhayana", "manava_dani"):
        w64 = relative_error(rule_id, 64).width()
        w128 = relative_error(rule_id, 128).width()
        w256 = relative_error(rule_id, 256).width()
        assert w256 <= w128 <= w64


def test_relative_error_past_the_shipped_pi_against_the_oracle():
    # the true value of a circle rule is a pi-quantity, and pi is computed to
    # any precision, past the 1538 bits once shipped
    for p in (1504, 1600, 4096):
        expected = oracle_percent(
            lambda: 100
            * (mpmath.pi * (mpmath.mpf(31) / 150 + 2 * mpmath.sqrt(17) / 75) - 1),
            prec=p + 200,
        )
        iv = relative_error("manava_dani", p)
        assert iv.contains(expected) and iv.precision_bits == p, p


# -- comparisons ------------------------------------------------------------------


def test_compare_circumference_rules():
    reports = compare_rules(["manava_16_5", "classical_3", "jaina_sqrt10"])
    assert [r.rule_id for r in reports] == [
        "jaina_sqrt10",
        "manava_16_5",
        "classical_3",
    ]


def test_compare_dani_beats_baudhayana():
    reports = compare_rules(["manava_dani", "baudhayana"])
    assert [r.rule_id for r in reports] == ["manava_dani", "baudhayana"]


def test_compare_inscribed_accuracy():
    reports = compare_rules(["manava_7_10", "standard_12_17"])
    assert [r.rule_id for r in reports] == ["standard_12_17", "manava_7_10"]


def test_compare_requires_applicable_rule():
    with pytest.raises(DomainError):
        compare_rules(["hypotenuse", "double_diagonal"])


def test_compare_skips_inapplicable():
    reports = compare_rules(["hypotenuse", "manava_16_5"])
    assert [r.rule_id for r in reports] == ["manava_16_5"]


def test_ranking_stable_across_precisions():
    pi_rules = [r.id for r in CATALOG if r.kind in
                ("circumference", "circle-from-square", "square-from-circle")]
    orders = [
        [rep.rule_id for rep in compare_rules(pi_rules, bits)]
        for bits in (64, 128, 256)
    ]
    assert orders[0] == orders[1] == orders[2]
    order = orders[0]
    assert order.index("manava_dani") < order.index("baudhayana")
    # classical_3 and hayashi imply the same ratio 3; the tie is broken by id
    assert order.index("classical_3") + 1 == order.index("hayashi")


# -- tables and JSON ------------------------------------------------------------------


def test_full_table_covers_catalog_sorted():
    reports = full_table()
    assert [r.rule_id for r in reports] == sorted(rule.id for rule in CATALOG)
    assert len(reports) >= 13


def test_full_table_contains_expected_rows():
    by_id = {r.rule_id: r for r in full_table()}
    manava = by_id["manava_16_5"]
    assert str(manava.implied_pi_exact) == "16/5"
    assert manava.citation.endswith("10.3.2.13 / 11.13")
    dani = by_id["manava_dani"]
    assert "10.3.2.15 / 11.15" in dani.citation
    area = dani.actual_enclosure
    assert area.lo.as_fraction() > Fraction("0.99467")
    assert area.hi.as_fraction() < Fraction("0.99468")
    assert by_id["manava_vangelder"].reconstruction_flag
    assert not by_id["manava_dani"].reconstruction_flag
    assert by_id["hypotenuse"].relative_error_percent is None
    assert by_id["hypotenuse"].implied_pi_exact is None


def test_tolerance_enforced_at_low_precision():
    with pytest.raises(ToleranceError):
        report_for("manava_16_5", precision_bits=8)
    # without a width limit the low-precision report is fine
    report = report_for("manava_16_5", precision_bits=8, width_limit=None)
    assert report.relative_error_percent is not None


def test_json_schema():
    reports = full_table()
    payload = json.loads(reports_to_json(reports))
    assert len(payload) == len(CATALOG)
    for row in payload:
        assert set(row) == {
            "rule_id", "kind", "citation", "description", "implied_pi",
            "relative_error_percent", "claimed", "actual", "basis",
            "reconstruction_flag",
        }
        assert row["basis"] in ("area", "circumference", "length")
        if row["implied_pi"] is not None:
            assert set(row["implied_pi"]) == {"exact", "lo", "hi"}
            assert Fraction(row["implied_pi"]["lo"]) <= Fraction(
                row["implied_pi"]["hi"]
            )
        if row["relative_error_percent"] is not None:
            lo = Fraction(row["relative_error_percent"]["lo"])
            hi = Fraction(row["relative_error_percent"]["hi"])
            assert lo <= hi
    gupta = next(r for r in payload if r["rule_id"] == "manava_gupta")
    assert gupta["implied_pi"]["exact"] == "25/8"
    assert gupta["basis"] == "area"


def test_json_deterministic():
    a = reports_to_json(full_table())
    b = reports_to_json(full_table())
    assert a == b


def test_report_dict_decimal_strings_parse():
    report = report_for("baudhayana")
    row = report_to_dict(report)
    lo = Fraction(row["actual"]["lo"])
    hi = Fraction(row["actual"]["hi"])
    assert lo <= hi
    assert Fraction("1.0172") < lo and hi < Fraction("1.0173")
