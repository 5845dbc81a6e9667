"""Construction DSL: grammar, diagnostics, exact evaluation, round-trips."""

from fractions import Fraction
from pathlib import Path

import pytest

from sulvalab.sulvascript import (
    MAX_LITERAL_DIGITS,
    MAX_NESTING,
    MAX_PARTS,
    MAX_VALUE_DIGITS,
    Call,
    Emit,
    Let,
    Literal,
    Name,
    Script,
    evaluate,
    extract_figures,
    format_script,
    parse,
    render_report,
)
from sulvalab.svg_render import to_svg

from oracle_util import fraction_calls

CORPUS_DIR = Path(__file__).resolve().parent.parent / "demos"
CORPUS = sorted(CORPUS_DIR.glob("*.sulva"))


def parse_ok(source: str):
    result = parse(source)
    assert result.ok, [str(d) for d in result.diagnostics]
    return result.script


def errors_of(source: str):
    return parse(source).diagnostics


# -- parsing ------------------------------------------------------------------


def test_smoke_three_statements():
    script = parse_ok(
        "let s = square(point(0,0), 1/2); let c = baudhayana(s); emit c;"
    )
    assert len(script.statements) == 3


def test_hypotenuse_assertion_holds():
    script = parse_ok("let x = hypotenuse(3, 4); assert x == 5;")
    result = evaluate(script)
    assert result.ok
    assert result.environment["x"].as_fraction() == 5


def test_sqrt_negative_is_a_runtime_diagnostic():
    script = parse_ok("let y = sqrt(-1);")
    result = evaluate(script)
    assert not result.ok
    (diag,) = result.diagnostics
    assert str(diag).startswith("1:9: error: ")
    assert "sqrt" in diag.message
    assert (diag.line, diag.column) == (1, 9)


def test_decimal_literals_are_exact_rationals():
    script = parse_ok("let x = 0.25; assert x == 1/4;")
    assert evaluate(script).ok
    literal = script.statements[0].expr
    assert isinstance(literal, Literal)
    assert literal.value == Fraction(1, 4)
    # leading and trailing zeros, non-ASCII decimal digits and a spaced
    # negative rational
    for spelling, value, text, decimal in [
        ("007", Fraction(7), "7", "7"),
        ("1.50", Fraction(3, 2), "3/2", "1.5"),
        ("٣.٣", Fraction(33, 10), "33/10", "3.3"),
        ("١/٢", Fraction(1, 2), "1/2", "0.5"),
        ("- 3 / 4", Fraction(-3, 4), "-3/4", "-0.75"),
    ]:
        script = parse_ok(f"let x = {spelling};\nemit x;")
        assert script.statements[0].expr.value == value
        assert format_script(script) == f"let x = {text};\nemit x;\n"
        assert render_report(evaluate(script)) == f"x = {decimal}\n"


def test_rational_literal_with_spaces():
    script = parse_ok("assert 16 / 5 > 3;")
    assert evaluate(script).ok


def test_zero_denominator_literal():
    errs = errors_of("let x = 1/0;")
    assert len(errs) == 1
    assert "denominator" in errs[0].message


@pytest.mark.parametrize(
    "first, expected",
    [
        ("let x = 1/0;", [(1, 11, "zero denominator in literal")]),
        ("let x = ;", [(1, 9, "expected an expression")]),
        ("let x = sqrt(2;", [(1, 15, "expected ')'")]),
        ("let x 1;", [(1, 7, "expected '='")]),
        ("let x = add(x, 1);", [(1, 13, "unresolved reference 'x'")]),
    ],
    ids=["zero-denominator", "no-initializer", "unclosed-call", "no-equals", "self"],
)
def test_a_let_with_a_bad_initializer_still_binds_its_name(first, expected):
    errs = errors_of(first + "\nlet y = add(x, 1);\nemit y;")
    assert [(d.line, d.column, d.message) for d in errs] == expected


def test_unknown_names_each_get_a_diagnostic():
    errs = errors_of(
        "let a = frobnicate(1); let b = quux(2); let c = zork(3);"
    )
    assert len(errs) == 3
    assert all("unknown name" in e.message for e in errs)


def test_arity_mismatch():
    errs = errors_of("let a = hypotenuse(3);")
    assert len(errs) == 1
    assert "takes 2 arguments" in errs[0].message


def test_redefinition():
    errs = errors_of("let a = 1; let a = 2;")
    assert len(errs) == 1
    assert "redefinition" in errs[0].message


def test_unresolved_reference():
    errs = errors_of("let a = add(b, 1);")
    assert len(errs) == 1
    assert "unresolved" in errs[0].message


def test_independent_errors_all_collected():
    errs = errors_of(
        "let a = mystery(); let a = 2; emit ghost; let c = add(d, 1);"
    )
    messages = " | ".join(e.message for e in errs)
    assert "unknown name" in messages
    assert "redefinition" in messages
    assert "unresolved reference 'ghost'" in messages
    assert "unresolved reference 'd'" in messages
    assert len(errs) == 4


@pytest.mark.parametrize(
    "source, expected",
    [
        ("let x = ²;", [(9, "unexpected character '²'"), (10, "expected an expression")]),
        ("let x = 1²;", [(10, "unexpected character '²'")]),
        ("let x = 1.²;", [(10, "unexpected character '.'"), (11, "unexpected character '²'")]),
        ("let x = Ⅻ1;", [(9, "unexpected character 'Ⅻ'")]),
    ],
)
def test_non_decimal_digits_are_unexpected_characters(source, expected):
    assert [(d.column, d.message) for d in errors_of(source)] == expected


def test_identifiers_and_numbers_take_non_ascii_letters_and_digits():
    result = evaluate(parse_ok("let x² = ٣.٥;\nlet é½ = x²;\nemit é½;"))
    assert [(name, value.as_fraction()) for name, value in result.emitted] == [
        ("é½", Fraction(7, 2))
    ]


def test_diagnostics_carry_positions():
    errs = errors_of("let a = 1;\nlet b = nope(2);")
    assert errs[0].line == 2
    assert errs[0].column == 9


def test_statement_recovery():
    errs = errors_of("let = 3; let b = 4; assert b == 4 4;")
    assert len(errs) == 2


# -- evaluation -----------------------------------------------------------------


def test_spec_ratio_assertion():
    assert evaluate(parse_ok("assert 16/5 > 3;")).ok


def test_failed_assertion_reports_both_enclosures():
    result = evaluate(parse_ok("assert 7/10 == 12/17;"))
    assert not result.ok
    (diag,) = result.diagnostics
    assert "assertion failed" in diag.message
    assert "left in [0.69" in diag.message
    assert "right in [0.70588" in diag.message


def test_failed_assertion_does_not_halt():
    result = evaluate(parse_ok("assert 1 == 2; let x = 3; emit x;"))
    assert not result.ok
    assert result.emitted and result.emitted[0][0] == "x"


def test_quantity_comparison_with_pi():
    script = parse_ok(
        "let c = circle(point(0, 0), 1/2);"
        "let t = circumference(c);"
        "assert t < 16/5; assert t > 3;"
    )
    assert evaluate(script).ok


def test_type_error_has_position():
    result = evaluate(parse_ok("let p = point(0, 0);\nlet q = area(p);"))
    assert not result.ok
    (diag,) = result.diagnostics
    assert diag.line == 2
    assert "area()" in diag.message


def test_division_by_zero_is_runtime_diagnostic():
    result = evaluate(parse_ok("let x = div(1, 0);"))
    assert not result.ok
    assert "zero" in result.diagnostics[0].message


def test_pi_squared_rejected():
    result = evaluate(parse_ok("let x = mul(pi(), pi());"))
    assert not result.ok
    assert "pi" in result.diagnostics[0].message


def test_nth_out_of_range():
    result = evaluate(
        parse_ok(
            "let s = segment(point(0, 0), point(1, 0));"
            "let ps = divide(s, 3); let p = nth(ps, 9);"
        )
    )
    assert not result.ok
    assert "out of range" in result.diagnostics[0].message


def test_count_and_nth():
    script = parse_ok(
        "let s = segment(point(0, 0), point(1, 0));"
        "let ps = divide(s, 10);"
        "assert count(ps) == 11;"
        "assert xcoord(nth(ps, 8)) == 7/10;"
    )
    assert evaluate(script).ok


@pytest.mark.parametrize(
    "source",
    [
        "let c = center(circle(point(1, 2), 3));\nassert xcoord(c) == 1;\n"
        "assert ycoord(center(square(point(-1, 5), 2))) == 5;",
        "let ps = intersect_horizontal(0, circle(point(1, 0), 1));\n"
        "assert count(ps) == 2;\nassert xcoord(nth(ps, 1)) == 0;\n"
        "assert xcoord(nth(ps, 2)) == 2;",
        "let ps = intersect_horizontal(1, circle(point(0, 0), 1));\n"
        "assert count(ps) == 1;\nassert xcoord(nth(ps, 1)) == 0;\n"
        "assert ycoord(nth(ps, 1)) == 1;",
        "let ps = intersect_horizontal(2, circle(point(0, 0), 1));\nassert count(ps) == 0;",
        "let m = midpoint(segment(point(0, 0), point(1, 3)));\n"
        "assert xcoord(m) == 1/2;\nassert ycoord(m) == 3/2;",
    ],
    ids=["center", "horizontal-two", "horizontal-tangent", "horizontal-none", "midpoint"],
)
def test_point_builtins(source):
    result = evaluate(parse_ok(source))
    assert result.ok, [str(d) for d in result.diagnostics]


def diagnostics_of(source: str) -> list:
    """(line, column, message) of the parse errors, or else of the run."""
    parsed = parse(source)
    diagnostics = evaluate(parsed.script).diagnostics if parsed.ok else parsed.diagnostics
    return [(d.line, d.column, d.message) for d in diagnostics]


@pytest.mark.parametrize(
    "source, expected",
    [
        ("let c = center(point(0, 0));", (1, 9, "center() takes a square or a circle")),
        (
            "let s = segment(point(0, 0), point(1, 0));\nlet c = center(s);",
            (2, 9, "center() takes a square or a circle"),
        ),
        ("let n = count(1);", (1, 9, "count() takes a list")),
        ("let n = nth(2, 1);", (1, 9, "nth() takes a list")),
        (
            "let out = baudhayana(circle(point(0, 0), 1));",
            (1, 11, "baudhayana takes a side length or a square"),
        ),
        (
            "let out = manava_16_5(square(point(0, 0), 1));",
            (1, 11, "manava_16_5 takes a diameter or a circle"),
        ),
        ("let out = baudhayana(point(0, 0));", (1, 11, "baudhayana takes a number or a figure")),
        ("let x = sqrt(point(0, 0));", (1, 9, "sqrt argument must be a number, got point")),
        (
            "let s = segment(point(0, 0), point(1, 0));\nlet x = sqrt(divide(s, 2));",
            (2, 9, "sqrt argument must be a number, got list"),
        ),
        ("let x = sqrt(pi());", (1, 9, "sqrt argument must be a number, got quantity")),
        ("let x = xcoord(pi());", (1, 9, "argument must be a point, got quantity")),
        ("let let = 1;", (1, 5, "'let' is a keyword")),
        ("let x 1;", (1, 7, "expected '='")),
        ("assert 1 = 2;", (1, 10, "expected '==', '<' or '>' in assertion")),
        ("emit 1;", (1, 6, "expected an identifier in 'emit'")),
        ("let x = 1/;", (1, 11, "expected a denominator")),
        ("let x = 1.5/2;", (1, 9, "rational literals take integer parts, like 17/12")),
        ("x = 1;", (1, 1, "expected a statement ('let', 'assert' or 'emit')")),
        ("let x = 1/2.5;", (1, 11, "rational literals take integer parts, like 17/12")),
    ],
)
def test_positioned_diagnostics(source, expected):
    assert diagnostics_of(source) == [expected]


SEG = "segment(point(0, 0), point(1, 0))"
SQ = "square(point(0, 0), 1/2)"
CIR = "circle(point(0, 0), 1)"


# one case per distinct message the vocabulary gives for a badly kinded,
# out-of-range or miscounted argument, with its position
@pytest.mark.parametrize(
    "source, expected",
    [
        ("let p = point(pi(), 0);", (1, 9, "x coordinate must be a number, got quantity")),
        (f"let p = point(0, {SEG});", (1, 9, "y coordinate must be a number, got segment")),
        ("let s = segment(1, point(1, 0));", (1, 9, "segment start must be a point, got number")),
        (f"let s = segment(point(0, 0), {SQ});", (1, 9, "segment end must be a point, got square")),
        (f"let s = square({CIR}, 1);", (1, 9, "square center must be a point, got circle")),
        ("let s = square(point(0, 0), point(1, 1));", (1, 9, "half side must be a number, got point")),
        ("let c = circle(pi(), 1);", (1, 9, "circle center must be a point, got quantity")),
        ("let c = circle(point(0, 0), add(pi(), 1));", (1, 9, "radius must be a number, got quantity")),
        (f"let ps = intersect_vertical({CIR}, 1);", (1, 10, "line abscissa must be a number, got circle")),
        (f"let ps = intersect_horizontal({SQ}, 1);", (1, 10, "line ordinate must be a number, got square")),
        (f"let ps = intersect_vertical(0, {SQ});", (1, 10, "circle must be a circle, got square")),
        ("let d = distance2(1, point(0, 0));", (1, 9, "first point must be a point, got number")),
        (f"let d = distance2(point(0, 0), divide({SEG}, 2));", (1, 9, "second point must be a point, got list")),
        ("let m = midpoint(point(0, 0));", (1, 9, "argument must be a segment, got point")),
        (f"let r = radius({SQ});", (1, 9, "argument must be a circle, got square")),
        (f"let c = circumcircle({CIR});", (1, 9, "argument must be a square, got circle")),
        ("let t = trisectors_horizontal(1);", (1, 9, "argument must be a square, got number")),
        (f"let c = circumference({SQ});", (1, 9, "argument must be a circle, got square")),
        ("let y = ycoord(1/2);", (1, 9, "argument must be a point, got number")),
        ("let x = claimed(1);", (1, 9, "argument must be a rule output, got number")),
        ("let x = sqrt(baudhayana(1));", (1, 9, "sqrt argument must be a number, got rule output")),
        ("let w = witness(1, 1);", (1, 9, "rule output must be a rule output, got number")),
        (f"let n = divide({SEG}, pi());", (1, 9, "part count must be a number, got quantity")),
        (f"let n = divide({SEG}, 1/2);", (1, 9, "part count must be an integer")),
        (f"let n = divide(1, {SEG});", (1, 9, "argument must be a segment, got number")),
        (f"let p = nth(divide({SEG}, 2), sqrt(2));", (1, 9, "index must be an integer")),
        (f"let p = nth(divide({SEG}, 2), {CIR});", (1, 9, "index must be a number, got circle")),
        (f"let p = nth(divide({SEG}, 2), 4);", (1, 9, "index 4 out of range for a list of 3")),
        (f"let p = nth(divide({SEG}, 2), 0);", (1, 9, "index 0 out of range for a list of 3")),
        ("let w = witness(baudhayana(1), 2);", (1, 9, "index 2 out of range for 1 witness point")),
        ("let w = witness(dani(1), -1);", (1, 9, "index -1 out of range for 8 witness points")),
        ("let w = witness(dani(1), pi());", (1, 9, "index must be a number, got quantity")),
        ("let w = witness(gupta(1), 1);", (1, 9, "this rule output has no witness points")),
        ("let w = witness(gupta(1), 1/2);", (1, 9, "this rule output has no witness points")),
        ("let x = div(1, point(0, 0));", (1, 9, "operand must be numeric, got point")),
        ("let x = div(1, pi());", (1, 9, "divisor must be a number, got quantity")),
        ("let x = div(point(0, 0), pi());", (1, 9, "operand must be numeric, got point")),
        ("let x = div(pi(), 0);", (1, 9, "div(): division by zero")),
        (f"let x = add({CIR}, 1);", (1, 9, "operand must be numeric, got circle")),
        (f"let x = mul(1, divide({SEG}, 2));", (1, 9, "operand must be numeric, got list")),
        ("let x = neg(baudhayana(1));", (1, 9, "operand must be numeric, got rule output")),
        ("let x = sub(1, -point(0, 0));", (1, 16, "operand must be numeric, got point")),
        ("let h = hypotenuse(pi(), 1);", (1, 9, "length must be a number, got quantity")),
        ("let h = hypotenuse(1, point(0, 0));", (1, 9, "width must be a number, got point")),
        ("let out = baudhayana(pi());", (1, 11, "rule input must be a number, got quantity")),
        (f"let out = baudhayana(divide({SEG}, 1));", (1, 11, "baudhayana takes a number or a figure")),
        (f"let out = gupta({CIR});", (1, 11, "manava_gupta takes a side length or a square")),
        (f"let out = van_gelder({CIR});", (1, 11, "manava_vangelder takes a side length or a square")),
        ("let out = dani(point(0, 0));", (1, 11, "manava_dani takes a number or a figure")),
        (f"let out = hayashi({SQ});", (1, 11, "hayashi takes a diameter or a circle")),
        (f"let out = standard_12_17({SQ});", (1, 11, "standard_12_17 takes a diameter or a circle")),
        (f"let out = double_diagonal({CIR});", (1, 11, "double_diagonal takes a side length or a square")),
        ("let out = classical_3(0);", (1, 11, "classical_3(): input length must be positive")),
        ("let a = area(point(0, 0));", (1, 9, "area() takes a square or a circle")),
        (f"let a = area({SEG});", (1, 9, "area() takes a square or a circle")),
        (f"let c = center(divide({SEG}, 1));", (1, 9, "center() takes a square or a circle")),
        (f"let n = count({SQ});", (1, 9, "count() takes a list")),
        ("let n = nth(pi(), 1);", (1, 9, "nth() takes a list")),
        ("let x = pi(1);", (1, 9, "pi() takes 0 arguments, got 1")),
        ("let x = sqrt(1, 2);", (1, 9, "sqrt() takes 1 argument, got 2")),
        ("let x = point(1);", (1, 9, "point() takes 2 arguments, got 1")),
        ("let x = gupta();", (1, 9, "gupta() takes 1 argument, got 0")),
        ("let x = sqrt2_sulba(1);", (1, 9, "sqrt2_sulba() takes 0 arguments, got 1")),
        ("let x = hypotenuse(3);", (1, 9, "hypotenuse() takes 2 arguments, got 1")),
        ("let x = 1;\nassert point(x, x) == 1;", (2, 1, "left side of assertion must be numeric, got point")),
        (f"assert 1 < {SQ};", (1, 1, "right side of assertion must be numeric, got square")),
        ("assert gupta(1) > 1;", (1, 1, "left side of assertion must be numeric, got rule output")),
    ],
)
def test_vocabulary_diagnostics(source, expected):
    assert diagnostics_of(source) == [expected]


def test_a_rule_kind_without_a_figure_takes_only_numbers():
    # builtins shadow both such rules, sqrt2_sulba and hypotenuse, so the
    # check runs here directly
    from sulvalab import catalog, sulvascript

    square = evaluate(parse_ok(f"let s = {SQ};")).environment["s"]
    for rule_id in ("sqrt2_sulba", "hypotenuse"):
        rule = catalog.lookup(rule_id)
        with pytest.raises(sulvascript._EvalError) as raised:
            sulvascript._rule_input(rule, square)
        assert raised.value.message == f"{rule_id} takes a number"


def test_rule_call_recentered_on_figure():
    script = parse_ok(
        "let s = square(point(3, 4), 1/2);"
        "let out = baudhayana(s);"
        "let w = witness(out, 1);"
        "assert xcoord(w) == 3;"
        "assert ycoord(w) > 4;"
        "emit out;"
    )
    result = evaluate(script)
    assert result.ok
    figures = extract_figures(result)
    assert len(figures) == 3  # square, circle, witness mark


# -- corpus ------------------------------------------------------------------------


def test_corpus_is_shipped():
    assert len(CORPUS) >= 6


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_scripts_evaluate_clean(path):
    result = parse(path.read_text(encoding="utf-8"))
    assert result.ok, [str(d) for d in result.diagnostics]
    outcome = evaluate(result.script)
    assert outcome.ok, [str(d) for d in outcome.diagnostics]
    assert outcome.emitted


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_round_trip(path):
    first = parse(path.read_text(encoding="utf-8"))
    assert first.ok
    formatted = format_script(first.script)
    second = parse(formatted)
    assert second.ok
    assert second.script == first.script
    assert format_script(second.script) == formatted


def test_format_normalizes_literals_and_whitespace():
    script = parse_ok("let  x =   0.25 ;\nassert x   < 1/2;")
    # decimal spellings normalize to canonical rationals
    assert format_script(script) == "let x = 1/4;\nassert x < 1/2;\n"
    reparsed = parse(format_script(script)).script
    assert reparsed.statements[0].expr.value == Fraction(1, 4)


def test_format_preserves_statement_order():
    source = "let a = 1;\nlet b = 2;\nemit a, b;\n"
    script = parse_ok(source)
    assert format_script(script) == source


def test_negative_literal_round_trip():
    script = parse_ok("let x = -1/2; assert x < 0; let y = neg(sqrt(2)); emit x, y;")
    formatted = format_script(script)
    assert "let x = -1/2;" in formatted
    assert "neg(sqrt(2))" in formatted
    assert parse(formatted).script == script


def test_deterministic_evaluation_bytes():
    source = CORPUS[0].read_text(encoding="utf-8")
    reports = []
    for _ in range(2):
        result = evaluate(parse(source).script)
        reports.append(render_report(result, digits=12).encode())
    assert reports[0] == reports[1]


def test_the_script_path_makes_no_fraction_calls():
    sources = [path.read_text(encoding="utf-8") for path in CORPUS]

    def run() -> None:
        for source in sources:
            result = evaluate(parse(source).script)
            render_report(result)
            to_svg(extract_figures(result))

    calls = fraction_calls(run)
    assert calls == {}, f"{sum(calls.values())} calls into fractions.py: {calls}"


def test_render_report_shape():
    result = evaluate(parse_ok("let x = sqrt(2); let c = circle(point(0,0), x); emit x, c;"))
    report = render_report(result, digits=6)
    assert report.splitlines()[0] == "x = 1.414214… (= sqrt(2))"
    assert "circle(center=point(0, 0), radius=1.414214…)" in report


def test_render_report_of_figures_lists_and_pi_quantities():
    result = evaluate(
        parse_ok(
            "let s = segment(point(0, 0), point(1, 1));\n"
            "let q = square(point(0, 0), 1);\n"
            "let ps = divide(s, 2);\n"
            "let t = trisectors_vertical(square(point(0, 0), 1));\n"
            "let n = neg(pi());\n"
            "emit s, q, ps, t, n;\n"
        )
    )
    s, q, ps, t, n = render_report(result).splitlines()
    assert s == "s = segment(point(0, 0), point(1, 1))"
    assert q == "q = square(center=point(0, 0), half_side=1)"
    assert ps == "ps = [point(0, 0), point(0.5, 0.5), point(1, 1)]"
    assert t.startswith("t = [segment(point(-0.333333333333…, -1), ")
    assert n == "n = -3.141592653590… (= -pi)"


def test_extract_figures_flattens_emitted_lists_in_order():
    result = evaluate(
        parse_ok(
            "let t = trisectors_vertical(square(point(0, 0), 1));\n"
            "let ps = divide(segment(point(0, 0), point(1, 1)), 2);\n"
            "emit t, ps;\n"
        )
    )
    figures = extract_figures(result)
    assert [type(f).__name__ for f in figures] == ["Segment"] * 2 + ["Point"] * 3
    assert figures == result.environment["t"] + result.environment["ps"]


# -- nesting depth ------------------------------------------------------------


def _minus_signs(count: int, operand: str = "1") -> str:
    return "-" * count + operand


def _nested_neg(count: int, operand: str = "1") -> str:
    return "neg(" * count + operand + ")" * count


@pytest.mark.parametrize(
    "expr, column",
    [
        (_minus_signs(5000), 9 + MAX_NESTING),
        (_nested_neg(2000), 9 + 4 * MAX_NESTING),
        (_minus_signs(MAX_NESTING + 1), 9 + MAX_NESTING),
        (_nested_neg(MAX_NESTING + 1), 9 + 4 * MAX_NESTING),
    ],
    ids=["5000-minus", "2000-neg", "limit+1-minus", "limit+1-neg"],
)
def test_deep_nesting_is_a_positioned_diagnostic(expr, column):
    # the diagnostic points at the first level past the limit, and the
    # statement after it is still checked
    result = parse(f"let x = {expr};\nlet y = nope(1);")
    messages = [(d.line, d.column, d.limit, d.message) for d in result.diagnostics]
    assert messages == [
        (1, column, True, f"expression nested more than {MAX_NESTING} levels deep"),
        (2, 9, False, "unknown name 'nope'"),
    ]
    assert not result.ok


def test_long_literals_are_a_positioned_limit_diagnostic():
    # past Python's 4300-digit int conversion, and just past the bound
    source = (
        f"let x = {'7' * 5000};\n"
        f"let y = 1/{'3' * (MAX_LITERAL_DIGITS + 1)};\n"
        f"let z = -0.{'5' * MAX_LITERAL_DIGITS};\n"
        "let w = nope(1);\n"
    )
    result = parse(source)
    messages = [(d.line, d.column, d.limit, d.message) for d in result.diagnostics]
    too_long = f"numeric literal longer than {MAX_LITERAL_DIGITS} digits"
    assert messages == [
        (1, 9, True, too_long),
        (2, 11, True, too_long),
        (3, 10, True, too_long),
        (4, 9, False, "unknown name 'nope'"),
    ]
    assert not result.ok


def test_literals_up_to_the_bound_evaluate_and_report_exactly():
    digits = "9" * MAX_LITERAL_DIGITS
    script = parse_ok(f"let x = {digits};\nlet y = mul(x, x);\nemit x, y;\n")
    result = evaluate(script)
    value = 10**MAX_LITERAL_DIGITS - 1
    assert [v.as_fraction() for _, v in result.emitted] == [value, value * value]
    square = "9" * (MAX_LITERAL_DIGITS - 1) + "8" + "0" * (MAX_LITERAL_DIGITS - 1) + "1"
    assert render_report(result) == f"x = {digits}\ny = {square}\n"


@pytest.mark.parametrize(
    "last, line, column, name",
    [
        ("let z = sub(mul(w, y), mul(w, y));", 4, 13, "mul"),  # nested; z would be 0
        ("let z = div(div(1, w), y);", 4, 9, "div"),  # a denominator
        ("let q = mul(pi(), w);\nlet z = mul(q, y);", 5, 9, "mul"),  # a pi part
        ("let s = square(point(0, 0), w);\nlet z = area(s);", 5, 9, "area"),
        ("let z = distance2(point(w, 0), point(0, 0));", 4, 9, "distance2"),
        ("let z = claimed(baudhayana(w));", 4, 17, "baudhayana"),  # an area
    ],
    ids=["nested", "denominator", "pi-part", "area", "distance2", "rule"],
)
def test_long_values_are_a_positioned_limit_diagnostic_at_the_call(
    last, line, column, name
):
    # y has 8000 digits and w 16000, within the bound; w*y has 24000
    source = (
        f"let x = {'9' * MAX_LITERAL_DIGITS};\n"
        "let y = mul(x, x);\n"
        "let w = mul(y, y);\n"
    )
    result = evaluate(parse_ok(source + last + "\nemit z;\n"))
    message = f"{name}() gives a number longer than {MAX_VALUE_DIGITS} digits"
    assert [(d.line, d.column, d.limit, d.message) for d in result.diagnostics] == [
        (line, column, True, message)
    ]
    assert "w" in result.environment and "z" not in result.environment


def test_divide_past_the_part_bound_is_a_positioned_limit_diagnostic():
    source = (
        "let s = segment(point(0, 0), point(1, 1));\n"
        f"let a = divide(s, {MAX_PARTS});\n"
        f"let b = count(divide(s, {MAX_PARTS + 1}));\n"
        "emit a, b;\n"
    )
    result = evaluate(parse_ok(source))
    assert [(d.line, d.column, d.limit, d.message) for d in result.diagnostics] == [
        (3, 15, True, f"divide() takes at most {MAX_PARTS} parts, got {MAX_PARTS + 1}")
    ]
    assert len(result.environment["a"]) == MAX_PARTS + 1
    assert "b" not in result.environment


@pytest.mark.parametrize("depth", [900, MAX_NESTING])
def test_nesting_up_to_the_limit_parses_evaluates_and_formats(depth):
    source = (
        f"let y = 2/3;\n"
        f"let a = {_minus_signs(depth)};\n"
        f"let b = {_minus_signs(depth, 'y')};\n"
        f"let c = {_nested_neg(depth, 'y')};\n"
        f"let d = {_nested_neg(depth - 1, 'add(y, 1)')};\n"
        "emit a, b, c, d;\n"
    )
    script = parse_ok(source)
    formatted = format_script(script)
    assert format_script(parse_ok(formatted)) == formatted
    assert parse_ok(formatted) == script
    result = evaluate(script)
    assert result.ok, [str(d) for d in result.diagnostics]
    sign = (-1) ** depth
    values = [value.as_fraction() for _, value in result.emitted]
    assert values == [sign, sign * Fraction(2, 3), sign * Fraction(2, 3), -sign * Fraction(5, 3)]


def test_evaluator_rechecks_the_nesting_limit():
    # a hand-built tree the parser would reject
    expr = Literal(Fraction(1))
    for level in range(2000, 0, -1):
        expr = Call("neg", [expr], 1, level)
    result = evaluate(Script([Let("x", expr, 1, 1)]))
    assert [(d.column, d.limit) for d in result.diagnostics] == [(MAX_NESTING + 1, True)]
    assert result.environment == {}


def _let(ident, expr, line=1):
    return Let(ident, expr, line, 1)


def _call(name, *args):
    return Call(name, list(args), 1, 9)


ONE = Literal(Fraction(1))


@pytest.mark.parametrize(
    "statements, expected",
    [
        ([_let("x", _call("sqrt", ONE, ONE))], (1, 9, "sqrt() takes 1 argument, got 2")),
        ([_let("x", _call("sqrt"))], (1, 9, "sqrt() takes 1 argument, got 0")),
        ([_let("x", _call("nope", ONE))], (1, 9, "unknown name 'nope'")),
        ([_let("x", _call("add", Name("y", 1, 13), ONE))], (1, 13, "unresolved reference 'y'")),
        (
            [_let("x", ONE), Emit([Name("x", 2, 6), Name("z", 2, 9)], 2, 1)],
            (2, 9, "unresolved reference 'z'"),
        ),
        ([_let("x", ONE), _let("x", ONE, line=2)], (2, 1, "redefinition of 'x'")),
    ],
    ids=["extra-argument", "no-argument", "unknown-call", "unresolved-name",
         "unresolved-emit", "redefinition"],
)
def test_evaluator_rechecks_names_and_argument_counts(statements, expected):
    # hand-built trees the parser would reject get the parser's diagnostic
    result = evaluate(Script(statements))
    assert [(d.line, d.column, d.message) for d in result.diagnostics] == [expected]
    assert not result.ok
    # the run stops at the diagnostic; only a first "let x = 1" has run
    assert [str(v) for v in result.environment.values()] == ["1"] * (len(statements) - 1)


def test_deep_trees_compare_and_print_without_recursion():
    def chain(depth, leaf):
        expr = Literal(Fraction(leaf))
        for level in range(depth, 0, -1):
            expr = Call("neg", [expr], 1, level)
        return expr

    deep = chain(5000, 1)
    assert deep == chain(5000, 1)
    assert deep != chain(5000, 2)
    assert deep != chain(4999, 1)
    assert Call("add", [deep, Literal(Fraction(1))]) != Call("add", [deep, deep])
    text = repr(deep)
    assert text.startswith("Call(name='neg', args=[Call(name='neg', args=[")
    assert text.count("Call(") == 5000
    assert text.endswith("], line=1, column=1)")
