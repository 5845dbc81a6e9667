"""Construction DSL: grammar, diagnostics, exact evaluation, round-trips."""

from fractions import Fraction
from pathlib import Path

import pytest

from sulvalab.sulvascript import (
    MAX_NESTING,
    Call,
    Let,
    Literal,
    Script,
    evaluate,
    extract_figures,
    format_script,
    parse,
    render_report,
)

CORPUS_DIR = Path(__file__).resolve().parent.parent / "demos"
CORPUS = sorted(CORPUS_DIR.glob("*.sulva"))


def parse_ok(source: str):
    result = parse(source)
    assert result.ok, [str(d) for d in result.diagnostics]
    return result.script


def errors_of(source: str):
    result = parse(source)
    return [d for d in result.diagnostics if d.severity == "error"]


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
    assert diag.severity == "error"
    assert "sqrt" in diag.message
    assert (diag.line, diag.column) == (1, 9)


def test_decimal_literals_are_exact_rationals():
    script = parse_ok("let x = 0.25; assert x == 1/4;")
    assert evaluate(script).ok
    literal = script.statements[0].expr
    assert isinstance(literal, Literal)
    assert literal.value == Fraction(1, 4)


def test_rational_literal_with_spaces():
    script = parse_ok("assert 16 / 5 > 3;")
    assert evaluate(script).ok


def test_zero_denominator_literal():
    errs = errors_of("let x = 1/0;")
    assert len(errs) == 1
    assert "denominator" in errs[0].message


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


def test_render_report_shape():
    result = evaluate(parse_ok("let x = sqrt(2); let c = circle(point(0,0), x); emit x, c;"))
    report = render_report(result, digits=6)
    assert report.splitlines()[0] == "x = 1.414214… (= sqrt(2))"
    assert "circle(center=point(0, 0), radius=1.414214…)" in report


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
