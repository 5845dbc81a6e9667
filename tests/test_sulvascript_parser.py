"""Differential tests of the index-walking front end against the one it replaced.

``sulvascript_reference`` keeps the token-record lexer and the
``current``/``advance`` parser verbatim.  On every script the two must
build the same statements, positions included (``repr`` prints them), and
the same diagnostics in the same order, also where the script has errors.
"""

from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sulvalab.sulvascript import MAX_LITERAL_DIGITS, MAX_NESTING, _parse, parse
from sulvascript_reference import _lex, parse_reference, scanned

CORPUS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.sulva"))

# keywords, vocabulary and plain names, numbers and decimals ('٣' is an
# Arabic-Indic digit), every symbol, characters no token takes ('²' is a
# digit but not decimal, '*' and '.' are not symbols), line ends and comments
TOKENS = [
    "let", "assert", "emit",
    "add", "neg", "sqrt", "pi", "point", "square", "nth", "divide", "baudhayana", "manava_dani",
    "x", "y", "out", "_t1", "é",
    "0", "1", "3", "17", "12", "0.25", "1.0", "1.50", "٣", "٣.٣",
    "==", "=", ";", ",", "(", ")", "/", "<", ">", "-",
    "²", "x²", "1²", "*", ".", "1.²",
    " ", " ", "\n", "\r", "\r\n", "\t", "# a note\n", "#",
]
# runs of numerals mixed with letters, digits and '_', which the scanner
# reads piece by piece, and a '.' that may carry a number past the run
numeral_runs = st.lists(st.sampled_from(["²", "½", "Ⅻ", "1", "٣", "07", "a", "é", "_", "."]), max_size=12)
token_scripts = st.lists(st.sampled_from(TOKENS) | numeral_runs.map("".join), max_size=40).map("".join)

# mostly well-formed statements, so that whole trees get compared
names = st.sampled_from(["x", "y", "z", "out"])
literals = st.sampled_from(["0", "3", "17/12", "0.25", "1.5/2", "4/0", "2/", "٣"])
expressions = st.recursive(
    names | literals,
    lambda inner: inner.map(lambda e: "-" + e)
    | st.tuples(st.sampled_from(["add", "sqrt", "pi", "point", "nope"]), st.lists(inner, max_size=3)).map(
        lambda call: f"{call[0]}({', '.join(call[1])})"
    ),
    max_leaves=8,
)
statements = st.one_of(
    st.tuples(names, expressions).map(lambda s: f"let {s[0]} = {s[1]};"),
    st.tuples(expressions, st.sampled_from(["==", "<", ">", "="]), expressions).map(
        lambda s: f"assert {s[0]} {s[1]} {s[2]};"
    ),
    st.lists(names, min_size=1, max_size=3).map(lambda ns: f"emit {', '.join(ns)};"),
)
statement_scripts = st.lists(statements, max_size=6).map("\n".join)


def results(script, diagnostics) -> tuple[str, list]:
    return repr(script), [(d.message, d.line, d.column, d.limit) for d in diagnostics]


def assert_parses_as_the_reference(source: str) -> None:
    script, diagnostics = parse_reference(source)
    # the statements kept while diagnosing too, not only what parse() hands out
    assert results(*_parse(source)) == results(script, diagnostics)
    result = parse(source)
    expected = results(None if diagnostics else script, diagnostics)
    assert results(result.script, result.diagnostics) == expected
    assert scanned(source) == _lex(source)


@settings(max_examples=300, deadline=None)
@given(token_scripts | statement_scripts)
@example("let x = " + "-" * MAX_NESTING + "1; emit x;")
@example("let x = " + "-" * (MAX_NESTING + 1) + "1; emit x;")
@example("let x = " + "neg(" * MAX_NESTING + "2" + ")" * MAX_NESTING + ";\nemit x;")
@example("let x = " + "neg(" * (MAX_NESTING + 1) + "2" + ")" * (MAX_NESTING + 1) + ";\nemit x;")
@example("let x = " + "7" * (MAX_LITERAL_DIGITS + 1) + "/0;\r\nlet y = -x; emit y, z;")
@example("let x = 1." + "0" * MAX_LITERAL_DIGITS + "/2;\nlet x = x;")
@example("let x = add(1, ²2.5); assert x=1; emit")
@example("let x = ²²1²a²_1 ½Ⅻ07²٣.5 Ⅻ²2.²é²; emit x;")
@example("let x = ²" + "1" * (MAX_LITERAL_DIGITS + 1) + "²a;")
def test_parser_matches_the_reference(source):
    assert_parses_as_the_reference(source)


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_corpus_parses_as_the_reference_does(path):
    assert_parses_as_the_reference(path.read_text(encoding="utf-8"))
