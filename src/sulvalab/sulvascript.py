"""A small construction-script language over the exact kernel.

Scripts are straight-line: single-assignment ``let`` bindings, exact
``assert`` relations and ``emit`` directives, with no control flow, so
every run is total and every failure points at a source position::

    # circle the unit square and check the surplus
    let s = square(point(0, 0), 1/2);
    let out = baudhayana(s);
    assert claimed(out) < actual(out);
    emit out;

Grammar (LL(1); one pass over the token lists, with an explicit stack for
expressions)::

    program  := stmt*
    stmt     := "let" IDENT "=" expr ";"
              | "assert" expr ("==" | "<" | ">") expr ";"
              | "emit" IDENT ("," IDENT)* ";"
    expr     := "-" expr | literal | IDENT | NAME "(" args ")"
    args     := (expr ("," expr)*)?
    literal  := NUMBER ("/" NUMBER)?      # "17/12", "3", "0.25" (= 1/4)

Comments run from ``#`` to end of line.  The parser reads each numeric
literal straight into an exact kernel rational, so a decimal literal
denotes its exact finite value, never a float.  Catalog rules are
callable by id (a figure argument recenters the construction on that
figure), so scripts double as executable notes on each rule.  An
expression nests at most ``MAX_NESTING`` levels of ``-`` and calls, a
numeric literal has at most ``MAX_LITERAL_DIGITS`` digits, the numbers
that arithmetic, ``area``, ``distance2`` and rule calls return have
rational parts of at most ``MAX_VALUE_DIGITS`` digits, and ``divide``
cuts a segment into at most ``MAX_PARTS`` parts; input past any of these
bounds gets a positioned diagnostic marked ``limit``.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from typing import Callable, NoReturn, Optional, Sequence, TypeVar, Union

from . import catalog
from .exactreal import (
    CapacityError,
    ConstructibleReal,
    DomainError,
    Quantity,
    UnsupportedQuantityError,
    constructible,
    from_rational,
    sqrt,
    to_decimal,
)
from .geom import (
    Circle,
    Figure,
    Point,
    Segment,
    Square,
    circle_area,
    circle_circumference_true,
    circumscribed_circle,
    distance_squared,
    divide_segment,
    point,
    square_area,
    trisector_lines,
    vertical_line_circle_intersection,
)

__all__ = [
    "MAX_LITERAL_DIGITS",
    "MAX_NESTING",
    "MAX_PARTS",
    "MAX_VALUE_DIGITS",
    "Diagnostic",
    "EvalResult",
    "ParseResult",
    "Script",
    "evaluate",
    "extract_figures",
    "format_script",
    "parse",
    "render_report",
]

Value = Union[
    ConstructibleReal,
    Quantity,
    Point,
    Segment,
    Square,
    Circle,
    catalog.RuleOutput,
    list,
]


# levels of unary minus and call nesting one expression may have
MAX_NESTING = 1000
# digits one numeric literal may have; Python converts at most 4300 digits
# between str and int by default
MAX_LITERAL_DIGITS = 4000
# digits of each numerator and denominator in a number an arithmetic call
# returns; each mul() can double them, so a few lines would otherwise exhaust
# memory
MAX_VALUE_DIGITS = 20_000
_VALUE_BOUND = 10**MAX_VALUE_DIGITS
_VALUE_BOUND_BITS = _VALUE_BOUND.bit_length()  # an int of fewer bits is below it
# parts one divide() call may cut a segment into; time and memory grow with
# the count
MAX_PARTS = 10_000


@dataclass(frozen=True)
class Diagnostic:
    """An error at a source position; every diagnostic is an error."""

    message: str
    line: int
    column: int
    limit: bool = False  # the input exceeds a MAX_* bound, not the language

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: error: {self.message}"


# -- syntax tree (positions excluded from equality) ---------------------------


@dataclass
class Literal:
    value: ConstructibleReal
    line: int = field(compare=False, default=0)
    column: int = field(compare=False, default=0)


@dataclass
class Name:
    ident: str
    line: int = field(compare=False, default=0)
    column: int = field(compare=False, default=0)


@dataclass
class Call:
    name: str
    args: list
    line: int = field(compare=False, default=0)
    column: int = field(compare=False, default=0)

    # compared and printed by _fold, which keeps its own stack, so a tree as
    # deep as MAX_NESTING never meets the recursion limit; the canonical text
    # is faithful (reparsing it gives an equal tree), so it decides equality
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Call):
            return NotImplemented
        return _format_expr(self, None) == _format_expr(other, None)

    def __repr__(self) -> str:
        return _fold(
            self,
            repr,
            lambda c, args: f"Call(name={c.name!r}, args=[{', '.join(args)}], "
            f"line={c.line!r}, column={c.column!r})",
            limit=None,
        )


Expr = Union[Literal, Name, Call]

_R = TypeVar("_R")


class _NestingError(ValueError):
    def __init__(self, line: int, column: int):
        super().__init__(f"expression nested more than {MAX_NESTING} levels deep")
        self.diagnostic = Diagnostic(str(self), line, column, limit=True)


def _fold(
    expr: Expr,
    leaf: Callable[[Union[Literal, Name]], _R],
    call: Callable[[Call, list], _R],
    limit: Optional[int] = MAX_NESTING,
) -> _R:
    """Bottom-up fold of an expression, arguments left to right.

    The walk keeps its own stack, so depth never meets Python's recursion
    limit; a call nested past ``limit`` raises :class:`_NestingError`.
    """
    done: list = []
    todo: list[tuple[Expr, int]] = [(expr, 1)]  # depth -1: arguments done
    while todo:
        node, depth = todo.pop()
        if not isinstance(node, Call):
            done.append(leaf(node))
        elif depth < 0:
            split = len(done) - len(node.args)
            args = done[split:]
            del done[split:]
            done.append(call(node, args))
        elif limit is not None and depth > limit:
            raise _NestingError(node.line, node.column)
        else:
            todo.append((node, -1))
            todo.extend([(arg, depth + 1) for arg in reversed(node.args)])
    return done[0]


@dataclass
class Let:
    ident: str
    expr: Expr
    line: int = field(compare=False, default=0)
    column: int = field(compare=False, default=0)


@dataclass
class Assert:
    left: Expr
    op: str  # "==", "<", ">"
    right: Expr
    line: int = field(compare=False, default=0)
    column: int = field(compare=False, default=0)


@dataclass
class Emit:
    names: list[Name]
    line: int = field(compare=False, default=0)
    column: int = field(compare=False, default=0)


Stmt = Union[Let, Assert, Emit]


@dataclass
class Script:
    statements: list[Stmt]


@dataclass(frozen=True)
class ParseResult:
    script: Optional[Script]
    diagnostics: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return self.script is not None


# -- scanner ---------------------------------------------------------------------

_KEYWORDS = ("let", "assert", "emit")

# one alternative per token kind, tried in order: whitespace is " \t\r\n"
# only, a comment runs to the end of its line, digits are str.isdecimal
# (\d), identifiers continue with str.isalnum or "_" (\w), and any other
# character is "bad"; a newline is always matched as space.  A "word" starts
# with a non-ASCII \w character that is not a digit: an identifier when that
# character is a letter, else (a numeral such as '²') a bad character.
_TOKEN = re.compile(
    r"(?P<space>[ \t\r\n]+|#[^\n]*)"
    r"|(?P<number>\d+(?:\.\d+)?)"
    r"|(?P<ident>[A-Za-z_]\w*)"
    r"|(?P<symbol>==|[=;,()/<>-])"
    r"|(?P<word>[^\W\d]\w*)"
    r"|(?P<bad>.)"
)
# the pieces of a \w run that starts with a numeral: a run of decimal digits,
# or one other character
_PIECE = re.compile(r"\d+|\w")
_LONG_LITERAL = f"numeric literal longer than {MAX_LITERAL_DIGITS} digits"


def _position(newlines: list[int], offset: int) -> tuple[int, int]:
    """The line and column of ``offset``.  Columns count code points from 1;
    a carriage return takes a column."""
    line = bisect_right(newlines, offset)
    return line, offset - newlines[line - 1]


def _scan(source: str) -> tuple[list[str], list[str], list[int], list[int], list[Diagnostic]]:
    """The kinds ("ident", "number", "symbol"), texts and start offsets of
    the tokens, ending in an "eof" token; the offsets of the newlines, after
    a -1 for the one before line 1; and a diagnostic per unexpected
    character and per over-long numeric literal."""
    newlines = [-1, *[match.start() for match in re.finditer("\n", source)]]
    kinds: list[str] = []
    texts: list[str] = []
    starts: list[int] = []
    diagnostics: list[Diagnostic] = []
    pos = 0
    while True:
        for match in _TOKEN.finditer(source, pos):
            kind = match.lastgroup
            if kind == "space":
                continue
            text = match.group()
            start = match.start()
            if kind == "word" and text[0].isalpha():
                kind = "ident"
            elif kind == "word":
                # a numeral such as '²' starts the run: report its numerals
                # and take its inner numbers, up to a token that reaches the
                # run's end (an identifier, or digits that may go on as
                # "1.5"), and scan on from there, so that a run is read a
                # bounded number of times however many numerals it holds
                pos = start + len(text)
                for piece in _PIECE.finditer(text):
                    part, at = piece.group(), start + piece.start()
                    if part.isalpha() or part == "_" or (part.isdecimal() and piece.end() == len(text)):
                        pos = at
                        break
                    if not part.isdecimal():
                        message = f"unexpected character {part!r}"
                        diagnostics.append(Diagnostic(message, *_position(newlines, at)))
                        continue
                    if len(part) > MAX_LITERAL_DIGITS:
                        diagnostics.append(Diagnostic(_LONG_LITERAL, *_position(newlines, at), limit=True))
                    kinds.append("number")
                    texts.append(part)
                    starts.append(at)
                break
            elif kind == "bad":
                message = f"unexpected character {text!r}"
                diagnostics.append(Diagnostic(message, *_position(newlines, start)))
                continue
            elif kind == "number" and len(text) - ("." in text) > MAX_LITERAL_DIGITS:
                diagnostics.append(Diagnostic(_LONG_LITERAL, *_position(newlines, start), limit=True))
            kinds.append(kind)
            texts.append(text)
            starts.append(start)
        else:
            break
    kinds.append("eof")
    texts.append("")
    starts.append(len(source))
    return kinds, texts, starts, newlines, diagnostics


def _number(text: str) -> ConstructibleReal:
    """The exact value of a number token; 1 stands in for an over-long
    literal, which the scanner reported, so parsing goes on to later
    diagnostics."""
    whole, _, part = text.partition(".")  # int() reads any \d digit
    if len(whole) + len(part) > MAX_LITERAL_DIGITS:
        return constructible(1)
    return from_rational(int(whole + part), 10 ** len(part))


# -- parser ---------------------------------------------------------------------


class _SyntaxAbort(Exception):
    """Abandons a statement; parsing resumes at the token its one argument indexes."""


def _parse(source: str) -> tuple[Script, list[Diagnostic]]:
    """The statements of a script that parse, and every diagnostic.

    Symbols are told apart by their text alone, which no identifier or
    number token can have.  Positions are found only for tree nodes and
    diagnostics.
    """
    kinds, texts, starts, newlines, diagnostics = _scan(source)
    defined: set[str] = set()

    def error(message: str, index: int) -> None:
        diagnostics.append(Diagnostic(message, *_position(newlines, starts[index])))

    def fail(message: str, index: int, resume: Optional[int] = None) -> NoReturn:
        error(message, index)
        raise _SyntaxAbort(index if resume is None else resume)

    def reference(index: int) -> Name:
        text = texts[index]
        if text not in defined:
            error(f"unresolved reference {text!r}", index)
        return Name(text, *_position(newlines, starts[index]))

    def call(index: int, args: list[Expr]) -> Call:
        """Check a call whose ``)`` was just read against the vocabulary."""
        name = texts[index]
        problem = _call_problem(name, len(args))
        if problem is not None:
            error(problem, index)
        return Call(name, args, *_position(newlines, starts[index]))

    def literal(i: int) -> tuple[Literal, int]:
        value = _number(texts[i])
        j = i + 1
        if texts[j] == "/":
            j += 1
            if kinds[j] != "number":
                fail("expected a denominator", j)
            denom = _number(texts[j])
            j += 1
            if value.den != 1 or denom.den != 1:
                at = i if value.den != 1 else j - 1
                fail("rational literals take integer parts, like 17/12", at, j)
            if denom.is_zero():
                fail("zero denominator in literal", j - 1, j)
            value = value / denom
        return Literal(value, *_position(newlines, starts[i])), j

    def expression(i: int) -> tuple[Expr, int]:
        # the token indices of pending '-' (args None) and of calls with
        # arguments still open, innermost last; an explicit stack, so deep
        # nesting never meets the recursion limit
        pending: list[tuple[int, Optional[list[Expr]]]] = []

        def open_level(index: int, args: Optional[list[Expr]], resume: int) -> None:
            if len(pending) == MAX_NESTING:
                line, column = _position(newlines, starts[index])
                diagnostics.append(_NestingError(line, column).diagnostic)
                raise _SyntaxAbort(resume)
            pending.append((index, args))

        while True:
            kind, text = kinds[i], texts[i]
            if text == "-":
                open_level(i, None, i + 1)
                i += 1
                continue
            if kind == "number":
                expr, i = literal(i)
            elif kind == "ident" and texts[i + 1] == "(":
                if texts[i + 2] != ")":
                    open_level(i, [], i + 2)
                    i += 2
                    continue  # parse the first argument
                expr = call(i, [])
                i += 3
            elif kind == "ident":
                expr = reference(i)
                i += 1
            else:
                fail("expected an expression", i)
            # hand the finished operand to the pending operators
            while pending:
                opener, args = pending[-1]
                if args is None:
                    pending.pop()
                    at = _position(newlines, starts[opener])
                    if isinstance(expr, Literal):
                        expr = Literal(-expr.value, *at)
                    else:
                        expr = Call("neg", [expr], *at)
                    continue
                args.append(expr)
                if texts[i] == ",":
                    i += 1
                    break  # parse the next argument
                if texts[i] != ")":
                    fail("expected ')'", i)
                i += 1
                pending.pop()
                expr = call(opener, args)
            else:
                return expr, i

    statements: list[Stmt] = []
    i = 0
    while kinds[i] != "eof":
        keyword = texts[i]
        at = _position(newlines, starts[i])
        try:
            if kinds[i] != "ident" or keyword not in _KEYWORDS:
                fail("expected a statement ('let', 'assert' or 'emit')", i)
            i += 1
            stmt: Stmt
            if keyword == "let":
                name = texts[i]
                if kinds[i] != "ident":
                    fail("expected an identifier after 'let'", i)
                if name in _KEYWORDS:
                    fail(f"{name!r} is a keyword", i)
                if name in defined:
                    error(f"redefinition of {name!r}", i)
                try:
                    if texts[i + 1] != "=":
                        fail("expected '='", i + 1)
                    expr, i = expression(i + 2)
                finally:
                    # bind the name even if the initializer has errors, so later
                    # references do not cascade into spurious unresolved diagnostics
                    defined.add(name)
                stmt = Let(name, expr, *at)
            elif keyword == "assert":
                left, i = expression(i)
                op = texts[i]
                if op not in ("==", "<", ">"):
                    fail("expected '==', '<' or '>' in assertion", i)
                right, i = expression(i + 1)
                stmt = Assert(left, op, right, *at)
            else:
                names: list[Name] = []
                while True:
                    if kinds[i] != "ident":
                        fail("expected an identifier in 'emit'", i)
                    names.append(reference(i))
                    i += 1
                    if texts[i] != ",":
                        break
                    i += 1
                stmt = Emit(names, *at)
            if texts[i] != ";":
                fail("expected ';'", i)
            statements.append(stmt)
            i += 1
        except _SyntaxAbort as abort:
            # resume after the next ';'
            (i,) = abort.args
            while kinds[i] != "eof":
                i += 1
                if texts[i - 1] == ";":
                    break
    return Script(statements), diagnostics


def parse(source: str) -> ParseResult:
    """Parse and statically check a script, collecting all diagnostics."""
    script, diagnostics = _parse(source)
    return ParseResult(None if diagnostics else script, diagnostics)


# -- canonical formatting ----------------------------------------------------------


def _format_leaf(expr: Union[Literal, Name]) -> str:
    return str(expr.value) if isinstance(expr, Literal) else expr.ident


def _format_expr(expr: Expr, limit: Optional[int] = MAX_NESTING) -> str:
    return _fold(expr, _format_leaf, lambda c, args: f"{c.name}({', '.join(args)})", limit)


def format_script(script: Script) -> str:
    """Deterministic canonical rendering; reparsing gives an equal tree.

    Raises ``ValueError`` for an expression nested past ``MAX_NESTING``,
    which the parser would reject.
    """
    lines = []
    for stmt in script.statements:
        if isinstance(stmt, Let):
            lines.append(f"let {stmt.ident} = {_format_expr(stmt.expr)};")
        elif isinstance(stmt, Assert):
            lines.append(
                f"assert {_format_expr(stmt.left)} {stmt.op} "
                f"{_format_expr(stmt.right)};"
            )
        else:
            lines.append(f"emit {', '.join(n.ident for n in stmt.names)};")
    return "\n".join(lines) + ("\n" if lines else "")


# -- evaluation ----------------------------------------------------------------------


@dataclass(frozen=True)
class EvalResult:
    environment: dict[str, Value]
    emitted: list[tuple[str, Value]]
    diagnostics: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return not self.diagnostics


class _EvalError(Exception):
    def __init__(self, message: str, limit: bool = False):
        self.message = message
        self.limit = limit


# the kind of a value, by its class; the parameter kinds "point", "segment",
# "square", "circle" and "rule output" admit the values of their class
_KIND_NAMES: dict[type, str] = {
    ConstructibleReal: "number",
    Quantity: "quantity",
    Point: "point",
    Segment: "segment",
    Square: "square",
    Circle: "circle",
    catalog.RuleOutput: "rule output",
    list: "list",
}


def _argument(kind: str, label: str, value: Value) -> object:
    """``value`` as a ``kind`` parameter, which the builtin calls ``label``.

    A "number" admits a constant quantity, "numeric" admits both, an
    "integer" is a whole number, "witnesses" are a rule output's witness
    points, a "figure" is a square or a circle, and a "rule input" is a
    number or a figure, which :func:`_rule_input` checks against the rule.
    """
    if kind == "number":
        if isinstance(value, ConstructibleReal):
            return value
        if isinstance(value, Quantity) and value.is_constant():
            return value.c0
        raise _EvalError(f"{label} must be a number, got {_KIND_NAMES[type(value)]}")
    if kind == "numeric":
        if isinstance(value, Quantity):
            return value
        if isinstance(value, ConstructibleReal):
            return Quantity(value, 0)
        raise _EvalError(f"{label} must be numeric, got {_KIND_NAMES[type(value)]}")
    if kind == "list":
        if isinstance(value, list):
            return value
        raise _EvalError(f"{label} takes a list")
    if kind in _KIND_NAMES.values():  # point, segment, square, circle, rule output
        got = _KIND_NAMES[type(value)]
        if got == kind:
            return value
        raise _EvalError(f"{label} must be a {kind}, got {got}")
    if kind == "integer":
        number = _argument("number", label, value)
        if not (number.is_rational() and number.den == 1):
            raise _EvalError(f"{label} must be an integer")
        return number.num
    if kind == "witnesses":
        points = _argument("rule output", label, value).witness_points
        if points is None:
            raise _EvalError("this rule output has no witness points")
        return points
    if isinstance(value, (Square, Circle)):  # kind "figure" or "rule input"
        return value
    if kind == "figure":
        raise _EvalError(f"{label} takes a square or a circle")
    if isinstance(value, (ConstructibleReal, Quantity)):
        return _argument("number", "rule input", value)
    raise _EvalError(f"{label} takes a number or a figure")


def _numeric_binop(op: str, qa: Quantity, qb: Quantity) -> Value:
    # quantities and numbers mix freely; pi**2 products are rejected by the
    # quantity layer itself
    if op == "add":
        result = qa + qb
    elif op == "sub":
        result = qa - qb
    elif op == "mul":
        result = qa * qb
    else:
        result = qa.scale(1 / _argument("number", "divisor", qb))
    return _bounded(op, result.c0 if result.is_constant() else result)


_NumberT = TypeVar("_NumberT", ConstructibleReal, Quantity)


def _bounded(name: str, value: _NumberT) -> _NumberT:
    """``value``, the result of ``name()``; a rational part of it longer
    than MAX_VALUE_DIGITS digits is a ``limit`` error at that call.

    Only calls that can multiply a number's digits check: the arithmetic
    builtins, ``area`` and ``distance2``, which square lengths, and rule
    calls, whose claimed and actual values grow as the size squared.
    Elsewhere digits grow by at most a few per call.
    """
    pending = [value.c0, value.c1] if isinstance(value, Quantity) else [value]
    while pending:
        x = pending.pop()
        if x.tower is not None:
            pending += (x.a, x.b)
            continue
        for n in (x.num, x.den):
            if n.bit_length() >= _VALUE_BOUND_BITS and abs(n) >= _VALUE_BOUND:
                message = (
                    f"{name}() gives a number longer than {MAX_VALUE_DIGITS} digits"
                )
                raise _EvalError(message, limit=True)
    return value


def _rule_input(
    rule: catalog.Rule, value: Union[ConstructibleReal, Square, Circle]
) -> tuple[ConstructibleReal, Point]:
    """The input length and the center of a call of ``rule`` on ``value``."""
    if isinstance(value, ConstructibleReal):
        return value, point(0, 0)
    takes = catalog.KINDS[rule.kind].takes
    if takes is Square and isinstance(value, Square):
        return value.side, value.center
    if takes is Circle and isinstance(value, Circle):
        return value.radius * 2, value.center
    what = {Square: "a side length or a square", Circle: "a diameter or a circle"}
    raise _EvalError(f"{rule.id} takes {what.get(takes, 'a number')}")


def _call_rule(name: str, rule: catalog.Rule, value: Value) -> catalog.RuleOutput:
    out = rule.run(*_rule_input(rule, value))
    _bounded(name, out.claimed)
    _bounded(name, out.actual)
    return out


def _divide(segment: Segment, parts: int) -> list[Point]:
    if parts > MAX_PARTS:
        message = f"divide() takes at most {MAX_PARTS} parts, got {parts}"
        raise _EvalError(message, limit=True)
    return divide_segment(segment, parts)


def _horizontal_intersections(y0: ConstructibleReal, circle: Circle) -> list[Point]:
    swapped = Circle(Point(circle.center.y, circle.center.x), circle.radius)
    return [
        Point(p.y, p.x) for p in vertical_line_circle_intersection(y0, swapped)
    ]


def _area(figure: Union[Square, Circle]) -> Quantity:
    area = square_area(figure) if isinstance(figure, Square) else circle_area(figure)
    return _bounded("area", area)


def _item(whole: str, items: Sequence[Value], index: int) -> Value:
    """Item ``index`` of ``items``, counted from 1; ``whole`` describes
    ``len(items)`` items in the message for an index out of range, formatted
    with the count and a plural ending."""
    if not 1 <= index <= len(items):
        count = len(items)
        described = whole.format(count, "" if count == 1 else "s")
        raise _EvalError(f"index {index} out of range for {described}")
    return items[index - 1]


# -- vocabulary -----------------------------------------------------------------

_OPERANDS = (("numeric", "operand"), ("numeric", "operand"))

# name -> (parameters, implementation) of every callable, the one
# declaration of each builtin's parameters.  A parameter is (kind, label):
# the parser checks a call's argument count against the parameters, and the
# evaluator converts each argument with _argument, left to right, and then
# calls the implementation on the converted values.
_VOCABULARY: dict[str, tuple[tuple[tuple[str, str], ...], Callable[..., Value]]] = {
    "add": (_OPERANDS, partial(_numeric_binop, "add")),
    "sub": (_OPERANDS, partial(_numeric_binop, "sub")),
    "mul": (_OPERANDS, partial(_numeric_binop, "mul")),
    "div": (_OPERANDS, partial(_numeric_binop, "div")),
    "neg": (_OPERANDS[:1], lambda q: -q.c0 if q.is_constant() else -q),
    "sqrt": ((("number", "sqrt argument"),), sqrt),
    "pi": ((), lambda: Quantity(0, 1)),
    "point": ((("number", "x coordinate"), ("number", "y coordinate")), Point),
    "segment": ((("point", "segment start"), ("point", "segment end")), Segment),
    "square": ((("point", "square center"), ("number", "half side")), Square),
    "circle": ((("point", "circle center"), ("number", "radius")), Circle),
    "center": ((("figure", "center()"),), attrgetter("center")),
    "midpoint": ((("segment", "argument"),), Segment.midpoint),
    "radius": ((("circle", "argument"),), attrgetter("radius")),
    "xcoord": ((("point", "argument"),), attrgetter("x")),
    "ycoord": ((("point", "argument"),), attrgetter("y")),
    "divide": ((("segment", "argument"), ("integer", "part count")), _divide),
    "circumcircle": ((("square", "argument"),), circumscribed_circle),
    "trisectors_vertical": (
        (("square", "argument"),),
        lambda s: list(trisector_lines(s, "vertical")),
    ),
    "trisectors_horizontal": (
        (("square", "argument"),),
        lambda s: list(trisector_lines(s, "horizontal")),
    ),
    "intersect_vertical": (
        (("number", "line abscissa"), ("circle", "circle")),
        vertical_line_circle_intersection,
    ),
    "intersect_horizontal": (
        (("number", "line ordinate"), ("circle", "circle")),
        _horizontal_intersections,
    ),
    "distance2": (
        (("point", "first point"), ("point", "second point")),
        lambda p, q: _bounded("distance2", distance_squared(p, q)),
    ),
    "area": ((("figure", "area()"),), _area),
    "circumference": ((("circle", "argument"),), circle_circumference_true),
    "nth": ((("list", "nth()"), ("integer", "index")), partial(_item, "a list of {}")),
    "count": ((("list", "count()"),), lambda items: constructible(len(items))),
    "claimed": ((("rule output", "argument"),), attrgetter("claimed")),
    "actual": ((("rule output", "argument"),), attrgetter("actual")),
    "witness": (
        (("witnesses", "rule output"), ("integer", "index")),
        partial(_item, "{} witness point{}"),
    ),
    "hypotenuse": ((("number", "length"), ("number", "width")), catalog.hypotenuse),
    "sqrt2_sulba": ((), catalog.sqrt2_sulba_constant),
}
# every catalog rule id and alias that is not a builtin takes a number or a figure
_VOCABULARY.update(
    (name, ((("rule input", rule.id),), partial(_call_rule, name, rule)))
    for name, rule in [(n, catalog.lookup(n)) for n in (*catalog.rule_ids(), *catalog._ALIASES)]
    if name not in _VOCABULARY
)


def _call_problem(name: str, count: int) -> Optional[str]:
    """Why a call of ``name`` on ``count`` arguments is wrong, or None."""
    entry = _VOCABULARY.get(name)
    if entry is None:
        return f"unknown name {name!r}"
    arity = len(entry[0])
    if arity != count:
        return f"{name}() takes {arity} argument{'s' if arity != 1 else ''}, got {count}"
    return None


class _Evaluator:
    """Runs statements in order.  A hand-built script that the parser would
    reject (an unknown or unresolved name, a wrong argument count, a
    redefinition, nesting past MAX_NESTING) stops with the parser's message."""

    def __init__(self) -> None:
        self.environment: dict[str, Value] = {}
        self.emitted: list[tuple[str, Value]] = []
        self.diagnostics: list[Diagnostic] = []

    def eval_expr(self, expr: Expr) -> Value:
        try:
            return _fold(expr, self.eval_leaf, self.eval_call)
        except _NestingError as exc:
            raise _EvalAbort(exc.diagnostic) from None

    def eval_leaf(self, expr: Union[Literal, Name]) -> Value:
        if isinstance(expr, Literal):
            return constructible(expr.value)
        value = self.environment.get(expr.ident)
        if value is None:
            message = f"unresolved reference {expr.ident!r}"
            raise _EvalAbort(Diagnostic(message, expr.line, expr.column))
        return value

    def eval_call(self, expr: Call, args: list) -> Value:
        try:
            problem = _call_problem(expr.name, len(args))
            if problem is not None:
                raise _EvalError(problem)
            parameters, implementation = _VOCABULARY[expr.name]
            return implementation(
                *[_argument(kind, label, arg) for (kind, label), arg in zip(parameters, args)]
            )
        except _EvalError as exc:
            raise _EvalAbort(
                Diagnostic(exc.message, expr.line, expr.column, exc.limit)
            ) from None
        except (DomainError, CapacityError, UnsupportedQuantityError) as exc:
            raise _EvalAbort(
                Diagnostic(f"{expr.name}(): {exc}", expr.line, expr.column)
            ) from None

    def run(self, script: Script) -> EvalResult:
        for stmt in script.statements:
            try:
                self.exec_stmt(stmt)
            except _EvalAbort as abort:
                self.diagnostics.append(abort.diagnostic)
                break
        return EvalResult(self.environment, self.emitted, self.diagnostics)

    def exec_stmt(self, stmt: Stmt) -> None:
        if isinstance(stmt, Let):
            if stmt.ident in self.environment:
                message = f"redefinition of {stmt.ident!r}"
                raise _EvalAbort(Diagnostic(message, stmt.line, stmt.column))
            self.environment[stmt.ident] = self.eval_expr(stmt.expr)
            return
        if isinstance(stmt, Emit):
            for name in stmt.names:
                self.emitted.append((name.ident, self.eval_leaf(name)))
            return
        left = self.eval_expr(stmt.left)
        right = self.eval_expr(stmt.right)
        try:
            lq = _argument("numeric", "left side of assertion", left)
            rq = _argument("numeric", "right side of assertion", right)
        except _EvalError as exc:
            raise _EvalAbort(Diagnostic(exc.message, stmt.line, stmt.column)) from None
        s = (lq - rq).sign()
        holds = {"==": s == 0, "<": s < 0, ">": s > 0}[stmt.op]
        if not holds:
            # assertion failures are reported but do not halt the run
            self.diagnostics.append(
                Diagnostic(
                    f"assertion failed: left {stmt.op} right is false; "
                    f"left in {lq.enclose(64)}, right in {rq.enclose(64)}",
                    stmt.line,
                    stmt.column,
                )
            )


class _EvalAbort(Exception):
    def __init__(self, diagnostic: Diagnostic):
        self.diagnostic = diagnostic


def evaluate(script: Script) -> EvalResult:
    """Execute statements in order with exact semantics; deterministic."""
    return _Evaluator().run(script)


# -- reports and figure extraction ----------------------------------------------------


def _render_value(value: Value, digits: int) -> str:
    if isinstance(value, ConstructibleReal):
        if value.is_rational():
            return to_decimal(value, digits)
        return f"{to_decimal(value, digits)} (= {value})"
    if isinstance(value, Quantity):
        if value.is_constant():
            return _render_value(value.c0, digits)
        return f"{to_decimal(value, digits)} (= {value})"
    if isinstance(value, Point):
        return (
            f"point({to_decimal(value.x, digits)}, {to_decimal(value.y, digits)})"
        )
    if isinstance(value, Segment):
        return (
            f"segment({_render_value(value.a, digits)}, "
            f"{_render_value(value.b, digits)})"
        )
    if isinstance(value, Square):
        return (
            f"square(center={_render_value(value.center, digits)}, "
            f"half_side={to_decimal(value.half_side, digits)})"
        )
    if isinstance(value, Circle):
        return (
            f"circle(center={_render_value(value.center, digits)}, "
            f"radius={to_decimal(value.radius, digits)})"
        )
    if isinstance(value, catalog.RuleOutput):
        witnesses = (
            0 if value.witness_points is None else len(value.witness_points)
        )
        return (
            f"rule output: claimed = {_render_value(value.claimed, digits)}, "
            f"actual = {_render_value(value.actual, digits)}, "
            f"figures = {len(value.figures)}, witness points = {witnesses}"
        )
    return "[" + ", ".join(_render_value(item, digits) for item in value) + "]"


def render_report(result: EvalResult, digits: int = 12) -> str:
    """Deterministic text report of the emitted values."""
    lines = [
        f"{name} = {_render_value(value, digits)}"
        for name, value in result.emitted
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def extract_figures(result: EvalResult) -> list[Figure]:
    """All figures among the emitted values, in emission order."""
    figures: list[Figure] = []

    def collect(value: Value) -> None:
        if isinstance(value, (Point, Segment, Square, Circle)):
            figures.append(value)
        elif isinstance(value, catalog.RuleOutput):
            figures.extend(value.figures)
            if value.witness_points is not None:
                figures.extend(value.witness_points)
        elif isinstance(value, list):
            for item in value:
                collect(item)

    for _, value in result.emitted:
        collect(value)
    return figures
