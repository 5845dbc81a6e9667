"""A small construction-script language over the exact kernel.

Scripts are straight-line: single-assignment ``let`` bindings, exact
``assert`` relations and ``emit`` directives, with no control flow, so
every run is total and every failure points at a source position::

    # circle the unit square and check the surplus
    let s = square(point(0, 0), 1/2);
    let out = baudhayana(s);
    assert claimed(out) < actual(out);
    emit out;

Grammar (LL(1); statements by recursive descent, expressions with an
explicit stack)::

    program  := stmt*
    stmt     := "let" IDENT "=" expr ";"
              | "assert" expr ("==" | "<" | ">") expr ";"
              | "emit" IDENT ("," IDENT)* ";"
    expr     := "-" expr | literal | IDENT | NAME "(" args ")"
    args     := (expr ("," expr)*)?
    literal  := NUMBER ("/" NUMBER)?      # "17/12", "3", "0.25" (= 1/4)

Comments run from ``#`` to end of line.  The lexer reads each numeric
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
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from typing import Callable, NamedTuple, Optional, Sequence, TypeVar, Union

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
    def __init__(self, at: Union["_Token", Call]):
        super().__init__(f"expression nested more than {MAX_NESTING} levels deep")
        self.diagnostic = Diagnostic(str(self), at.line, at.column, limit=True)


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
            raise _NestingError(node)
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


# -- lexer ---------------------------------------------------------------------

_KEYWORDS = ("let", "assert", "emit")

# one alternative per token kind, tried in order: whitespace is " \t\r\n"
# only, a comment runs to the end of its line, digits are str.isdecimal
# (\d), identifiers continue with str.isalnum or "_" (\w), and any other
# character is "bad"; a newline is always matched as space
_TOKEN = re.compile(
    r"(?P<space>[ \t\r\n]+|#[^\n]*)"
    r"|(?P<number>\d+(?:\.\d+)?)"
    r"|(?P<ident>[^\W\d]\w*)"
    r"|(?P<symbol>==|[=;,()/<>-])"
    r"|(?P<bad>.)"
)


class _Token(NamedTuple):
    kind: str  # "ident", "number", "symbol", "eof"
    text: str
    value: Optional[ConstructibleReal]
    line: int
    column: int


def _lex(source: str) -> tuple[list[_Token], list[Diagnostic]]:
    """Tokens ending in "eof", and a diagnostic per unexpected character.

    Columns count code points from 1; a carriage return takes a column.
    """
    tokens: list[_Token] = []
    diagnostics: list[Diagnostic] = []
    line, line_start, pos = 1, 0, 0
    while pos < len(source):
        match = _TOKEN.match(source, pos)
        kind, text = match.lastgroup, match.group()
        column = pos - line_start + 1
        if kind == "ident" and not (text[0].isalpha() or text[0] == "_"):
            kind, text = "bad", text[0]  # \w also admits numerals such as '²'
        pos += len(text)
        if kind == "space":
            if "\n" in text:
                line += text.count("\n")
                line_start = source.rindex("\n", 0, pos) + 1
        elif kind == "bad":
            diagnostics.append(
                Diagnostic(f"unexpected character {text!r}", line, column)
            )
        elif kind == "number" and len(text) - text.count(".") > MAX_LITERAL_DIGITS:
            message = f"numeric literal longer than {MAX_LITERAL_DIGITS} digits"
            diagnostics.append(Diagnostic(message, line, column, limit=True))
            # a stand-in value lets the parser go on to later diagnostics
            tokens.append(_Token(kind, text, constructible(1), line, column))
        elif kind == "number":
            whole, _, part = text.partition(".")  # int() reads any \d digit
            value = from_rational(int(whole + part), 10 ** len(part))
            tokens.append(_Token(kind, text, value, line, column))
        else:
            tokens.append(_Token(kind, text, None, line, column))
    tokens.append(_Token("eof", "", None, line, pos - line_start + 1))
    return tokens, diagnostics


# -- parser ---------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token], diagnostics: list[Diagnostic]):
        self.tokens = tokens
        self.index = 0
        self.diagnostics = diagnostics
        self.defined: set[str] = set()

    def error(self, message: str, token: _Token) -> None:
        self.diagnostics.append(Diagnostic(message, token.line, token.column))

    @property
    def current(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.current
        if token.kind != "eof":
            self.index += 1
        return token

    def match_symbol(self, text: str) -> Optional[_Token]:
        if self.current.kind == "symbol" and self.current.text == text:
            return self.advance()
        return None

    def expect_symbol(self, text: str) -> Optional[_Token]:
        token = self.match_symbol(text)
        if token is None:
            self.error(f"expected {text!r}", self.current)
        return token

    def recover_to_semicolon(self) -> None:
        while self.current.kind != "eof" and self.match_symbol(";") is None:
            self.advance()

    def parse_program(self) -> Script:
        statements: list[Stmt] = []
        while self.current.kind != "eof":
            stmt = self.parse_statement()
            if stmt is not None:
                statements.append(stmt)
        return Script(statements)

    def parse_statement(self) -> Optional[Stmt]:
        token = self.current
        if token.kind != "ident" or token.text not in _KEYWORDS:
            self.error(
                "expected a statement ('let', 'assert' or 'emit')", token
            )
            self.recover_to_semicolon()
            return None
        self.advance()
        try:
            if token.text == "let":
                return self.parse_let(token)
            if token.text == "assert":
                return self.parse_assert(token)
            return self.parse_emit(token)
        except _SyntaxAbort:
            self.recover_to_semicolon()
            return None

    def parse_let(self, keyword: _Token) -> Let:
        name = self.current
        if name.kind != "ident":
            self.error("expected an identifier after 'let'", name)
            raise _SyntaxAbort
        if name.text in _KEYWORDS:
            self.error(f"{name.text!r} is a keyword", name)
            raise _SyntaxAbort
        self.advance()
        if name.text in self.defined:
            self.error(f"redefinition of {name.text!r}", name)
        try:
            if self.expect_symbol("=") is None:
                raise _SyntaxAbort
            expr = self.parse_expr()
            if self.expect_symbol(";") is None:
                raise _SyntaxAbort
        finally:
            # record the binding even if the initializer had errors, so later
            # references do not cascade into spurious unresolved diagnostics
            self.defined.add(name.text)
        return Let(name.text, expr, keyword.line, keyword.column)

    def parse_assert(self, keyword: _Token) -> Assert:
        left = self.parse_expr()
        op_token = self.current
        if op_token.kind == "symbol" and op_token.text in ("==", "<", ">"):
            self.advance()
        else:
            self.error("expected '==', '<' or '>' in assertion", op_token)
            raise _SyntaxAbort
        right = self.parse_expr()
        if self.expect_symbol(";") is None:
            raise _SyntaxAbort
        return Assert(left, op_token.text, right, keyword.line, keyword.column)

    def parse_emit(self, keyword: _Token) -> Emit:
        names: list[Name] = []
        while True:
            token = self.current
            if token.kind != "ident":
                self.error("expected an identifier in 'emit'", token)
                raise _SyntaxAbort
            self.advance()
            name = Name(token.text, token.line, token.column)
            if token.text not in self.defined:
                self.error(f"unresolved reference {token.text!r}", token)
            names.append(name)
            if self.match_symbol(","):
                continue
            break
        if self.expect_symbol(";") is None:
            raise _SyntaxAbort
        return Emit(names, keyword.line, keyword.column)

    def parse_expr(self) -> Expr:
        # pending '-' tokens (args None) and calls with arguments still
        # open, innermost last; an explicit stack, so deep nesting never
        # meets the recursion limit
        pending: list[tuple[_Token, Optional[list[Expr]]]] = []

        def open_level(token: _Token, args: Optional[list[Expr]]) -> None:
            if len(pending) == MAX_NESTING:
                self.diagnostics.append(_NestingError(token).diagnostic)
                raise _SyntaxAbort
            pending.append((token, args))

        while True:
            token = self.current
            if token.kind == "symbol" and token.text == "-":
                self.advance()
                open_level(token, None)
                continue
            if token.kind == "number":
                expr: Expr = self.parse_literal()
            elif token.kind == "ident":
                self.advance()
                if self.match_symbol("("):
                    if not self.match_symbol(")"):
                        open_level(token, [])
                        continue  # parse the first argument
                    expr = self.close_call(token, [])
                else:
                    expr = Name(token.text, token.line, token.column)
                    if token.text not in self.defined:
                        self.error(f"unresolved reference {token.text!r}", token)
            else:
                self.error("expected an expression", token)
                raise _SyntaxAbort
            # hand the finished operand to the pending operators
            while pending:
                opener, args = pending[-1]
                if args is None:
                    pending.pop()
                    if isinstance(expr, Literal):
                        expr = Literal(-expr.value, opener.line, opener.column)
                    else:
                        expr = Call("neg", [expr], opener.line, opener.column)
                    continue
                args.append(expr)
                if self.match_symbol(","):
                    break  # parse the next argument
                if self.expect_symbol(")") is None:
                    raise _SyntaxAbort
                pending.pop()
                expr = self.close_call(opener, args)
            else:
                return expr

    def parse_literal(self) -> Literal:
        token = self.advance()
        assert token.value is not None
        value = token.value
        if self.match_symbol("/"):
            denom_token = self.current
            if denom_token.kind != "number":
                self.error("expected a denominator", denom_token)
                raise _SyntaxAbort
            self.advance()
            assert denom_token.value is not None
            denom = denom_token.value
            if value.den != 1 or denom.den != 1:
                self.error(
                    "rational literals take integer parts, like 17/12",
                    token if value.den != 1 else denom_token,
                )
                raise _SyntaxAbort
            if denom.is_zero():
                self.error("zero denominator in literal", denom_token)
                raise _SyntaxAbort
            value = value / denom
        return Literal(value, token.line, token.column)

    def close_call(self, name_token: _Token, args: list[Expr]) -> Call:
        """Check a call whose ``)`` was just read against the vocabulary."""
        problem = _call_problem(name_token.text, len(args))
        if problem is not None:
            self.error(problem, name_token)
        return Call(name_token.text, args, name_token.line, name_token.column)


class _SyntaxAbort(Exception):
    pass


def parse(source: str) -> ParseResult:
    """Parse and statically check a script, collecting all diagnostics."""
    tokens, diagnostics = _lex(source)
    parser = _Parser(tokens, diagnostics)
    script = parser.parse_program()
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
