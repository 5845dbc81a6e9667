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

Comments run from ``#`` to end of line.  All numeric literals are exact
rationals; a decimal literal denotes its exact finite value, never a
float.  Catalog rules are callable by id (a figure argument recenters the
construction on that figure), so scripts double as executable notes on
each rule.  An expression nests at most ``MAX_NESTING`` levels of ``-``
and calls, a numeric literal has at most ``MAX_LITERAL_DIGITS`` digits,
the numbers that arithmetic, ``area``, ``distance2`` and rule calls
return have rational parts of at most ``MAX_VALUE_DIGITS`` digits, and
``divide`` cuts a segment into at most ``MAX_PARTS`` parts; input past any
of these bounds gets a positioned diagnostic marked ``limit``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple, Optional, TypeVar, Union

from . import catalog
from .exactreal import (
    CapacityError,
    ConstructibleReal,
    DomainError,
    Quantity,
    UnsupportedQuantityError,
    constructible,
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
    severity: str  # "error" or "warning"
    message: str
    line: int
    column: int
    limit: bool = False  # the input exceeds a MAX_* bound, not the language

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.severity}: {self.message}"


# -- syntax tree (positions excluded from equality) ---------------------------


@dataclass
class Literal:
    value: Fraction
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

    # compared and printed with explicit stacks, like _fold, so a tree as
    # deep as MAX_NESTING never meets the recursion limit
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Call):
            return NotImplemented
        return list(_preorder(self)) == list(_preorder(other))

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
        self.diagnostic = Diagnostic("error", str(self), at.line, at.column, limit=True)


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


def _preorder(expr: Expr):
    """Nodes top-down: a call as ``(Call, name, arity)``, a leaf as itself."""
    todo = [expr]
    while todo:
        node = todo.pop()
        if isinstance(node, Call):
            yield Call, node.name, len(node.args)
            todo.extend(reversed(node.args))
        else:
            yield node


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
        return self.script is not None and not any(
            d.severity == "error" for d in self.diagnostics
        )


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
    value: Optional[Fraction]
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
                Diagnostic("error", f"unexpected character {text!r}", line, column)
            )
        elif kind == "number" and len(text) - text.count(".") > MAX_LITERAL_DIGITS:
            message = f"numeric literal longer than {MAX_LITERAL_DIGITS} digits"
            diagnostics.append(Diagnostic("error", message, line, column, limit=True))
            # a stand-in value lets the parser go on to later diagnostics
            tokens.append(_Token(kind, text, Fraction(1), line, column))
        else:
            value = Fraction(text) if kind == "number" else None
            tokens.append(_Token(kind, text, value, line, column))
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
        self.diagnostics.append(
            Diagnostic("error", message, token.line, token.column)
        )

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
        while self.current.kind != "eof":
            if self.current.kind == "symbol" and self.current.text == ";":
                self.advance()
                return
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
        if self.expect_symbol("=") is None:
            raise _SyntaxAbort
        expr = self.parse_expr()
        if self.expect_symbol(";") is None:
            raise _SyntaxAbort
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
        if self.current.kind == "symbol" and self.current.text == "/":
            self.advance()
            denom_token = self.current
            if denom_token.kind != "number":
                self.error("expected a denominator", denom_token)
                raise _SyntaxAbort
            self.advance()
            assert denom_token.value is not None
            denom = denom_token.value
            if denom.denominator != 1 or value.denominator != 1:
                self.error(
                    "rational literals take integer parts, like 17/12",
                    denom_token,
                )
                raise _SyntaxAbort
            if denom == 0:
                self.error("zero denominator in literal", denom_token)
                raise _SyntaxAbort
            value = value / denom
        return Literal(value, token.line, token.column)

    def close_call(self, name_token: _Token, args: list[Expr]) -> Call:
        """Check a call whose ``)`` was just read against the vocabulary."""
        name = name_token.text
        arity, _ = _VOCABULARY.get(name, (None, None))
        if arity is None:
            self.error(f"unknown name {name!r}", name_token)
        elif arity != len(args):
            self.error(
                f"{name}() takes {arity} argument{'s' if arity != 1 else ''}, "
                f"got {len(args)}",
                name_token,
            )
        return Call(name, args, name_token.line, name_token.column)


class _SyntaxAbort(Exception):
    pass


def parse(source: str) -> ParseResult:
    """Parse and statically check a script, collecting all diagnostics."""
    tokens, diagnostics = _lex(source)
    parser = _Parser(tokens, diagnostics)
    script = parser.parse_program()
    if any(d.severity == "error" for d in diagnostics):
        return ParseResult(None, diagnostics)
    return ParseResult(script, diagnostics)


# -- canonical formatting ----------------------------------------------------------


def _format_leaf(expr: Union[Literal, Name]) -> str:
    return str(expr.value) if isinstance(expr, Literal) else expr.ident


def _format_expr(expr: Expr) -> str:
    return _fold(expr, _format_leaf, lambda c, args: f"{c.name}({', '.join(args)})")


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
        return not any(d.severity == "error" for d in self.diagnostics)


class _EvalError(Exception):
    def __init__(self, message: str, limit: bool = False):
        self.message = message
        self.limit = limit


def _need_number(value: Value, what: str) -> ConstructibleReal:
    if isinstance(value, ConstructibleReal):
        return value
    if isinstance(value, Quantity) and value.is_constant():
        return value.c0
    raise _EvalError(f"{what} must be a number, got {_kind_name(value)}")


def _need_quantityish(value: Value, what: str) -> Quantity:
    if isinstance(value, Quantity):
        return value
    if isinstance(value, ConstructibleReal):
        return Quantity(value, 0)
    raise _EvalError(f"{what} must be numeric, got {_kind_name(value)}")


def _need(value: Value, cls: type, what: str):
    if not isinstance(value, cls):
        raise _EvalError(
            f"{what} must be a {cls.__name__.lower()}, got {_kind_name(value)}"
        )
    return value


def _need_index(value: Value, what: str) -> int:
    number = _need_number(value, what)
    frac = number.as_fraction() if number.is_rational() else None
    if frac is None or frac.denominator != 1:
        raise _EvalError(f"{what} must be an integer")
    return int(frac)


def _kind_name(value: Value) -> str:
    if isinstance(value, ConstructibleReal):
        return "number"
    if isinstance(value, Quantity):
        return "quantity"
    if isinstance(value, list):
        return "list"
    return type(value).__name__.lower()


def _numeric_binop(op: str, a: Value, b: Value) -> Value:
    # quantities and numbers mix freely; pi**2 products are rejected by the
    # quantity layer itself
    qa = _need_quantityish(a, "operand")
    qb = _need_quantityish(b, "operand")
    if op == "add":
        result = qa + qb
    elif op == "sub":
        result = qa - qb
    elif op == "mul":
        result = qa * qb
    else:
        result = qa.scale(1 / _need_number(b, "divisor"))
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
        for n in (x.frac.numerator, x.frac.denominator):
            if n.bit_length() >= _VALUE_BOUND_BITS and abs(n) >= _VALUE_BOUND:
                message = (
                    f"{name}() gives a number longer than {MAX_VALUE_DIGITS} digits"
                )
                raise _EvalError(message, limit=True)
    return value


def _rule_input(rule: catalog.Rule, value: Value) -> tuple[ConstructibleReal, Point]:
    origin = Point(constructible(0), constructible(0))
    if isinstance(value, (ConstructibleReal, Quantity)):
        return _need_number(value, "rule input"), origin
    if isinstance(value, Square):
        if rule.kind in ("circle-from-square", "doubling"):
            return value.side, value.center
        raise _EvalError(f"{rule.id} takes a diameter or a circle")
    if isinstance(value, Circle):
        if rule.kind in ("circumference", "inscribed-square", "square-from-circle"):
            return value.radius * 2, value.center
        raise _EvalError(f"{rule.id} takes a side length or a square")
    raise _EvalError(f"{rule.id} takes a number or a figure")


def _call_rule(name: str, rule: catalog.Rule, value: Value) -> catalog.RuleOutput:
    out = rule.run(*_rule_input(rule, value))
    _bounded(name, out.claimed)
    _bounded(name, out.actual)
    return out


def _divide(s: Value, n: Value) -> list[Point]:
    segment = _need(s, Segment, "argument")
    parts = _need_index(n, "part count")
    if parts > MAX_PARTS:
        message = f"divide() takes at most {MAX_PARTS} parts, got {parts}"
        raise _EvalError(message, limit=True)
    return divide_segment(segment, parts)


def _horizontal_intersections(y0: ConstructibleReal, circle: Circle) -> list[Point]:
    swapped = Circle(Point(circle.center.y, circle.center.x), circle.radius)
    return [
        Point(p.y, p.x) for p in vertical_line_circle_intersection(y0, swapped)
    ]


def _negate(value: Value) -> Value:
    q = _need_quantityish(value, "operand")
    return -q.c0 if q.is_constant() else -q


def _center(figure: Value) -> Point:
    if isinstance(figure, (Square, Circle)):
        return figure.center
    raise _EvalError("center() takes a square or a circle")


def _area(figure: Value) -> Quantity:
    if isinstance(figure, Square):
        return _bounded("area", square_area(figure))
    if isinstance(figure, Circle):
        return _bounded("area", circle_area(figure))
    raise _EvalError("area() takes a square or a circle")


def _nth(items: Value, position: Value) -> Value:
    if not isinstance(items, list):
        raise _EvalError("nth() takes a list")
    index = _need_index(position, "index")
    if not 1 <= index <= len(items):
        raise _EvalError(f"index {index} out of range for a list of {len(items)}")
    return items[index - 1]


def _count(items: Value) -> ConstructibleReal:
    if not isinstance(items, list):
        raise _EvalError("count() takes a list")
    return constructible(len(items))


def _witness(value: Value, position: Value) -> Point:
    out = _need(value, catalog.RuleOutput, "rule output")
    if out.witness_points is None:
        raise _EvalError("this rule output has no witness points")
    index = _need_index(position, "index")
    if not 1 <= index <= len(out.witness_points):
        raise _EvalError(
            f"index {index} out of range for {len(out.witness_points)} "
            "witness points"
        )
    return out.witness_points[index - 1]


# -- vocabulary -----------------------------------------------------------------

# name -> (arity, implementation) of every callable: the parser checks calls
# against it and the evaluator dispatches through it
_VOCABULARY: dict[str, tuple[int, Callable[..., Value]]] = {
    "add": (2, partial(_numeric_binop, "add")),
    "sub": (2, partial(_numeric_binop, "sub")),
    "mul": (2, partial(_numeric_binop, "mul")),
    "div": (2, partial(_numeric_binop, "div")),
    "neg": (1, _negate),
    "sqrt": (1, lambda x: sqrt(_need_number(x, "sqrt argument"))),
    "pi": (0, lambda: Quantity(0, 1)),
    "point": (
        2,
        lambda x, y: Point(
            _need_number(x, "x coordinate"), _need_number(y, "y coordinate")
        ),
    ),
    "segment": (
        2,
        lambda a, b: Segment(
            _need(a, Point, "segment start"), _need(b, Point, "segment end")
        ),
    ),
    "square": (
        2,
        lambda c, h: Square(
            _need(c, Point, "square center"), _need_number(h, "half side")
        ),
    ),
    "circle": (
        2,
        lambda c, r: Circle(
            _need(c, Point, "circle center"), _need_number(r, "radius")
        ),
    ),
    "center": (1, _center),
    "midpoint": (1, lambda s: _need(s, Segment, "argument").midpoint()),
    "radius": (1, lambda c: _need(c, Circle, "argument").radius),
    "xcoord": (1, lambda p: _need(p, Point, "argument").x),
    "ycoord": (1, lambda p: _need(p, Point, "argument").y),
    "divide": (2, _divide),
    "circumcircle": (1, lambda s: circumscribed_circle(_need(s, Square, "argument"))),
    "trisectors_vertical": (
        1,
        lambda s: list(trisector_lines(_need(s, Square, "argument"), "vertical")),
    ),
    "trisectors_horizontal": (
        1,
        lambda s: list(trisector_lines(_need(s, Square, "argument"), "horizontal")),
    ),
    "intersect_vertical": (
        2,
        lambda x, c: vertical_line_circle_intersection(
            _need_number(x, "line abscissa"), _need(c, Circle, "circle")
        ),
    ),
    "intersect_horizontal": (
        2,
        lambda y, c: _horizontal_intersections(
            _need_number(y, "line ordinate"), _need(c, Circle, "circle")
        ),
    ),
    "distance2": (
        2,
        lambda p, q: _bounded(
            "distance2",
            distance_squared(
                _need(p, Point, "first point"), _need(q, Point, "second point")
            ),
        ),
    ),
    "area": (1, _area),
    "circumference": (
        1,
        lambda c: circle_circumference_true(_need(c, Circle, "argument")),
    ),
    "nth": (2, _nth),
    "count": (1, _count),
    "claimed": (1, lambda o: _need(o, catalog.RuleOutput, "argument").claimed),
    "actual": (1, lambda o: _need(o, catalog.RuleOutput, "argument").actual),
    "witness": (2, _witness),
    "hypotenuse": (
        2,
        lambda a, b: catalog.hypotenuse(
            _need_number(a, "length"), _need_number(b, "width")
        ),
    ),
    "sqrt2_sulba": (0, catalog.sqrt2_sulba_constant),
}
# every catalog rule id and alias that is not a builtin takes one argument
_VOCABULARY.update(
    (name, (1, partial(_call_rule, name, catalog.lookup(name))))
    for name in (*catalog.rule_ids(), *catalog._ALIASES)
    if name not in _VOCABULARY
)


class _Evaluator:
    def __init__(self) -> None:
        self.environment: dict[str, Value] = {}
        self.emitted: list[tuple[str, Value]] = []
        self.diagnostics: list[Diagnostic] = []

    def eval_expr(self, expr: Expr) -> Value:
        try:
            return _fold(expr, self.eval_leaf, self.eval_call)
        except _NestingError as exc:  # a hand-built script the parser would reject
            raise _EvalAbort(exc.diagnostic) from None

    def eval_leaf(self, expr: Union[Literal, Name]) -> Value:
        if isinstance(expr, Literal):
            return constructible(expr.value)
        return self.environment[expr.ident]

    def eval_call(self, expr: Call, args: list) -> Value:
        try:
            return _VOCABULARY[expr.name][1](*args)
        except _EvalError as exc:
            raise _EvalAbort(
                Diagnostic("error", exc.message, expr.line, expr.column, exc.limit)
            ) from None
        except (DomainError, CapacityError, UnsupportedQuantityError) as exc:
            raise _EvalAbort(
                Diagnostic("error", f"{expr.name}(): {exc}", expr.line, expr.column)
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
            self.environment[stmt.ident] = self.eval_expr(stmt.expr)
            return
        if isinstance(stmt, Emit):
            for name in stmt.names:
                self.emitted.append((name.ident, self.environment[name.ident]))
            return
        left = self.eval_expr(stmt.left)
        right = self.eval_expr(stmt.right)
        try:
            lq = _need_quantityish(left, "left side of assertion")
            rq = _need_quantityish(right, "right side of assertion")
        except _EvalError as exc:
            raise _EvalAbort(
                Diagnostic("error", exc.message, stmt.line, stmt.column)
            ) from None
        s = (lq - rq).sign()
        holds = {"==": s == 0, "<": s < 0, ">": s > 0}[stmt.op]
        if not holds:
            # assertion failures are reported but do not halt the run
            self.diagnostics.append(
                Diagnostic(
                    "error",
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
