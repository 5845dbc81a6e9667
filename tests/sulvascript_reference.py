"""The scanner and parser that ``sulvascript`` used before it parsed by index.

``_lex``, ``_Token`` and ``_Parser`` below are kept verbatim as the
reference that ``test_sulvascript_parser.py`` compares the index-walking
front end with: one ``_Token`` record per token, each literal's value read
by the lexer, and a parser that moves through the tokens with ``current``,
``advance`` and ``match_symbol``.  :func:`scanned` puts the new scanner's
output into the same records.
"""

from __future__ import annotations

import re
from typing import NamedTuple, NoReturn, Optional

from sulvalab import sulvascript
from sulvalab.exactreal import ConstructibleReal, constructible, from_rational
from sulvalab.sulvascript import (
    _KEYWORDS,
    MAX_LITERAL_DIGITS,
    MAX_NESTING,
    Assert,
    Call,
    Diagnostic,
    Emit,
    Expr,
    Let,
    Literal,
    Name,
    Script,
    Stmt,
    _call_problem,
)


def _NestingError(token: "_Token") -> sulvascript._NestingError:
    """The module's nesting error, at a token as the reference parser gives it."""
    return sulvascript._NestingError(token.line, token.column)


# -- lexer (verbatim) ---------------------------------------------------------

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


# -- parser (verbatim) ---------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token], diagnostics: list[Diagnostic]):
        self.tokens = tokens
        self.index = 0
        self.diagnostics = diagnostics
        self.defined: set[str] = set()

    def error(self, message: str, token: _Token) -> None:
        self.diagnostics.append(Diagnostic(message, token.line, token.column))

    def fail(self, message: str, token: _Token) -> NoReturn:
        """Record a diagnostic and abandon the statement."""
        self.error(message, token)
        raise _SyntaxAbort

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

    def expect_symbol(self, text: str) -> None:
        if self.match_symbol(text) is None:
            self.fail(f"expected {text!r}", self.current)

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
            self.fail("expected an identifier after 'let'", name)
        if name.text in _KEYWORDS:
            self.fail(f"{name.text!r} is a keyword", name)
        self.advance()
        if name.text in self.defined:
            self.error(f"redefinition of {name.text!r}", name)
        try:
            self.expect_symbol("=")
            expr = self.parse_expr()
            self.expect_symbol(";")
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
            self.fail("expected '==', '<' or '>' in assertion", op_token)
        right = self.parse_expr()
        self.expect_symbol(";")
        return Assert(left, op_token.text, right, keyword.line, keyword.column)

    def parse_emit(self, keyword: _Token) -> Emit:
        names: list[Name] = []
        while True:
            token = self.current
            if token.kind != "ident":
                self.fail("expected an identifier in 'emit'", token)
            self.advance()
            name = Name(token.text, token.line, token.column)
            if token.text not in self.defined:
                self.error(f"unresolved reference {token.text!r}", token)
            names.append(name)
            if self.match_symbol(","):
                continue
            break
        self.expect_symbol(";")
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
                self.fail("expected an expression", token)
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
                self.expect_symbol(")")
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
                self.fail("expected a denominator", denom_token)
            self.advance()
            assert denom_token.value is not None
            denom = denom_token.value
            if value.den != 1 or denom.den != 1:
                self.fail(
                    "rational literals take integer parts, like 17/12",
                    token if value.den != 1 else denom_token,
                )
            if denom.is_zero():
                self.fail("zero denominator in literal", denom_token)
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


def parse_reference(source: str) -> tuple[Script, list[Diagnostic]]:
    """The statements the reference parser keeps, and its diagnostics."""
    tokens, diagnostics = _lex(source)
    return _Parser(tokens, diagnostics).parse_program(), diagnostics


def scanned(source: str) -> tuple[list[_Token], list[Diagnostic]]:
    """The tokens of the index-walking scanner as the reference's records,
    each number with the value the parser reads from it, and the scanner's
    diagnostics."""
    kinds, texts, starts, newlines, diagnostics = sulvascript._scan(source)
    tokens = [
        _Token(
            kind,
            text,
            sulvascript._number(text) if kind == "number" else None,
            *sulvascript._position(newlines, start),
        )
        for kind, text, start in zip(kinds, texts, starts)
    ]
    return tokens, diagnostics
