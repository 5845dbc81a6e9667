"""Differential tests of the regex scanner against the scanner it replaced.

``_Lexer`` below is the character-at-a-time scanner that ``sulvascript``
used before its single master regex, kept verbatim as the reference.  Where
it returns, both give the same tokens and diagnostics, with the scanner's
kinds, texts and positions, and the value the parser reads from each
number, put into the reference's token records.  It raises
``ValueError`` on a number run holding a non-decimal digit such as ``'²'``;
there the new scanner reports an unexpected character instead.
"""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sulvalab import sulvascript
from sulvalab.sulvascript import Diagnostic, parse
from sulvascript_reference import _Token, scanned

CORPUS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.sulva"))


class _Lexer:
    def __init__(self, source: str):
        self.source = source
        self.pos = 0
        self.line = 1
        self.column = 1
        self.diagnostics: list[Diagnostic] = []

    def error(self, message: str, line: int, column: int) -> None:
        self.diagnostics.append(Diagnostic(message, line, column))

    def _advance(self, n: int = 1) -> None:
        for _ in range(n):
            if self.pos < len(self.source) and self.source[self.pos] == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
            self.pos += 1

    def tokens(self) -> list[_Token]:
        out: list[_Token] = []
        src = self.source
        while self.pos < len(src):
            ch = src[self.pos]
            if ch in " \t\r\n":
                self._advance()
                continue
            if ch == "#":
                while self.pos < len(src) and src[self.pos] != "\n":
                    self._advance()
                continue
            line, column = self.line, self.column
            if ch.isdigit():
                start = self.pos
                while self.pos < len(src) and src[self.pos].isdigit():
                    self._advance()
                if (
                    self.pos + 1 < len(src)
                    and src[self.pos] == "."
                    and src[self.pos + 1].isdigit()
                ):
                    self._advance()
                    while self.pos < len(src) and src[self.pos].isdigit():
                        self._advance()
                text = src[start : self.pos]
                out.append(_Token("number", text, Fraction(text), line, column))
                continue
            if ch.isalpha() or ch == "_":
                start = self.pos
                while self.pos < len(src) and (
                    src[self.pos].isalnum() or src[self.pos] == "_"
                ):
                    self._advance()
                text = src[start : self.pos]
                out.append(_Token("ident", text, None, line, column))
                continue
            if src.startswith("==", self.pos):
                self._advance(2)
                out.append(_Token("symbol", "==", None, line, column))
                continue
            if ch in "=;,()/<>-":
                self._advance()
                out.append(_Token("symbol", ch, None, line, column))
                continue
            self.error(f"unexpected character {ch!r}", line, column)
            self._advance()
        out.append(_Token("eof", "", None, self.line, self.column))
        return out


# ASCII letters and digits, the punctuation the lexer knows, and non-ASCII
# letters, digits, numerals and space: 'é' is a letter, '٣' a decimal digit,
# '²' a digit but not decimal, '½' and 'Ⅻ' numeric only
ALPHABET = (
    "abcxyzLET_019"
    + ". \t\r\n#"
    + "=;,()/<>-"
    + "é٣²½Ⅻ\u00a0"
)
FRAGMENTS = [*ALPHABET, "==", "let", "emit", "x²", "1.5", "٣.٣", "1²", "1.²", "# note\n"]
sources = st.text(alphabet=ALPHABET) | st.lists(st.sampled_from(FRAGMENTS)).map("".join)


@settings(max_examples=600, deadline=None)
@given(sources)
@example("let x = ²;")
@example("1.²")
@example("Ⅻx² _é٣\u00a0½")
@example("a\r\n\r\tb # c\n== =")
def test_lexer_matches_the_reference(source):
    reference = _Lexer(source)
    try:
        expected = reference.tokens()
    except ValueError:
        result = parse(source)
        assert not result.ok
        assert any(
            d.message.startswith("unexpected character") for d in result.diagnostics
        )
        return
    assert scanned(source) == (expected, reference.diagnostics)


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_corpus_lexes_as_the_reference_does(path):
    source = path.read_text(encoding="utf-8")
    reference = _Lexer(source)
    assert scanned(source) == (reference.tokens(), reference.diagnostics)


class _Counting:
    """A compiled pattern whose ``finditer`` counts the characters its matches cover."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.matched = 0

    def finditer(self, source, pos=0):
        for match in self.pattern.finditer(source, pos):
            self.matched += match.end() - match.start()
            yield match


@pytest.mark.parametrize("run", ["²", "²1", "1²", "²a", "Ⅻ٣½"], ids=repr)
def test_numeral_runs_scan_in_linear_time(monkeypatch, run):
    # the scanner's patterns cover each character a bounded number of times,
    # however many numerals a \w run holds
    patterns = {name: _Counting(getattr(sulvascript, name)) for name in ("_TOKEN", "_PIECE")}
    for name, pattern in patterns.items():
        monkeypatch.setattr(sulvascript, name, pattern)
    source = "let x = " + run * (4000 // len(run)) + ".5;"
    assert not parse(source).ok
    assert sum(pattern.matched for pattern in patterns.values()) <= 3 * len(source)
