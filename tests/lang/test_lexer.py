"""The regex lexer against a character-loop reference scanner.

:func:`_reference_scan` is the ``.qbr`` lexer as a per-character loop:
whitespace is exactly space, tab, CR and LF, a number is a run of
``str.isdecimal`` characters, an identifier starts with
``str.isalpha`` or ``_`` and continues with ``str.isalnum`` or ``_``,
and only LF starts a new line.  Every input must lex to the same
``(kind, text, line, column)`` stream under both, or fail with the same
:class:`ParseError` message at the same position.
"""

from __future__ import annotations

from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParseError
from repro.lang.surface.lexer import KEYWORDS, PUNCTUATION, Token, _scan
from repro.lang.surface.sources import adder_qbr_source, mcx_qbr_source


def _reference_scan(source: str) -> Iterator[Token]:
    line = 1
    column = 1
    i = 0
    length = len(source)

    def advance(count: int) -> None:
        nonlocal i, line, column
        for _ in range(count):
            if i < length and source[i] == "\n":
                line += 1
                column = 1
            else:
                column += 1
            i += 1

    while i < length:
        ch = source[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if source.startswith("//", i):
            while i < length and source[i] != "\n":
                advance(1)
            continue
        if source.startswith("/*", i):
            start_line, start_col = line, column
            advance(2)
            while i < length and not source.startswith("*/", i):
                advance(1)
            if i >= length:
                raise ParseError("unterminated block comment", start_line, start_col)
            advance(2)
            continue
        if ch.isdecimal():
            start_line, start_col = line, column
            begin = i
            while i < length and source[i].isdecimal():
                advance(1)
            yield Token("NUMBER", source[begin:i], start_line, start_col)
            continue
        if ch.isalpha() or ch == "_":
            start_line, start_col = line, column
            begin = i
            while i < length and (source[i].isalnum() or source[i] == "_"):
                advance(1)
            text = source[begin:i]
            if text == "borrow" and i < length and source[i] == "@":
                advance(1)
                yield Token("BORROW_SKIP", "borrow@", start_line, start_col)
                continue
            kind = text.upper() if text in KEYWORDS else "ID"
            yield Token(kind, text, start_line, start_col)
            continue
        if ch in PUNCTUATION:
            yield Token(PUNCTUATION[ch], ch, line, column)
            advance(1)
            continue
        raise ParseError(f"unexpected character {ch!r}", line, column)
    yield Token("EOF", "", line, column)


def _lex(scan, source: str):
    """The token stream as plain tuples, or the error as comparable data."""
    try:
        return [tuple(token) for token in scan(source)]
    except ParseError as err:
        return ("error", str(err), err.line, err.column)


#: Characters that sit on a rule's edge: decimal digits outside ASCII,
#: digits and numerals that are not decimal, a non-ASCII letter,
#: whitespace the grammar does not skip (VT, NBSP, U+2028 LINE
#: SEPARATOR), and the comment openers.
_EDGES = [
    "²", "٣", "Ⅻ", "é", "½", "\x0b", "\xa0", "@", "//", "/*", "*/",
    "\r\n", "\n", "\r", "\t", " ", "_", "borrow", "borrow@", "let",
    "X", "q", "7", "/", "*", "\u2028", "$",
]
_PIECES = st.one_of(
    st.sampled_from(_EDGES),
    st.sampled_from(sorted(PUNCTUATION)),
    st.sampled_from(sorted(KEYWORDS)),
    st.text(max_size=3),
)
_SOURCES = st.lists(_PIECES, max_size=24).map("".join)


class TestAgainstCharacterLoop:
    @settings(max_examples=400, deadline=None)
    @given(_SOURCES)
    def test_same_tokens_or_same_error(self, source):
        assert _lex(_scan, source) == _lex(_reference_scan, source)

    @pytest.mark.parametrize(
        "source",
        [
            adder_qbr_source(8),
            mcx_qbr_source(20),
            "",
            "borrow@q; borrowed@",
            "²",
            "a²b ٣x Ⅻ",
            "/* a\nb */ X[q]; /*/",
            "// only a comment",
            "let n = 5;\r\n\x0bX",
            "x\n\n  \t y /**/z",
        ],
    )
    def test_corpus(self, source):
        assert _lex(_scan, source) == _lex(_reference_scan, source)

    def test_scan_is_lazy(self):
        """A bad character raises only once the stream reaches it."""
        tokens = _scan("let n = 1; $")
        assert next(tokens) == ("LET", "let", 1, 1)
        assert [next(tokens).kind for _ in range(4)] == [
            "ID", "EQUALS", "NUMBER", "SEMI",
        ]
        with pytest.raises(ParseError, match="unexpected character"):
            next(tokens)
