"""Tokenizer for the ``.qbr`` surface language.

Follows the artifact grammar: identifiers, numbers, the punctuation set
``= ; , [ ] { } ( ) + - *``, the ``borrow@`` marker, ``//`` line comments
and ``/* */`` block comments.  Keywords are classified here so the parser
can match on token kinds.

Beyond the published grammar this repository adds the ownership
keywords ``lend``, ``within`` and ``apply`` for the scoped
``borrow ... { within {...} apply {...} }`` and ``lend x {...}``
constructs checked by :mod:`repro.lang.borrowck` (see
``docs/language.md``).

One compiled pattern (``_TOKEN``) matches every token, blank run and
comment, so each costs one regex match and one pass through
``_scan``'s loop.  Only ``\\n`` starts a new line; a token's column is
its offset from the start of its line, plus one.  ``_scan`` is a
generator over ``finditer``: it lexes only as far as its consumer has
pulled, so a bad character deep in the source raises only when the
parser reaches it.
"""

from __future__ import annotations

import re
from typing import Iterator, List, NamedTuple

from repro.errors import ParseError

KEYWORDS = frozenset(
    {
        "let",
        "borrow",
        "alloc",
        "release",
        "for",
        "to",
        "lend",
        "within",
        "apply",
    }
)

PUNCTUATION = {
    "=": "EQUALS",
    ";": "SEMI",
    ",": "COMMA",
    "[": "LBRACKET",
    "]": "RBRACKET",
    "{": "LBRACE",
    "}": "RBRACE",
    "(": "LPAREN",
    ")": "RPAREN",
    "+": "PLUS",
    "-": "MINUS",
    "*": "STAR",
}

#: Token kind of every spelling that is not an ``ID``.
_KINDS = {**{word: word.upper() for word in KEYWORDS}, **PUNCTUATION}

# Alternatives are tried in order.  ``\d`` is exactly str.isdecimal (the
# digits int() reads, so '²' is no number) and ``\w`` is exactly
# str.isalnum or '_'.  An identifier must start with str.isalpha or '_';
# ``[^\W\d]`` also admits the ~1,100 numerals that are neither decimal
# nor alphabetic ('²', '½', 'Ⅻ'), so _scan rejects those by hand.
# ``borrow@`` precedes ID, which would take ``borrow`` and leave ``@``.
_TOKEN = re.compile(
    r"""
      (?P<NEWLINE>\n[ \t\r]*)
    | (?P<SPACE>[ \t\r]+)
    | (?P<PUNCT>[=;,\[\]{}()+*-])
    | (?P<BORROW_SKIP>borrow@)
    | (?P<ID>[^\W\d]\w*)
    | (?P<NUMBER>\d+)
    | (?P<COMMENT>//[^\n]*)
    | (?P<BLOCK>/\*.*?\*/)
    | (?P<UNTERMINATED>/\*)
    | (?P<BAD>.)
    """,
    re.VERBOSE | re.DOTALL,
)


class Token(NamedTuple):
    """One lexeme with its 1-based source position."""

    kind: str  # KEYWORD name, "ID", "NUMBER", punctuation kind, or "EOF"
    text: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.kind}({self.text!r})@{self.line}:{self.column}"


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source``; raises :class:`ParseError` on bad input."""
    return list(_scan(source))


def _scan(source: str) -> Iterator[Token]:
    line = 1
    line_start = 0  # offset of the first character of `line`
    for match in _TOKEN.finditer(source):
        group = match.lastgroup
        if group == "SPACE" or group == "COMMENT":
            continue
        start = match.start()
        if group == "NEWLINE":
            line += 1
            line_start = start + 1
            continue
        text = match.group()
        column = start - line_start + 1
        if group == "PUNCT":
            yield Token(_KINDS[text], text, line, column)
        elif group == "ID":
            if text[0] != "_" and not text[0].isalpha():
                raise ParseError(
                    f"unexpected character {text[0]!r}", line, column
                )
            yield Token(_KINDS.get(text, "ID"), text, line, column)
        elif group == "NUMBER" or group == "BORROW_SKIP":
            yield Token(group, text, line, column)
        elif group == "BLOCK":
            if "\n" in text:
                line += text.count("\n")
                line_start = start + text.rindex("\n") + 1
        elif group == "UNTERMINATED":
            raise ParseError("unterminated block comment", line, column)
        else:
            raise ParseError(f"unexpected character {text!r}", line, column)
    yield Token("EOF", "", line, len(source) - line_start + 1)
