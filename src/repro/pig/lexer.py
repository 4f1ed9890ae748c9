"""Tokenizer for the Pig Latin subset: one compiled master pattern.

One ``finditer`` match per token (the blanks and comments before it
included), no Python frame per character; line and column are counted
from a token's offset when an error message asks.  Keywords are *not*
reserved: ``group`` is a statement keyword and a field name, so the parser
matches them contextually, and it cuts statements with the same sub-patterns.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple

from repro.exceptions import PigParseError

IDENT = "IDENT"
NUMBER = "NUMBER"
STRING = "STRING"
DOLLAR = "DOLLAR"
SYMBOL = "SYMBOL"
EOF = "EOF"

_STRING_BODY = r"(?:\\.|[^'\\])*"  # ``\x`` stands for ``x``, whatever ``x`` is
STRING_PATTERN = f"'{_STRING_BODY}'"
COMMENT_PATTERN = r"--[^\n]*|/\*.*?\*/"

#: group 1 precedes the token; shapes start on disjoint characters, common
#: ones first; BAD is the rest: an unclosed literal or comment, a bare ``$``
_MASTER = re.compile(
    rf"""((?:\s+|{COMMENT_PATTERN})*)
    (?:(?P<IDENT>[^\W\d]\w*)
    |(?P<SYMBOL>==|!=|<=|>=|::|/(?!\*)|\.(?!\d)|[=;,()*+\-%<>{{}}\#:])
    |'(?P<STRING>{_STRING_BODY})'
    |(?P<NUMBER>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
    |(?P<DOLLAR>\$\d+)
    |(?P<EOF>\Z)
    |(?P<BAD>.))""",
    re.DOTALL | re.VERBOSE,
)
_BAD_MESSAGES = {
    "'": "unterminated string literal",
    "/": "unterminated block comment",
    "$": "expected digits after $",
}


class Token(NamedTuple):
    kind: str
    text: str
    offset: int  # of the token's first character in ``source``
    source: str

    @property
    def line(self) -> int:
        return self.source.count("\n", 0, self.offset) + 1

    @property
    def column(self) -> int:
        return self.offset - self.source.rfind("\n", 0, self.offset)

    def matches_keyword(self, word: str) -> bool:
        return self.kind == IDENT and self.text.lower() == word.lower()

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.column})"


def tokenize(source: str) -> List[Token]:
    """Tokenize *source* into a list ending with an EOF token."""
    bad: list = []  # BAD matches: they stay in the list, and are noted here
    tokens = [  # tuple.__new__: a third off Token(...)'s generated __new__
        tuple.__new__(Token, (kind, match[kind], match.end(1), source))
        for match in _MASTER.finditer(source)
        if (kind := match.lastgroup) != "BAD" or not bad.append(match)
    ]
    if len(tokens) > 1 and tokens[-2].kind == EOF:
        del tokens[-1]  # trailing blanks end in \Z, and \Z matches once more
    if bad or "\\" in source or not source.isascii():
        # rare shapes, in source order: escapes, BAD, a \w like "½" (no letter)
        for index, token in enumerate(tokens):
            kind, text = token[:2]
            if kind == STRING:
                tokens[index] = token._replace(text=re.sub(r"(?s)\\(.)", r"\1", text))
            elif kind == "BAD" or (
                kind == IDENT and text[0] != "_" and not text[0].isalpha()
            ):
                message = _BAD_MESSAGES.get(text, f"unexpected character {text[0]!r}")
                raise PigParseError(message, token.line, token.column)
    return tokens
