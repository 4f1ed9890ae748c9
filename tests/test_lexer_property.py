"""The master-pattern lexer is held to the implementation it replaced.

``_token_stream`` below is the character-at-a-time tokenizer that
``repro.pig.lexer`` shipped until the master pattern took its place; it
lives on here, verbatim, as the oracle.  For every source drawn — and
for every script the benchmark and ``repro.pigmix`` submit — the new
``tokenize`` must return the same ``(kind, text, line, column)`` list,
or raise ``PigParseError`` with the same message, line and column.

One family of inputs is answered differently on purpose and is kept
out of the alphabet: the 128 code points that are ``str.isdigit()`` but
not ``str.isdecimal()`` (superscripts, circled digits).  The old lexer
folded them into NUMBER tokens that the parser's ``int()`` could not
convert (an uncaught ``ValueError``); the pattern's ``\\d`` does not
match them, so they are reported as unexpected characters.
"""

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import PigParseError
from repro.pig.lexer import tokenize
from repro.pigmix import queries as pigmix_queries

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench_e2e"))
import inputs  # noqa: E402
from workloads import QUICK  # noqa: E402

# token kinds
IDENT = "IDENT"
NUMBER = "NUMBER"
STRING = "STRING"
DOLLAR = "DOLLAR"
SYMBOL = "SYMBOL"
EOF = "EOF"

_TWO_CHAR_SYMBOLS = ("==", "!=", "<=", ">=", "::")
_ONE_CHAR_SYMBOLS = "=;,().*+-/%<>{}#:"


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    column: int


def _token_stream(source: str) -> Iterator[Token]:
    index = 0
    line = 1
    column = 1
    length = len(source)

    def advance(n: int = 1):
        nonlocal index, line, column
        for _ in range(n):
            if index < length and source[index] == "\n":
                line += 1
                column = 1
            else:
                column += 1
            index += 1

    while index < length:
        ch = source[index]
        # whitespace
        if ch.isspace():
            advance()
            continue
        # comments: -- to end of line, /* ... */
        if source.startswith("--", index):
            while index < length and source[index] != "\n":
                advance()
            continue
        if source.startswith("/*", index):
            end = source.find("*/", index + 2)
            if end == -1:
                raise PigParseError("unterminated block comment", line, column)
            advance(end + 2 - index)
            continue
        start_line, start_col = line, column
        # strings
        if ch == "'":
            end = index + 1
            chunks = []
            while end < length and source[end] != "'":
                if source[end] == "\\" and end + 1 < length:
                    chunks.append(source[end + 1])
                    end += 2
                else:
                    chunks.append(source[end])
                    end += 1
            if end >= length:
                raise PigParseError(
                    "unterminated string literal", start_line, start_col
                )
            text = "".join(chunks)
            advance(end + 1 - index)
            yield Token(STRING, text, start_line, start_col)
            continue
        # dollar positional refs
        if ch == "$":
            end = index + 1
            while end < length and source[end].isdigit():
                end += 1
            if end == index + 1:
                raise PigParseError("expected digits after $", start_line, start_col)
            text = source[index:end]
            advance(end - index)
            yield Token(DOLLAR, text, start_line, start_col)
            continue
        # numbers (int or float, optional exponent)
        if ch.isdigit() or (
            ch == "." and index + 1 < length and source[index + 1].isdigit()
        ):
            end = index
            seen_dot = False
            while end < length and (
                source[end].isdigit() or (source[end] == "." and not seen_dot)
            ):
                if source[end] == ".":
                    seen_dot = True
                end += 1
            if end < length and source[end] in "eE":
                exp = end + 1
                if exp < length and source[exp] in "+-":
                    exp += 1
                if exp < length and source[exp].isdigit():
                    end = exp
                    while end < length and source[end].isdigit():
                        end += 1
                    seen_dot = True
            text = source[index:end]
            advance(end - index)
            yield Token(NUMBER, text, start_line, start_col)
            continue
        # identifiers / keywords
        if ch.isalpha() or ch == "_":
            end = index
            while end < length and (source[end].isalnum() or source[end] == "_"):
                end += 1
            text = source[index:end]
            advance(end - index)
            yield Token(IDENT, text, start_line, start_col)
            continue
        # symbols
        two = source[index : index + 2]
        if two in _TWO_CHAR_SYMBOLS:
            advance(2)
            yield Token(SYMBOL, two, start_line, start_col)
            continue
        if ch in _ONE_CHAR_SYMBOLS:
            advance()
            yield Token(SYMBOL, ch, start_line, start_col)
            continue
        raise PigParseError(f"unexpected character {ch!r}", start_line, start_col)

    yield Token(EOF, "", line, column)


# -- the comparison -----------------------------------------------------------


def _outcome(lexer, source):
    try:
        return [(t.kind, t.text, t.line, t.column) for t in lexer(source)]
    except PigParseError as error:
        return (str(error), error.line, error.column)


def assert_same_as_oracle(source):
    assert _outcome(tokenize, source) == _outcome(_token_stream, source)


# -- token soups --------------------------------------------------------------

KEYWORDS = ("load", "STORE", "Group", "by", "FOREACH", "generate", "as", "into")
#: letters, a CJK numeral that is a letter, Arabic-Indic *decimal*
#: digits, a fraction (numeric, neither letter nor digit), stray marks,
#: and blanks that only ``str.isspace`` knows about
ODD = "éßλЖ中五٣७½Ⅷ€@!~`\"?&|^[]\\  　\x1c\x0b\x0c\r"
IDENT_CHARS = "abzAZ_09" + "éλ中٣½"
STRING_CHARS = "ab ;\n-*/'\\$1.é" + '"'

fragments = st.one_of(
    st.sampled_from(KEYWORDS),
    st.text(IDENT_CHARS, min_size=1, max_size=6),
    st.integers(0, 10**6).map(str),
    st.from_regex(r"[0-9]{0,3}\.[0-9]{0,3}", fullmatch=True),
    st.from_regex(r"[0-9]{1,2}(\.[0-9]{0,2})?[eE][+-]?[0-9]{0,2}", fullmatch=True),
    st.sampled_from(["1.2.3", "3e", "3e+", ".5", "1.", "..", "1..2", "2E-", "٣.٣"]),
    # quoted strings: escapes, embedded ; -- /* and newlines; some never close
    st.text(STRING_CHARS, max_size=8).map(lambda body: f"'{body}'"),
    st.sampled_from(["'a\\'b'", "'x\\", "'open", "'a\\\\'", "'--'", "'/*'", "';'"]),
    st.integers(0, 99).map(lambda n: f"${n}"),
    st.sampled_from(["$", "$x", "$ 1", "$٣"]),
    st.sampled_from(["==", "!=", "<=", ">=", "::"] + list("=;,().*+-/%<>{}#:!")),
    st.text("ab;' \t*/-", max_size=8).map(lambda body: f"--{body}\n"),
    st.text("ab;' \n*-/", max_size=8).map(lambda body: f"/*{body}*/"),
    st.sampled_from(["--", "-- no newline", "/* never closed", "/*/", "/**/", "*/"]),
    st.sampled_from(list(ODD)),
)
separators = st.sampled_from(["", "", " ", "\n", "\n\n", "\t", " \n ", "\r\n"])
soups = st.lists(st.tuples(fragments, separators), max_size=12).map(
    lambda parts: "".join(fragment + gap for fragment, gap in parts)
)


@settings(max_examples=600, deadline=None)
@given(soups)
def test_token_soups_lex_as_the_old_lexer_did(source):
    assert_same_as_oracle(source)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=30).filter(
    lambda s: not any(c.isdigit() and not c.isdecimal() for c in s)
))
def test_arbitrary_text_lexes_as_the_old_lexer_did(source):
    assert_same_as_oracle(source)


@pytest.mark.parametrize(
    "source",
    [
        "",
        "\n",
        "a",
        "a ",
        "a\n-- trailing comment",
        "a /* trailing */",
        "a\n  @",
        "'a\\'b'",
        "'multi\nline' x",
        "/* multi\nline */ x",
        "x = 'unterminated\n;",
        "1.2.3 3e .5 $x",
    ],
)
def test_fixed_shapes(source):
    assert_same_as_oracle(source)


def test_a_digit_that_is_not_decimal_is_an_unexpected_character():
    """The one stated difference (module docstring)."""
    assert [t.text for t in _token_stream("1²")][:1] == ["1²"]
    with pytest.raises(PigParseError) as error:
        tokenize("1²")
    assert (str(error.value), error.value.line, error.value.column) == (
        "unexpected character '²' (line 1, col 2)",
        1,
        2,
    )


# -- every script the benchmark and repro.pigmix submit -----------------------


def _workload_scripts():
    sizes = QUICK["pigmix"]
    steps = inputs.pigmix_stream(sizes) + inputs.pigmix_stream(sizes, passes=1)
    steps += inputs.tenant_plan(0, QUICK["tenant_stream"]).queries
    scripts = {step.source for step in steps}
    paths = {
        "page_views": "pm/pv", "users": "pm/users",
        "power_users": "pm/power", "widerow": "pm/wide",
    }  # fmt: skip
    for name in ("l2", "l3", "l4", "l5", "l6", "l7", "l8", "l9", "l10", "l11",
                 "l11_threeway"):  # fmt: skip
        scripts.add(getattr(pigmix_queries, name)(paths, f"out/{name}"))
    return sorted(scripts)


def test_every_workload_script_lexes_as_the_old_lexer_did():
    scripts = _workload_scripts()
    assert len(scripts) > 40
    for source in scripts:
        expected = _outcome(_token_stream, source)
        assert isinstance(expected, list) and len(expected) > 10
        assert _outcome(tokenize, source) == expected
