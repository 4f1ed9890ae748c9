"""Recursive-descent parser for the Pig Latin subset.

Grammar (statements end with ``;``):

    alias = LOAD 'path' [USING Loader] [AS (field[:type], ...)]
    alias = FOREACH rel GENERATE item [, item]...      item := [FLATTEN(] expr [)] [AS name]
    alias = FILTER rel BY bool_expr
    alias = JOIN rel BY keys [LEFT|RIGHT|FULL [OUTER]], rel BY keys [PARALLEL n]
    alias = GROUP rel (ALL | BY keys) [PARALLEL n]
    alias = COGROUP rel BY keys, rel BY keys [PARALLEL n]
    alias = DISTINCT rel [PARALLEL n]
    alias = UNION rel, rel [, rel]...
    alias = ORDER rel BY field [ASC|DESC] [, ...] [PARALLEL n]
    alias = LIMIT rel n
    SPLIT rel INTO alias IF cond [, alias IF cond]...
    STORE rel INTO 'path' [USING Storer]

Keywords are contextual (``group`` is also a valid field name).
:func:`parse` goes through a bounded memo of statement text -> frozen
node, so a script costs the parser only the statements it has not seen.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import List, Optional, Tuple

from repro.exceptions import PigParseError
from repro.pig import ast
from repro.pig.lexer import (
    COMMENT_PATTERN,
    DOLLAR,
    EOF,
    IDENT,
    NUMBER,
    STRING,
    STRING_PATTERN,
    SYMBOL,
    Token,
    tokenize,
)

#: what :func:`parse` cuts a script at: a ``;`` at top level.  Literals
#: and comments are matched, by the lexer's own patterns, to be stepped
#: over; a lone ``'`` or ``/*`` is one that never closes
_CUT = re.compile(rf"{STRING_PATTERN}|{COMMENT_PATTERN}|;|'|/\*", re.DOTALL)
#: statement texts the parse memo holds (a few KB of frozen nodes each)
_MEMO_STATEMENTS = 1024


class Parser:
    """One-pass parser over the token list."""

    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.pos = 0

    # -- token helpers ---------------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        if not offset:
            return self.tokens[self.pos]  # advance() never passes EOF
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != EOF:
            self.pos += 1
        return token

    def at_keyword(self, *words: str) -> bool:
        """Whether the next token is one of *words* (given in lower case)."""
        token = self.tokens[self.pos]
        return token.kind == IDENT and token.text.lower() in words

    def expect_keyword(self, word: str) -> Token:
        token = self.peek()
        if not token.matches_keyword(word):
            raise PigParseError(
                f"expected {word.upper()!r}, found {token.text!r}",
                token.line,
                token.column,
            )
        return self.advance()

    def accept_keyword(self, word: str) -> bool:
        if self.at_keyword(word):
            self.advance()
            return True
        return False

    def expect_symbol(self, symbol: str) -> Token:
        token = self.peek()
        if token.kind != SYMBOL or token.text != symbol:
            raise PigParseError(
                f"expected {symbol!r}, found {token.text!r}",
                token.line,
                token.column,
            )
        return self.advance()

    def accept_symbol(self, symbol: str) -> bool:
        token = self.peek()
        if token.kind == SYMBOL and token.text == symbol:
            self.advance()
            return True
        return False

    def expect_ident(self) -> Token:
        token = self.peek()
        if token.kind != IDENT:
            raise PigParseError(
                f"expected identifier, found {token.text!r}",
                token.line,
                token.column,
            )
        return self.advance()

    def expect_string(self) -> str:
        token = self.peek()
        if token.kind != STRING:
            raise PigParseError(
                f"expected string literal, found {token.text!r}",
                token.line,
                token.column,
            )
        self.advance()
        return token.text

    def expect_number(self) -> Token:
        token = self.peek()
        if token.kind != NUMBER:
            raise PigParseError(
                f"expected number, found {token.text!r}", token.line, token.column
            )
        return self.advance()

    # -- entry point ----------------------------------------------------------------

    def parse_script(self) -> ast.Script:
        script = ast.Script()
        while self.peek().kind != EOF:
            script.statements.append(self.parse_statement())
            self.expect_symbol(";")
        return script

    # -- statements --------------------------------------------------------------------

    def parse_statement(self) -> ast.AstStatement:
        if self.at_keyword("store"):
            return self._parse_store()
        if self.at_keyword("split"):
            return self._parse_split()
        alias = self.expect_ident().text
        self.expect_symbol("=")
        return self._parse_relation_expr(alias)

    def _parse_relation_expr(self, alias: str) -> ast.AstStatement:
        token = self.peek()
        if token.matches_keyword("load"):
            return self._parse_load(alias)
        if token.matches_keyword("foreach"):
            return self._parse_foreach(alias)
        if token.matches_keyword("filter"):
            return self._parse_filter(alias)
        if token.matches_keyword("join"):
            return self._parse_join(alias)
        if token.matches_keyword("group"):
            return self._parse_group(alias, cogroup=False)
        if token.matches_keyword("cogroup"):
            return self._parse_group(alias, cogroup=True)
        if token.matches_keyword("distinct"):
            return self._parse_distinct(alias)
        if token.matches_keyword("union"):
            return self._parse_union(alias)
        if token.matches_keyword("order"):
            return self._parse_order(alias)
        if token.matches_keyword("limit"):
            return self._parse_limit(alias)
        if token.matches_keyword("sample"):
            return self._parse_sample(alias)
        raise PigParseError(
            f"unknown operator {token.text!r}", token.line, token.column
        )

    def _parse_load(self, alias: str) -> ast.LoadStmt:
        self.expect_keyword("load")
        path = self.expect_string()
        loader = "PigStorage"
        if self.accept_keyword("using"):
            loader = self.expect_ident().text
            # accept a no-arg or string-arg constructor call: PigStorage(',')
            if self.accept_symbol("("):
                if self.peek().kind == STRING:
                    self.advance()
                self.expect_symbol(")")
        schema: Tuple[ast.FieldDef, ...] = ()
        # Real Pig requires AS for a schema; the paper's Q1 writes
        # "load 'users' using (name, ...)" — accept both spellings.
        if self.accept_keyword("as") or (
            self.peek().kind == SYMBOL and self.peek().text == "("
        ):
            schema = self._parse_field_defs()
        return ast.LoadStmt(alias, path, schema, loader)

    def _parse_field_defs(self) -> Tuple[ast.FieldDef, ...]:
        self.expect_symbol("(")
        fields: List[ast.FieldDef] = []
        while True:
            name = self.expect_ident().text
            type_name = None
            if self.accept_symbol(":"):
                type_name = self.expect_ident().text
            fields.append(ast.FieldDef(name, type_name))
            if not self.accept_symbol(","):
                break
        self.expect_symbol(")")
        return tuple(fields)

    def _parse_foreach(self, alias: str) -> ast.ForeachStmt:
        self.expect_keyword("foreach")
        input_alias = self.expect_ident().text
        self.expect_keyword("generate")
        items: List[ast.GenItem] = []
        while True:
            items.append(self._parse_gen_item())
            if not self.accept_symbol(","):
                break
        return ast.ForeachStmt(alias, input_alias, tuple(items))

    def _parse_gen_item(self) -> ast.GenItem:
        flatten = False
        if self.at_keyword("flatten"):
            self.advance()
            self.expect_symbol("(")
            expr = self.parse_expression()
            self.expect_symbol(")")
            flatten = True
        else:
            expr = self.parse_expression()
        item_alias = None
        if self.accept_keyword("as"):
            item_alias = self.expect_ident().text
            if self.accept_symbol(":"):
                self.expect_ident()  # type annotation: parsed, not enforced
        return ast.GenItem(expr, item_alias, flatten)

    def _parse_filter(self, alias: str) -> ast.FilterStmt:
        self.expect_keyword("filter")
        input_alias = self.expect_ident().text
        self.expect_keyword("by")
        predicate = self.parse_expression()
        return ast.FilterStmt(alias, input_alias, predicate)

    def _parse_join(self, alias: str) -> ast.JoinStmt:
        self.expect_keyword("join")
        inputs: List[ast.JoinInput] = []
        outer_sides: List[str] = []
        while True:
            rel = self.expect_ident().text
            self.expect_keyword("by")
            keys = self._parse_key_list()
            side = ""
            if self.at_keyword("left", "right", "full"):
                side = self.advance().text.lower()
                self.accept_keyword("outer")
            outer_sides.append(side)
            inputs.append(ast.JoinInput(rel, keys))
            if not self.accept_symbol(","):
                break
        strategy = "shuffle"
        if self.accept_keyword("using"):
            token = self.peek()
            strategy = self.expect_string().lower()
            if strategy not in ("shuffle", "replicated"):
                raise PigParseError(
                    f"unknown join strategy {strategy!r}", token.line, token.column
                )
        parallel = self._parse_parallel()
        # LEFT preserves the first input, RIGHT the second, FULL both.
        resolved: List[ast.JoinInput] = []
        any_side = next((s for s in outer_sides if s), "")
        for index, join_input in enumerate(inputs):
            outer = (
                (any_side == "left" and index == 0)
                or (any_side == "right" and index == 1)
                or any_side == "full"
            )
            resolved.append(
                ast.JoinInput(join_input.alias, join_input.keys, outer)
            )
        return ast.JoinStmt(alias, tuple(resolved), parallel, strategy)

    def _parse_key_list(self) -> Tuple[ast.AstExpr, ...]:
        if self.accept_symbol("("):
            keys: List[ast.AstExpr] = [self.parse_expression()]
            while self.accept_symbol(","):
                keys.append(self.parse_expression())
            self.expect_symbol(")")
            return tuple(keys)
        return (self.parse_expression(),)

    def _parse_group(self, alias: str, cogroup: bool) -> ast.GroupStmt:
        self.expect_keyword("cogroup" if cogroup else "group")
        inputs: List[str] = []
        keys_per_input: List[Tuple[ast.AstExpr, ...]] = []
        group_all = False
        while True:
            rel = self.expect_ident().text
            inputs.append(rel)
            if not cogroup and self.accept_keyword("all"):
                group_all = True
                keys_per_input.append(())
            else:
                self.expect_keyword("by")
                keys_per_input.append(self._parse_key_list())
            if not self.accept_symbol(","):
                break
        parallel = self._parse_parallel()
        return ast.GroupStmt(
            alias, tuple(inputs), tuple(keys_per_input), group_all, parallel
        )

    def _parse_distinct(self, alias: str) -> ast.DistinctStmt:
        self.expect_keyword("distinct")
        input_alias = self.expect_ident().text
        parallel = self._parse_parallel()
        return ast.DistinctStmt(alias, input_alias, parallel)

    def _parse_union(self, alias: str) -> ast.UnionStmt:
        self.expect_keyword("union")
        inputs = [self.expect_ident().text]
        while self.accept_symbol(","):
            inputs.append(self.expect_ident().text)
        if len(inputs) < 2:
            token = self.peek()
            raise PigParseError(
                "UNION needs at least two inputs", token.line, token.column
            )
        return ast.UnionStmt(alias, tuple(inputs))

    def _parse_order(self, alias: str) -> ast.OrderStmt:
        self.expect_keyword("order")
        input_alias = self.expect_ident().text
        self.expect_keyword("by")
        items: List[ast.OrderItem] = []
        while True:
            expr = self.parse_expression()
            ascending = True
            if self.at_keyword("asc"):
                self.advance()
            elif self.at_keyword("desc"):
                self.advance()
                ascending = False
            items.append(ast.OrderItem(expr, ascending))
            if not self.accept_symbol(","):
                break
        parallel = self._parse_parallel()
        return ast.OrderStmt(alias, input_alias, tuple(items), parallel)

    def _parse_limit(self, alias: str) -> ast.LimitStmt:
        self.expect_keyword("limit")
        input_alias = self.expect_ident().text
        n = int(self.expect_number().text)
        return ast.LimitStmt(alias, input_alias, n)

    def _parse_sample(self, alias: str) -> ast.SampleStmt:
        self.expect_keyword("sample")
        input_alias = self.expect_ident().text
        fraction = float(self.expect_number().text)
        token = self.peek()
        if not 0.0 <= fraction <= 1.0:
            raise PigParseError(
                f"sample fraction must be in [0, 1], got {fraction}",
                token.line,
                token.column,
            )
        return ast.SampleStmt(alias, input_alias, fraction)

    def _parse_split(self) -> ast.SplitStmt:
        self.expect_keyword("split")
        input_alias = self.expect_ident().text
        self.expect_keyword("into")
        branches: List[ast.SplitBranch] = []
        while True:
            branch_alias = self.expect_ident().text
            self.expect_keyword("if")
            condition = self.parse_expression()
            branches.append(ast.SplitBranch(branch_alias, condition))
            if not self.accept_symbol(","):
                break
        return ast.SplitStmt(input_alias, tuple(branches))

    def _parse_store(self) -> ast.StoreStmt:
        self.expect_keyword("store")
        input_alias = self.expect_ident().text
        self.expect_keyword("into")
        path = self.expect_string()
        storer = "PigStorage"
        if self.accept_keyword("using"):
            storer = self.expect_ident().text
            if self.accept_symbol("("):
                if self.peek().kind == STRING:
                    self.advance()
                self.expect_symbol(")")
        return ast.StoreStmt(input_alias, path, storer)

    def _parse_parallel(self) -> Optional[int]:
        if self.accept_keyword("parallel"):
            return int(self.expect_number().text)
        return None

    # -- expressions -----------------------------------------------------------------------

    def parse_expression(self) -> ast.AstExpr:
        return self._parse_or()

    def _parse_or(self) -> ast.AstExpr:
        left = self._parse_and()
        while self.at_keyword("or"):
            self.advance()
            left = ast.ABinary("or", left, self._parse_and())
        return left

    def _parse_and(self) -> ast.AstExpr:
        left = self._parse_not()
        while self.at_keyword("and"):
            self.advance()
            left = ast.ABinary("and", left, self._parse_not())
        return left

    def _parse_not(self) -> ast.AstExpr:
        if self.at_keyword("not"):
            self.advance()
            return ast.AUnary("not", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> ast.AstExpr:
        left = self._parse_additive()
        token = self.peek()
        if token.kind == SYMBOL and token.text in ("==", "!=", "<=", ">=", "<", ">"):
            op = self.advance().text
            return ast.ABinary(op, left, self._parse_additive())
        # IS [NOT] NULL
        if token.matches_keyword("is"):
            self.advance()
            negated = self.accept_keyword("not")
            self.expect_keyword("null")
            return ast.AUnary("notnull" if negated else "isnull", left)
        return left

    def _parse_additive(self) -> ast.AstExpr:
        left = self._parse_multiplicative()
        while self.peek().kind == SYMBOL and self.peek().text in ("+", "-"):
            op = self.advance().text
            left = ast.ABinary(op, left, self._parse_multiplicative())
        return left

    def _parse_multiplicative(self) -> ast.AstExpr:
        left = self._parse_unary()
        while self.peek().kind == SYMBOL and self.peek().text in ("*", "/", "%"):
            op = self.advance().text
            left = ast.ABinary(op, left, self._parse_unary())
        return left

    def _parse_unary(self) -> ast.AstExpr:
        if self.peek().kind == SYMBOL and self.peek().text == "-":
            self.advance()
            return ast.AUnary("neg", self._parse_unary())
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.AstExpr:
        expr = self._parse_primary()
        while self.peek().kind == SYMBOL and self.peek().text == ".":
            self.advance()
            token = self.peek()
            if token.kind == IDENT:
                self.advance()
                expr = ast.ADot(expr, token.text)
            elif token.kind == DOLLAR:
                self.advance()
                expr = ast.ADot(expr, token.text)
            elif token.kind == SYMBOL and token.text == "*":
                self.advance()
                expr = ast.ADot(expr, "*")
            else:
                raise PigParseError(
                    "expected field after '.'", token.line, token.column
                )
        return expr

    def _parse_primary(self) -> ast.AstExpr:
        token = self.peek()
        if token.kind == NUMBER:
            self.advance()
            text = token.text
            value = (
                float(text) if ("." in text or "e" in text or "E" in text) else int(text)
            )
            return ast.ANumber(value)
        if token.kind == STRING:
            self.advance()
            return ast.AString(token.text)
        if token.kind == DOLLAR:
            self.advance()
            return ast.ADollar(int(token.text[1:]))
        if token.kind == SYMBOL and token.text == "*":
            self.advance()
            return ast.AStar()
        if token.kind == SYMBOL and token.text == "(":
            self.advance()
            expr = self.parse_expression()
            self.expect_symbol(")")
            return expr
        if token.kind == IDENT:
            # function call or bare name (possibly keyword-shaped: "group")
            if self.peek(1).kind == SYMBOL and self.peek(1).text == "(":
                name = self.advance().text
                self.expect_symbol("(")
                args: List[ast.AstExpr] = []
                if not (self.peek().kind == SYMBOL and self.peek().text == ")"):
                    args.append(self.parse_expression())
                    while self.accept_symbol(","):
                        args.append(self.parse_expression())
                self.expect_symbol(")")
                return ast.ACall(name, tuple(args))
            self.advance()
            name = token.text
            # double-colon qualified names: alias::field
            while self.peek().kind == SYMBOL and self.peek().text == "::":
                self.advance()
                name += "::" + self.expect_ident().text
            return ast.AName(name)
        raise PigParseError(
            f"unexpected token {token.text!r} in expression", token.line, token.column
        )


@lru_cache(maxsize=_MEMO_STATEMENTS)
def _parse_statement(text: str) -> ast.AstStatement:
    """One statement from its own text (no ``;``), memoised: the nodes
    are frozen, so every script containing *text* shares them; a text
    that fails to parse raises and is not kept."""
    parser = Parser(text)
    statement = parser.parse_statement()
    token = parser.peek()
    if token.kind != EOF:
        raise PigParseError("expected ';'", token.line, token.column)
    return statement


def parse(source: str) -> ast.Script:
    """Parse Pig Latin *source* into a :class:`Script`.

    The script is cut at its top-level ``;`` and each statement looked
    up by its text, so a script that repeats earlier statements costs
    what is new in it.  Whatever does not cut cleanly or does not
    parse — text after the last ``;``, an unterminated literal, any
    error — goes through the one whole-script parse, which reports it
    with the script's own line and column.
    """
    script = ast.Script()
    start = 0
    try:
        for match in _CUT.finditer(source):
            found = match[0]
            if found == ";":
                text = source[start : match.start()].strip()
                script.statements.append(_parse_statement(text))
                start = match.end()
            elif found in ("'", "/*"):
                break
        else:
            if not source[start:].strip():
                return script
    except PigParseError:
        pass
    return Parser(source).parse_script()
