"""Unit tests for the Pig Latin parser."""

import pytest

from repro.exceptions import PigParseError
from repro.pig import ast
from repro.pig.parser import parse


def only(statements_source):
    script = parse(statements_source)
    assert len(script.statements) == 1
    return script.statements[0]


class TestLoad:
    def test_simple(self):
        stmt = only("A = load 'data';")
        assert isinstance(stmt, ast.LoadStmt)
        assert stmt.alias == "A"
        assert stmt.path == "data"
        assert stmt.schema == ()

    def test_with_schema(self):
        stmt = only("A = load 'd' as (user, n:int, rev:double);")
        assert [f.name for f in stmt.schema] == ["user", "n", "rev"]
        assert stmt.schema[1].type_name == "int"

    def test_with_using(self):
        stmt = only("A = load 'd' using PigStorage;")
        assert stmt.loader == "PigStorage"

    def test_using_with_delimiter_arg(self):
        stmt = only("A = load 'd' using PigStorage(',') as (a, b);")
        assert len(stmt.schema) == 2

    def test_paper_spelling_without_as(self):
        # the paper's Q1 writes: load 'users' using (name, phone, ...)
        stmt = only("alpha = load 'users' (name, phone);")
        assert [f.name for f in stmt.schema] == ["name", "phone"]


class TestForeach:
    def test_simple_projection(self):
        stmt = only("B = foreach A generate user, est_revenue;")
        assert isinstance(stmt, ast.ForeachStmt)
        assert len(stmt.items) == 2
        assert stmt.items[0].expr == ast.AName("user")

    def test_with_alias(self):
        stmt = only("B = foreach A generate user as u;")
        assert stmt.items[0].alias == "u"

    def test_flatten(self):
        stmt = only("B = foreach A generate flatten(grp);")
        assert stmt.items[0].flatten is True

    def test_aggregate_call(self):
        stmt = only("E = foreach D generate group, SUM(C.est_revenue);")
        call = stmt.items[1].expr
        assert isinstance(call, ast.ACall)
        assert call.name == "SUM"
        assert isinstance(call.args[0], ast.ADot)

    def test_star(self):
        stmt = only("B = foreach A generate *;")
        assert isinstance(stmt.items[0].expr, ast.AStar)

    def test_dollar_refs(self):
        stmt = only("B = foreach A generate $0, $2;")
        assert stmt.items[0].expr == ast.ADollar(0)
        assert stmt.items[1].expr == ast.ADollar(2)

    def test_arithmetic(self):
        stmt = only("B = foreach A generate rev * 2 + 1;")
        expr = stmt.items[0].expr
        assert isinstance(expr, ast.ABinary)
        assert expr.op == "+"
        assert expr.left.op == "*"  # precedence


class TestFilter:
    def test_comparison(self):
        stmt = only("B = filter A by n > 5;")
        assert isinstance(stmt, ast.FilterStmt)
        assert stmt.predicate.op == ">"

    def test_boolean_logic(self):
        stmt = only("B = filter A by a == 1 and not b == 2 or c == 3;")
        assert stmt.predicate.op == "or"

    def test_is_null(self):
        stmt = only("B = filter A by user is null;")
        assert stmt.predicate.op == "isnull"

    def test_is_not_null(self):
        stmt = only("B = filter A by user is not null;")
        assert stmt.predicate.op == "notnull"

    def test_string_comparison(self):
        stmt = only("B = filter A by city == 'waterloo';")
        assert stmt.predicate.right == ast.AString("waterloo")


class TestJoin:
    def test_two_way(self):
        stmt = only("C = join beta by name, B by user;")
        assert isinstance(stmt, ast.JoinStmt)
        assert [j.alias for j in stmt.inputs] == ["beta", "B"]
        assert all(not j.outer for j in stmt.inputs)

    def test_left_outer(self):
        stmt = only("C = join a by x left outer, b by y;")
        assert stmt.inputs[0].outer is True
        assert stmt.inputs[1].outer is False

    def test_right_outer(self):
        stmt = only("C = join a by x right, b by y;")
        assert stmt.inputs[0].outer is False
        assert stmt.inputs[1].outer is True

    def test_full_outer(self):
        stmt = only("C = join a by x full outer, b by y;")
        assert all(j.outer for j in stmt.inputs)

    def test_composite_keys(self):
        stmt = only("C = join a by (x, y), b by (u, v);")
        assert len(stmt.inputs[0].keys) == 2

    def test_parallel(self):
        # accepted and dropped: every job asks for JobConf's reducers
        stmt = only("C = join a by x, b by y parallel 40;")
        assert stmt == only("C = join a by x, b by y;")


class TestGroupCogroup:
    def test_group_by(self):
        stmt = only("D = group C by user;")
        assert isinstance(stmt, ast.GroupStmt)
        assert stmt.inputs == ("C",)
        assert not stmt.group_all

    def test_group_by_dollar(self):
        stmt = only("D = group C by $0;")
        assert stmt.keys_per_input[0][0] == ast.ADollar(0)

    def test_group_all(self):
        stmt = only("D = group C all;")
        assert stmt.group_all

    def test_group_composite(self):
        stmt = only("D = group C by (a, b);")
        assert len(stmt.keys_per_input[0]) == 2

    def test_cogroup(self):
        stmt = only("D = cogroup A by x, B by y;")
        assert stmt.inputs == ("A", "B")


class TestOtherStatements:
    def test_distinct(self):
        stmt = only("B = distinct A;")
        assert isinstance(stmt, ast.DistinctStmt)

    def test_union(self):
        stmt = only("C = union A, B;")
        assert stmt.inputs == ("A", "B")

    def test_union_three_way(self):
        stmt = only("D = union A, B, C;")
        assert stmt.inputs == ("A", "B", "C")

    def test_order(self):
        stmt = only("B = order A by x desc, y;")
        assert stmt.items[0].ascending is False
        assert stmt.items[1].ascending is True

    def test_limit(self):
        stmt = only("B = limit A 10;")
        assert stmt.n == 10

    def test_split(self):
        stmt = only("split A into B if x > 1, C if x <= 1;")
        assert isinstance(stmt, ast.SplitStmt)
        assert [b.alias for b in stmt.branches] == ["B", "C"]

    def test_store(self):
        stmt = only("store C into 'out';")
        assert isinstance(stmt, ast.StoreStmt)
        assert stmt.path == "out"

    def test_group_as_field_name(self):
        """'group' must parse as a field reference inside GENERATE."""
        stmt = only("E = foreach D generate group, COUNT(C);")
        assert stmt.items[0].expr == ast.AName("group")


class TestScripts:
    def test_paper_q2(self):
        script = parse("""
            A = load 'page_views' as (user, timestamp, est_revenue,
                page_info, page_links);
            B = foreach A generate user, est_revenue;
            alpha = load 'users' as (name, phone, address, city);
            beta = foreach alpha generate name;
            C = join beta by name, A by user;
            D = group C by $0;
            E = foreach D generate group, SUM(C.est_revenue);
            store E into 'L3_out';
        """)
        assert len(script.statements) == 8
        assert len(script.stores()) == 1

    def test_multiple_stores(self):
        script = parse("""
            A = load 'x';
            store A into 'o1';
            store A into 'o2';
        """)
        assert len(script.stores()) == 2


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "A = load;",
            "A = frobnicate B;",
            "A = load 'x'",  # missing semicolon
            "store into 'x';",
            "B = foreach A generate ;",
            "C = join a by;",
            "B = filter A by;",
            "= load 'x';",
        ],
    )
    def test_rejected(self, bad):
        with pytest.raises(PigParseError):
            parse(bad)

    def test_union_single_input(self):
        with pytest.raises(PigParseError):
            parse("C = union A;")
