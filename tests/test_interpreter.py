"""Integration tests for the job interpreter via end-to-end queries.

Each test runs a Pig script over the micro fixture data and checks the
result rows against independently computed expectations.
"""


from repro.pig.engine import PigServer

PV = "user, action:int, timestamp:int, est_revenue:double, page_info, page_links"
USERS = "name, phone, address, city"


def run(server, source):
    return server.run(source)


class TestMapOnly:
    def test_filter(self, server):
        result = run(server, f"""
            A = load 'data/page_views' as ({PV});
            B = filter A by est_revenue > 2.0;
            C = foreach B generate user, est_revenue;
            store C into 'out';
        """)
        assert sorted(result.outputs["out"]) == [
            ("alice", 2.5), ("bob", 4.0), ("carol", 8.0), ("dave", 3.0),
        ]

    def test_projection_with_arithmetic(self, server):
        result = run(server, f"""
            A = load 'data/page_views' as ({PV});
            B = foreach A generate user, est_revenue * 2;
            C = filter B by user == 'bob';
            store C into 'out';
        """)
        assert result.outputs["out"] == [("bob", 8.0)]

    def test_limit(self, server):
        result = run(server, f"""
            A = load 'data/page_views' as ({PV});
            B = limit A 3;
            C = foreach B generate user;
            store C into 'out';
        """)
        assert len(result.outputs["out"]) == 3

    def test_union(self, server):
        result = run(server, f"""
            A = load 'data/page_views' as ({PV});
            B = foreach A generate user;
            alpha = load 'data/users' as ({USERS});
            beta = foreach alpha generate name;
            C = union B, beta;
            store C into 'out';
        """)
        assert len(result.outputs["out"]) == 10  # 6 views + 4 users


class TestGroupAndAggregate:
    def test_group_sum(self, server):
        result = run(server, f"""
            A = load 'data/page_views' as ({PV});
            B = foreach A generate user, est_revenue;
            D = group B by user;
            E = foreach D generate group, SUM(B.est_revenue);
            store E into 'out';
        """)
        assert sorted(result.outputs["out"]) == [
            ("alice", 4.5), ("bob", 4.0), ("carol", 8.0), ("dave", 3.0),
        ]

    def test_group_count(self, server):
        result = run(server, f"""
            A = load 'data/page_views' as ({PV});
            D = group A by user;
            E = foreach D generate group, COUNT(A);
            store E into 'out';
        """)
        assert sorted(result.outputs["out"]) == [
            ("alice", 3), ("bob", 1), ("carol", 1), ("dave", 1),
        ]

    def test_group_avg_min_max(self, server):
        result = run(server, f"""
            A = load 'data/page_views' as ({PV});
            D = group A by user;
            E = foreach D generate group, AVG(A.est_revenue),
                MIN(A.est_revenue), MAX(A.est_revenue);
            store E into 'out';
        """)
        rows = dict((r[0], r[1:]) for r in result.outputs["out"])
        assert rows["alice"] == (1.5, 0.5, 2.5)

    def test_group_all(self, server):
        result = run(server, f"""
            A = load 'data/page_views' as ({PV});
            C = group A all;
            D = foreach C generate COUNT(A), SUM(A.est_revenue);
            store D into 'out';
        """)
        assert result.outputs["out"] == [(6, 19.5)]

    def test_group_composite_key(self, server):
        result = run(server, f"""
            A = load 'data/page_views' as ({PV});
            D = group A by (user, action);
            E = foreach D generate group, COUNT(A);
            store E into 'out';
        """)
        rows = dict(result.outputs["out"])
        assert rows[("alice", 1)] == 2

    def test_distinct(self, server):
        result = run(server, f"""
            A = load 'data/page_views' as ({PV});
            B = foreach A generate user;
            C = distinct B;
            store C into 'out';
        """)
        assert sorted(result.outputs["out"]) == [
            ("alice",), ("bob",), ("carol",), ("dave",),
        ]


class TestJoins:
    def test_inner_join(self, server):
        result = run(server, f"""
            A = load 'data/page_views' as ({PV});
            B = foreach A generate user, est_revenue;
            alpha = load 'data/users' as ({USERS});
            beta = foreach alpha generate name, city;
            C = join beta by name, B by user;
            D = foreach C generate name, city, est_revenue;
            store D into 'out';
        """)
        rows = sorted(result.outputs["out"])
        # dave views pages but is not in users; erin is a user with no views
        assert all(r[0] != "dave" for r in rows)
        assert all(r[0] != "erin" for r in rows)
        assert ("alice", "waterloo", 1.5) in rows
        assert len(rows) == 5  # 3 alice + 1 bob + 1 carol

    def test_left_outer_join(self, server):
        result = run(server, f"""
            alpha = load 'data/users' as ({USERS});
            beta = foreach alpha generate name;
            A = load 'data/page_views' as ({PV});
            B = foreach A generate user;
            C = join beta by name left outer, B by user;
            store C into 'out';
        """)
        rows = result.outputs["out"]
        erin_rows = [r for r in rows if r[0] == "erin"]
        assert erin_rows == [("erin", None)]

    def test_anti_join_via_outer_and_isnull(self, server):
        result = run(server, f"""
            alpha = load 'data/users' as ({USERS});
            beta = foreach alpha generate name;
            A = load 'data/page_views' as ({PV});
            B = foreach A generate user;
            C = join beta by name left outer, B by user;
            D = filter C by user is null;
            E = foreach D generate name;
            store E into 'out';
        """)
        assert result.outputs["out"] == [("erin",)]

    def test_join_then_group(self, server):
        result = run(server, f"""
            A = load 'data/page_views' as ({PV});
            B = foreach A generate user, est_revenue;
            alpha = load 'data/users' as ({USERS});
            beta = foreach alpha generate name;
            C = join beta by name, B by user;
            D = group C by $0;
            E = foreach D generate group, SUM(C.est_revenue);
            store E into 'out';
        """)
        assert sorted(result.outputs["out"]) == [
            ("alice", 4.5), ("bob", 4.0), ("carol", 8.0),
        ]

    def test_cogroup(self, server):
        result = run(server, f"""
            A = load 'data/page_views' as ({PV});
            B = foreach A generate user, est_revenue;
            alpha = load 'data/users' as ({USERS});
            beta = foreach alpha generate name, city;
            C = cogroup B by user, beta by name;
            D = foreach C generate group, COUNT(B), COUNT(beta);
            store D into 'out';
        """)
        rows = dict((r[0], r[1:]) for r in result.outputs["out"])
        assert rows["alice"] == (3, 1)
        assert rows["dave"] == (1, 0)   # viewer, not a user
        assert rows["erin"] == (0, 1)   # user, not a viewer


class TestOrderBy:
    def test_order_ascending(self, server):
        result = run(server, f"""
            A = load 'data/page_views' as ({PV});
            B = foreach A generate user, est_revenue;
            C = order B by est_revenue;
            store C into 'out';
        """)
        revenues = [r[1] for r in result.outputs["out"]]
        assert revenues == sorted(revenues)

    def test_order_descending_numeric(self, server):
        result = run(server, f"""
            A = load 'data/page_views' as ({PV});
            B = foreach A generate user, est_revenue;
            C = order B by est_revenue desc;
            store C into 'out';
        """)
        revenues = [r[1] for r in result.outputs["out"]]
        assert revenues == sorted(revenues, reverse=True)


class TestSplitStatement:
    def test_split_branches(self, server):
        result = run(server, f"""
            A = load 'data/page_views' as ({PV});
            split A into HI if est_revenue > 2.0, LO if est_revenue <= 2.0;
            B = foreach HI generate user;
            C = foreach LO generate user;
            store B into 'hi';
            store C into 'lo';
        """)
        assert len(result.outputs["hi"]) == 4
        assert len(result.outputs["lo"]) == 2


class TestStats:
    def test_job_stats_collected(self, server):
        result = run(server, f"""
            A = load 'data/page_views' as ({PV});
            D = group A by user;
            E = foreach D generate group, COUNT(A);
            store E into 'out';
        """)
        stats = list(result.stats.job_stats.values())[0]
        assert stats.input_records == 6
        assert stats.reduce_groups == 4
        assert stats.shuffle_records == 6
        assert stats.input_bytes > 0
        assert stats.output_bytes > 0
        assert stats.sim is not None
        assert stats.sim.total > 0

    def test_temp_cleanup(self, small_data):
        server = PigServer(small_data)
        result = run(server, f"""
            A = load 'data/page_views' as ({PV});
            B = foreach A generate user, est_revenue;
            alpha = load 'data/users' as ({USERS});
            beta = foreach alpha generate name;
            C = join beta by name, B by user;
            D = group C by $0;
            E = foreach D generate group, SUM(C.est_revenue);
            store E into 'out';
        """)
        temps = [j.output_path for j in result.workflow.jobs if j.temporary]
        assert temps
        for path in temps:
            assert not small_data.exists(path)  # stock Pig deletes temps
