"""Edge-case integration tests for the engine and reuse machinery."""


from repro.core.manager import ReStoreManager
from repro.dfs.filesystem import DistributedFileSystem
from repro.events import LOG_EVENTS, render_events
from repro.pig.engine import PigServer


def engine(rows, schema="u, n:int, v:double", path="d"):
    dfs = DistributedFileSystem()
    dfs.write_file(path, "".join(r + "\n" for r in rows))
    return dfs, PigServer(dfs), schema


class TestEmptyAndNullData:
    def test_empty_input_file(self):
        dfs, server, schema = engine([])
        result = server.run(f"""
            A = load 'd' as ({schema});
            B = filter A by n > 0;
            store B into 'out';
        """)
        assert result.outputs["out"] == []

    def test_empty_group_result(self):
        dfs, server, schema = engine(["a\t1\t2.0"])
        result = server.run(f"""
            A = load 'd' as ({schema});
            B = filter A by n > 99;
            D = group B by u;
            E = foreach D generate group, COUNT(B);
            store E into 'out';
        """)
        assert result.outputs["out"] == []

    def test_null_fields_flow_through(self):
        dfs, server, schema = engine(["a\t\t", "b\t2\t3.5"])
        result = server.run(f"""
            A = load 'd' as ({schema});
            B = foreach A generate u, n;
            store B into 'out';
        """)
        assert sorted(result.outputs["out"], key=repr) == sorted(
            [("a", None), ("b", 2)], key=repr
        )

    def test_null_join_keys_do_not_match(self):
        """SQL semantics: null keys join with nothing."""
        dfs = DistributedFileSystem()
        dfs.write_file("l", "\t1\nx\t2\n")   # first row has null key
        dfs.write_file("r", "\t10\nx\t20\n")
        server = PigServer(dfs)
        result = server.run("""
            A = load 'l' as (k, a:int);
            B = load 'r' as (k2, b:int);
            C = join A by k, B by k2;
            store C into 'out';
        """)
        # nulls sort together in our shuffle, which would pair them —
        # but Pig drops null keys from inner joins.  Verify:
        rows = result.outputs["out"]
        assert all(r[0] is not None for r in rows)

    def test_null_key_preserved_side_of_outer_join(self):
        """A null-keyed row on the preserved side of an outer join
        survives, padded with nulls (it matches nothing)."""
        dfs = DistributedFileSystem()
        dfs.write_file("l", "\t1\nx\t2\n")
        dfs.write_file("r", "x\t20\n")
        server = PigServer(dfs)
        result = server.run("""
            A = load 'l' as (k, a:int);
            B = load 'r' as (k2, b:int);
            C = join A by k left outer, B by k2;
            store C into 'out';
        """)
        rows = sorted(result.outputs["out"], key=repr)
        assert (None, 1, None, None) in rows     # preserved, unmatched
        assert ("x", 2, "x", 20) in rows

    def test_filter_on_null_is_dropped(self):
        dfs, server, schema = engine(["a\t\t1.0", "b\t2\t2.0"])
        result = server.run(f"""
            A = load 'd' as ({schema});
            B = filter A by n > 0;
            store B into 'out';
        """)
        assert result.outputs["out"] == [("b", 2, 2.0)]


class TestScaleAndBlocks:
    def test_multi_segment_input(self):
        rows = [f"user{i:03d}\t{i}\t{i * 0.5}" for i in range(200)]
        dfs, server, schema = engine(rows[:120])
        dfs.append("d", "".join(r + "\n" for r in rows[120:]))
        assert len(dfs.namenode.lookup("d").segments) == 2
        result = server.run(f"""
            A = load 'd' as ({schema});
            D = group A by u;
            E = foreach D generate group, COUNT(A);
            store E into 'out';
        """)
        assert len(result.outputs["out"]) == 200

    def test_deep_workflow_chain(self):
        rows = [f"u{i % 3}\t{i}\t{float(i)}" for i in range(30)]
        dfs, server, schema = engine(rows)
        result = server.run(f"""
            A = load 'd' as ({schema});
            B = group A by u;
            C = foreach B generate group, SUM(A.v) as total;
            D = group C by total;
            E = foreach D generate group, COUNT(C);
            F = distinct E;
            G = order F by $0;
            store G into 'out';
        """)
        # 3 shuffles after the first group -> 4 jobs
        assert len(result.workflow.jobs) == 4
        assert len(result.outputs["out"]) > 0

    def test_limit_through_shuffle(self):
        rows = [f"u{i}\t{i}\t1.0" for i in range(20)]
        dfs, server, schema = engine(rows)
        result = server.run(f"""
            A = load 'd' as ({schema});
            D = group A by u;
            E = foreach D generate group, COUNT(A);
            F = limit E 5;
            store F into 'out';
        """)
        assert len(result.outputs["out"]) == 5


class TestReuseEdgeCases:
    def test_empty_stored_output_reused(self):
        """An empty sub-job output is still a correct reuse source."""
        rows = ["a\t1\t1.0"]
        dfs, server0, schema = engine(rows)
        manager = ReStoreManager(dfs)
        server = PigServer(dfs, restore=manager)
        query = f"""
            A = load 'd' as ({schema});
            B = filter A by n > 100;
            D = group B by u;
            E = foreach D generate group, COUNT(B);
            store E into 'OUT';
        """
        first = server.run(query.replace("OUT", "e1"))
        second = server.run(query.replace("OUT", "e2"))
        assert first.outputs["e1"] == []
        assert second.outputs["e2"] == []

    def test_three_statement_chain_rewrites_transitively(self):
        """Chained partial rewrites: filter entry then filter+project
        entry apply in sequence across repository scans."""
        rows = [f"u{i % 4}\t{i}\t{float(i)}" for i in range(24)]
        dfs, _, schema = engine(rows)
        manager = ReStoreManager(dfs)
        server = PigServer(dfs, restore=manager)
        base = f"""
            A = load 'd' as ({schema});
            B = filter A by n > 2;
            C = foreach B generate u, v;
        """
        server.run(base + "D = group C by u; E = foreach D generate group, SUM(C.v); store E into 'o1';")
        result = server.run(
            base + "D = group C by u; E = foreach D generate group, AVG(C.v); store E into 'o2';"
        )
        # reused at least the group sub-job
        assert render_events(result.events, LOG_EVENTS)
        fresh = PigServer(dfs).run(
            base + "D = group C by u; E = foreach D generate group, AVG(C.v); store E into 'o3';"
        )
        assert sorted(result.outputs["o2"]) == sorted(fresh.outputs["o3"])

    def test_differing_constants_do_not_match(self):
        rows = [f"u{i % 4}\t{i}\t{float(i)}" for i in range(12)]
        dfs, _, schema = engine(rows)
        manager = ReStoreManager(dfs)
        server = PigServer(dfs, restore=manager)
        server.run(f"""
            A = load 'd' as ({schema});
            B = filter A by n > 2;
            store B into 'f1';
        """)
        result = server.run(f"""
            A = load 'd' as ({schema});
            B = filter A by n > 3;
            store B into 'f2';
        """)
        reuse_events = [
            line
            for line in render_events(result.events, LOG_EVENTS)
            if "reused" in line or "whole job" in line
        ]
        assert not reuse_events  # different predicate: no reuse
        fresh = [r for r in result.outputs["f2"]]
        assert all(r[1] > 3 for r in fresh)

    def test_schema_width_mismatch_no_match(self):
        """Same path loaded with different declared schemas must not
        cross-match (Load signatures include the field layout)."""
        rows = [f"u{i}\t{i}\t{float(i)}" for i in range(6)]
        dfs, _, _ = engine(rows)
        manager = ReStoreManager(dfs)
        server = PigServer(dfs, restore=manager)
        server.run("""
            A = load 'd' as (u, n:int, v:double);
            B = foreach A generate u;
            C = distinct B;
            store C into 's1';
        """)
        result = server.run("""
            A = load 'd' as (u, n:int);
            B = foreach A generate u;
            C = distinct B;
            store C into 's2';
        """)
        reuse_events = [
            line
            for line in render_events(result.events, LOG_EVENTS)
            if "reused" in line or "whole job" in line
        ]
        assert not reuse_events
