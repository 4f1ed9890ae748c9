"""Tests for the command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture
def script_and_data(tmp_path):
    data = tmp_path / "views.tsv"
    data.write_text(
        "alice\t1\t100\t1.5\ti\tl\n"
        "bob\t2\t101\t4.0\ti\tl\n"
        "alice\t1\t102\t2.5\ti\tl\n"
    )
    script = tmp_path / "query.pig"
    script.write_text("""
        A = load 'pv' as (user, action:int, timestamp:int,
            est_revenue:double, page_info, page_links);
        D = group A by user;
        E = foreach D generate group, SUM(A.est_revenue);
        store E into 'out';
    """)
    return script, data


class TestRun:
    def test_run_prints_rows(self, script_and_data, capsys):
        script, data = script_and_data
        code = main(["run", str(script), "--data", f"{data}=pv"])
        assert code == 0
        out = capsys.readouterr().out
        assert "alice\t4.0" in out
        assert "bob\t4.0" in out
        assert "simulated time" in out
        assert "repository:" in out

    def test_run_without_restore(self, script_and_data, capsys):
        script, data = script_and_data
        code = main(
            ["run", str(script), "--data", f"{data}=pv", "--no-restore"]
        )
        assert code == 0
        assert "repository:" not in capsys.readouterr().out

    def test_max_rows_truncation(self, script_and_data, capsys):
        script, data = script_and_data
        main(["run", str(script), "--data", f"{data}=pv", "--max-rows", "1"])
        assert "more rows" in capsys.readouterr().out

    def test_bad_data_mapping(self, script_and_data):
        script, _ = script_and_data
        with pytest.raises(SystemExit):
            main(["run", str(script), "--data", "no-equals-sign"])


class TestExplain:
    def test_explain_prints_workflow(self, script_and_data, capsys):
        script, data = script_and_data
        code = main(["explain", str(script), "--data", f"{data}=pv"])
        assert code == 0
        out = capsys.readouterr().out
        assert "MapReduce job(s)" in out
        assert "package group" in out


class TestPluginFlags:
    def test_heuristic_and_selector_flags(self, script_and_data, capsys):
        script, data = script_and_data
        code = main([
            "run", str(script), "--data", f"{data}=pv",
            "--heuristic", "conservative", "--selector", "rules",
        ])
        assert code == 0
        assert "repository:" in capsys.readouterr().out

    def test_evict_flag(self, script_and_data, capsys):
        script, data = script_and_data
        code = main([
            "run", str(script), "--data", f"{data}=pv",
            "--evict", "time-window:2", "--evict", "input-modified",
        ])
        assert code == 0

    def test_unknown_heuristic_lists_valid_names(self, script_and_data, capsys):
        script, data = script_and_data
        code = main([
            "run", str(script), "--data", f"{data}=pv",
            "--heuristic", "bogus",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown heuristic 'bogus'" in err
        assert "aggressive" in err and "conservative" in err

    def test_unknown_selector_lists_valid_names(self, script_and_data, capsys):
        script, data = script_and_data
        code = main([
            "run", str(script), "--data", f"{data}=pv",
            "--selector", "bogus",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown selector 'bogus'" in err
        assert "keep-all" in err and "rules" in err

    def test_unknown_eviction_lists_valid_names(self, script_and_data, capsys):
        script, data = script_and_data
        code = main([
            "explain", str(script), "--data", f"{data}=pv",
            "--evict", "bogus:3",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown eviction policy 'bogus'" in err
        assert "time-window" in err and "capacity" in err


class TestExperiments:
    def test_list(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        assert "fig10" in out
        assert "ablation-selector" in out

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "fig99"]) == 2

    def test_table2_runs(self, capsys):
        assert main(["experiment", "table2", "--rows", "100"]) == 0
        assert "field6" in capsys.readouterr().out

    def test_fig09_tiny(self, capsys):
        assert main(["experiment", "fig09", "--rows", "80"]) == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out
        assert "paper:" in out


class TestPersistenceFlags:
    def test_second_invocation_starts_warm(self, script_and_data, capsys):
        script, data = script_and_data
        snap = script.parent / "state" / "repo.snapshot"
        args = [
            "run", str(script), "--data", f"{data}=pv",
            "--snapshot", str(snap),
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "repository:" in first
        assert snap.exists()
        assert (script.parent / "state" / "repo.snapshot.journal").exists()

        # a brand-new process would see exactly these files; the second
        # invocation recovers the repository and reuses the stored job
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "ReStore rewrites:" in second
        assert "already stored" in second  # whole job eliminated
        assert "0 job(s) executed" in second
        assert "alice\t4.0" in second  # same answer, from stored bytes

    def test_journal_flag_alone_derives_snapshot_path(
        self, script_and_data, capsys
    ):
        script, data = script_and_data
        journal = script.parent / "repo.journal"
        args = [
            "run", str(script), "--data", f"{data}=pv",
            "--journal", str(journal),
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert journal.exists()
        assert main(args) == 0
        assert "already stored" in capsys.readouterr().out

    def test_snapshot_requires_restore(self, script_and_data, tmp_path):
        script, data = script_and_data
        with pytest.raises(SystemExit):
            main([
                "run", str(script), "--data", f"{data}=pv", "--no-restore",
                "--snapshot", str(tmp_path / "s"),
            ])
