"""Tests for the workload-stream generator and ablation harnesses."""

import pytest

from repro.experiments.ablations import (
    run_optimizer_ablation,
    run_selector_ablation,
    run_workload_stream,
)
from repro.pig.engine import PigServer
from repro.pigmix.datagen import PigMixConfig, PigMixDataGenerator
from repro.workloads.generator import WorkloadConfig, WorkloadGenerator

CFG = PigMixConfig(n_page_views=120, n_users=20, n_power_users=5, n_widerow=40)


class TestWorkloadGenerator:
    @pytest.fixture
    def dataset(self, pigmix_dfs):
        return PigMixDataGenerator(CFG).generate(pigmix_dfs)

    def test_deterministic(self, dataset):
        a = WorkloadGenerator(dataset, WorkloadConfig(seed=9)).generate()
        b = WorkloadGenerator(dataset, WorkloadConfig(seed=9)).generate()
        assert [q.source for q in a] == [q.source for q in b]

    def test_seed_changes_stream(self, dataset):
        a = WorkloadGenerator(dataset, WorkloadConfig(seed=1)).generate()
        b = WorkloadGenerator(dataset, WorkloadConfig(seed=2)).generate()
        assert [q.source for q in a] != [q.source for q in b]

    def test_query_count(self, dataset):
        queries = WorkloadGenerator(
            dataset, WorkloadConfig(n_queries=7)
        ).generate()
        assert len(queries) == 7

    def test_unique_output_paths(self, dataset):
        queries = WorkloadGenerator(dataset, WorkloadConfig()).generate()
        outs = [q.name for q in queries]
        assert len(outs) == len(set(outs))

    def test_queries_actually_run(self, pigmix_dfs, dataset):
        server = PigServer(pigmix_dfs)
        for query in WorkloadGenerator(
            dataset, WorkloadConfig(n_queries=3)
        ).generate():
            result = server.run(query.source, name=query.name)
            assert result.outputs

    def test_high_repeat_probability_yields_overlap(self, dataset):
        queries = WorkloadGenerator(
            dataset,
            WorkloadConfig(n_queries=10, repeat_probability=1.0, seed=4),
        ).generate()
        # with p=1 every query after the first uses the same parameter
        actions = {q.name.rsplit("_a", 1)[1] for q in queries}
        assert len(actions) == 1


class TestAblationHarnesses:
    def test_selector_ablation_rules_drop_the_wasteful_output(self):
        result = run_selector_ablation(pigmix_config=CFG, queries=("wasteful",))
        row = result.rows[0]
        assert row["stored_MB_rules"] < row["stored_MB_keep_all"] / 100

    def test_optimizer_ablation_shows_canonicalization(self):
        result = run_optimizer_ablation(pigmix_config=CFG)
        by_mode = {r["mode"]: r for r in result.rows}
        assert by_mode["optimized"]["rewrites_on_spelling_b"] > 0
        assert by_mode["unoptimized"]["rewrites_on_spelling_b"] == 0
        assert (
            by_mode["optimized"]["spelling_b_min"]
            < by_mode["unoptimized"]["spelling_b_min"]
        )

    def test_workload_stream_restore_wins_cumulatively(self):
        result = run_workload_stream(
            pigmix_config=CFG,
            workload_config=WorkloadConfig(n_queries=6, seed=3),
        )
        total = [r for r in result.rows if r["query"] == "TOTAL"][0]
        assert total["cum_restore_min"] < total["cum_plain_min"]

    def test_workload_stream_per_query_rows(self):
        result = run_workload_stream(
            pigmix_config=CFG,
            workload_config=WorkloadConfig(n_queries=4, seed=3),
        )
        assert len(result.rows) == 5  # 4 queries + TOTAL
