"""Shape tests for the paper-experiment harnesses (tiny configs).

These assert the *qualitative* claims of §7 — who wins, in which
direction the trends go — on small generated instances, which is
exactly what the reproduction promises.
"""

import pytest

from repro.experiments import (
    fig09,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
    fig16,
    fig17,
    table1,
    table2,
)
from repro.experiments.common import arithmetic_mean
from repro.pigmix.datagen import PigMixConfig
from repro.pigmix.synthetic import SyntheticConfig

CFG = PigMixConfig(
    n_page_views=150, n_users=24, n_power_users=6, n_widerow=50, seed=5
)
SYNTH = SyntheticConfig(n_rows=600, seed=5)

QUICK = ["L2", "L3"]


class TestFig09:
    @pytest.fixture(scope="class")
    def result(self):
        return fig09.run(pigmix_config=CFG, queries=["L3", "L3a", "L11", "L11b"])

    def test_every_variant_speeds_up(self, result):
        for row in result.rows:
            if row["query"] == "AVG":
                continue
            assert row["speedup"] > 2.0, row

    def test_average_order_of_magnitude(self, result):
        avg = [r for r in result.rows if r["query"] == "AVG"][0]["speedup"]
        assert 3.0 < avg < 80.0  # paper: 9.8

    def test_reuse_time_nonzero(self, result):
        """Whole-job reuse still pays job startup (Fig 9 bars are not 0)."""
        for row in result.rows:
            if row["query"] == "AVG":
                continue
            assert row["reusing_jobs_min"] > 0


class TestFig10:
    @pytest.fixture(scope="class")
    def result(self):
        return fig10.run(pigmix_config=CFG)

    def test_reuse_always_beats_no_reuse(self, result):
        for row in result.rows:
            if row["query"] == "AVG":
                continue
            assert row["speedup"] > 1.0, row

    def test_generating_always_costs(self, result):
        for row in result.rows:
            if row["query"] == "AVG":
                continue
            assert row["overhead"] > 1.0, row

    def test_average_bands(self, result):
        avg = [r for r in result.rows if r["query"] == "AVG"][0]
        assert 3.0 < avg["speedup"] < 80.0  # paper: 24.4
        assert 1.0 < avg["overhead"] < 3.5  # paper: 1.6


class TestFig11And12:
    @pytest.fixture(scope="class")
    def overhead(self):
        return fig11.run(pigmix_config=CFG, queries=QUICK)

    @pytest.fixture(scope="class")
    def speedup(self):
        return fig12.run(pigmix_config=CFG, queries=QUICK)

    def test_overhead_higher_at_small_scale(self, overhead):
        avg = [r for r in overhead.rows if r["query"] == "AVG"][0]
        assert avg["overhead_15GB"] > avg["overhead_150GB"]

    def test_speedup_higher_at_large_scale(self, speedup):
        avg = [r for r in speedup.rows if r["query"] == "AVG"][0]
        assert avg["speedup_150GB"] > avg["speedup_15GB"]

    def test_per_query_direction(self, overhead):
        for row in overhead.rows:
            if row["query"] == "AVG":
                continue
            assert row["overhead_15GB"] > row["overhead_150GB"], row


class TestFig13And14:
    @pytest.fixture(scope="class")
    def reuse(self):
        return fig13.run(pigmix_config=CFG, queries=["L3", "L6"])

    @pytest.fixture(scope="class")
    def store(self):
        return fig14.run(pigmix_config=CFG, queries=["L3", "L6"])

    def test_ha_at_least_as_good_as_hc(self, reuse):
        # small tolerance: at tiny generated sizes, loading a stored
        # bag-serialized Group output from one map task can cost a few
        # seconds more than HC's recompute-from-projection path
        for row in reuse.rows:
            assert row["reuse_HA_min"] <= row["reuse_HC_min"] * 1.15, row

    def test_ha_clearly_beats_hc_on_group_heavy_query(self, reuse):
        l6 = [r for r in reuse.rows if r["query"] == "L6"][0]
        assert l6["reuse_HA_min"] < l6["reuse_HC_min"]

    def test_ha_close_to_nh(self, reuse):
        for row in reuse.rows:
            assert row["reuse_HA_min"] <= row["reuse_NH_min"] * 1.25, row
            assert row["reuse_HA_min"] < row["no_reuse_min"], row

    def test_nh_store_time_worst(self, store):
        for row in store.rows:
            assert row["store_NH_min"] >= row["store_HA_min"] - 1e-9, row
            assert row["store_NH_min"] >= row["store_HC_min"] - 1e-9, row

    def test_hc_store_cheapest(self, store):
        for row in store.rows:
            assert row["store_HC_min"] <= row["store_HA_min"] + 1e-9, row
        l6 = [r for r in store.rows if r["query"] == "L6"][0]
        assert l6["store_HA_min"] > l6["store_HC_min"] * 1.1


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self):
        return table1.run(pigmix_config=CFG, queries=["L2", "L3", "L6"])

    def test_hc_at_most_ha_at_most_nh(self, result):
        for row in result.rows:
            assert row["HC_GB"] <= row["HA_GB"] + 1e-9, row
            assert row["HA_GB"] <= row["NH_GB"] + 1e-9, row

    def test_stored_bytes_much_smaller_than_input(self, result):
        for row in result.rows:
            assert row["HA_GB"] < row["input_GB"] * 0.5, row

    def test_l6_ha_exceeds_hc(self, result):
        l6 = [r for r in result.rows if r["query"] == "L6"][0]
        assert l6["HA_GB"] > l6["HC_GB"] * 1.5


class TestFig15:
    @pytest.fixture(scope="class")
    def result(self):
        return fig15.run(pigmix_config=CFG, queries=["L3", "L11"])

    def test_all_reuse_modes_beat_no_reuse(self, result):
        for row in result.rows:
            for column in ("subjob_HC_min", "subjob_HA_min", "whole_job_min"):
                assert row[column] < row["no_reuse_min"], (row, column)

    def test_ha_close_to_whole_job(self, result):
        """The paper's key Fig 15 observation."""
        for row in result.rows:
            assert row["subjob_HA_min"] <= row["whole_job_min"] * 3.0, row


class TestTable2:
    def test_selectivities_match_paper(self):
        result = table2.run(SyntheticConfig(n_rows=2000, seed=5))
        for row in result.rows:
            assert row["measured_selected_pct"] == pytest.approx(
                row["paper_selected_pct"], rel=0.5, abs=1.0
            ), row


class TestFig16And17:
    @pytest.fixture(scope="class")
    def projection(self):
        return fig16.run(SYNTH)

    @pytest.fixture(scope="class")
    def filtering(self):
        return fig17.run(SYNTH)

    def test_projection_overhead_rises_with_kept_data(self, projection):
        overheads = [r["overhead"] for r in projection.rows]
        assert overheads[-1] > overheads[0]

    def test_projection_speedup_falls_with_kept_data(self, projection):
        speedups = [r["speedup"] for r in projection.rows]
        assert speedups[0] > speedups[-1]

    def test_projection_percentages_increase(self, projection):
        pcts = [r["projected_pct"] for r in projection.rows]
        assert pcts == sorted(pcts)
        assert 10 < pcts[0] < 30      # paper: ~18% at one field
        assert 55 < pcts[-1] < 90     # paper: ~74% at five fields

    def test_filter_speedup_falls_as_more_kept(self, filtering):
        first = filtering.rows[0]["speedup"]   # 0.5% kept
        last = filtering.rows[-1]["speedup"]   # 60% kept
        assert first > last

    def test_filter_overhead_rises_as_more_kept(self, filtering):
        first = filtering.rows[0]["overhead"]
        last = filtering.rows[-1]["overhead"]
        assert last > first

    def test_reuse_beneficial_at_high_reduction(self, filtering):
        assert filtering.rows[0]["speedup"] > 1.5


class TestFormatting:
    def test_format_table_renders(self):
        result = table2.run(SyntheticConfig(n_rows=200, seed=5))
        text = result.format_table()
        assert "Table 2" in text
        assert "field6" in text
        assert "paper:" in text

    def test_mean_helpers(self):
        assert arithmetic_mean([1.0, 3.0]) == 2.0
        assert arithmetic_mean([None, 4.0]) == 4.0
        assert arithmetic_mean([]) == 0.0
