"""Test for the selector ablation harness."""

from repro.experiments.ablations import run_selector_ablation
from repro.pigmix.datagen import PigMixConfig

CFG = PigMixConfig(n_page_views=120, n_users=20, n_power_users=5, n_widerow=40)


class TestAblationHarnesses:
    def test_selector_ablation_rules_drop_the_wasteful_output(self):
        result = run_selector_ablation(pigmix_config=CFG, queries=("wasteful",))
        row = result.rows[0]
        assert row["stored_MB_rules"] < row["stored_MB_keep_all"] / 100
