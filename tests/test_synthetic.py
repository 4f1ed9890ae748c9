"""Tests for the §7.5 synthetic workload (Table 2, QP, QF)."""

import pytest

from repro.dfs.filesystem import DistributedFileSystem
from repro.pig.engine import PigServer
from repro.pigmix.synthetic import (
    FIELD_NAMES,
    TABLE2_FIELDS,
    SyntheticConfig,
    SyntheticDataGenerator,
    expected_selectivity,
    qf_query,
    qp_query,
)

CONFIG = SyntheticConfig(n_rows=1500, seed=3)


@pytest.fixture(scope="module")
def synth():
    dfs = DistributedFileSystem()
    dataset = SyntheticDataGenerator(CONFIG).generate(dfs)
    return dfs, dataset


class TestGenerator:
    def test_field_count(self, synth):
        dfs, dataset = synth
        line = dfs.read_lines(dataset.path)[0]
        assert len(line.split("\t")) == 12

    def test_string_fields_are_20_chars(self, synth):
        dfs, dataset = synth
        for line in dfs.read_lines(dataset.path)[:20]:
            for value in line.split("\t")[:5]:
                assert len(value) == 20

    @pytest.mark.parametrize("field_name", list(TABLE2_FIELDS))
    def test_table2_selectivity(self, synth, field_name):
        """Measured selectivity of `field == 0` tracks Table 2."""
        dfs, dataset = synth
        index = FIELD_NAMES.index(field_name)
        values = [
            int(line.split("\t")[index])
            for line in dfs.read_lines(dataset.path)
        ]
        measured = sum(1 for v in values if v == 0) / len(values)
        expected = expected_selectivity(field_name)
        assert measured == pytest.approx(expected, rel=0.5, abs=0.01)

    @pytest.mark.parametrize(
        "field_name,cardinality",
        [(f, c) for f, (c, _) in TABLE2_FIELDS.items() if isinstance(c, int)],
    )
    def test_cardinalities(self, synth, field_name, cardinality):
        dfs, dataset = synth
        index = FIELD_NAMES.index(field_name)
        values = {
            line.split("\t")[index] for line in dfs.read_lines(dataset.path)
        }
        assert len(values) <= cardinality

    def test_field12_two_values(self, synth):
        dfs, dataset = synth
        index = FIELD_NAMES.index("field12")
        values = {
            int(line.split("\t")[index])
            for line in dfs.read_lines(dataset.path)
        }
        assert values == {0, 1}

    def test_deterministic(self):
        a = SyntheticDataGenerator(CONFIG).rows()
        b = SyntheticDataGenerator(CONFIG).rows()
        assert a == b

    def test_data_scale_targets_40gb(self, synth):
        _, dataset = synth
        from repro.pigmix.synthetic import SYNTHETIC_DECLARED_BYTES

        assert dataset.data_scale * dataset.actual_bytes == pytest.approx(
            SYNTHETIC_DECLARED_BYTES
        )


class TestQueryTemplates:
    def test_qp_projects_k_fields(self, synth):
        dfs, dataset = synth
        result = PigServer(dfs).run(qp_query(dataset, 2, "out/qp2"))
        assert len(result.outputs["out/qp2"]) > 0

    def test_qp_counts_are_positive(self, synth):
        dfs, dataset = synth
        result = PigServer(dfs).run(qp_query(dataset, 1, "out/qp1"))
        assert all(row[0] >= 1 for row in result.outputs["out/qp1"])

    def test_qp_field_range_checked(self, synth):
        _, dataset = synth
        with pytest.raises(ValueError):
            qp_query(dataset, 6, "o")
        with pytest.raises(ValueError):
            qp_query(dataset, 0, "o")

    def test_qf_filters_rows(self, synth):
        dfs, dataset = synth
        result = PigServer(dfs).run(qf_query(dataset, "field11", "out/qf"))
        total = sum(row[0] for row in result.outputs["out/qf"])
        expected = CONFIG.n_rows * expected_selectivity("field11")
        assert total == pytest.approx(expected, rel=0.25)

    def test_qf_highly_selective(self, synth):
        dfs, dataset = synth
        result = PigServer(dfs).run(qf_query(dataset, "field6", "out/qf6"))
        total = sum(row[0] for row in result.outputs["out/qf6"])
        assert total < CONFIG.n_rows * 0.05

    def test_qf_unknown_field(self, synth):
        _, dataset = synth
        with pytest.raises(ValueError):
            qf_query(dataset, "field1", "o")
