"""Batched registration: the §3 order, whatever the batching.

``add`` records a new entry's subsumption pairs on the spot, from the
fingerprint indexes, and every scan sorts by the §3 key.  How adds,
removals and scans interleave must not show:

* Hypothesis property: for any insert sequence, one batch of adds ≡ a
  scan after every insert ≡ the legacy two-pass O(n²) sort oracle over
  Algorithm 1's subsumption verdicts;
* removals interleaved with batches stay consistent;
* a snapshot restores the same order without rebuilding a plan.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from test_fingerprint_index import (
    assert_index_consistent,
    legacy_two_pass_order,
    make_entry,
)

from repro.core.repository import Repository

# entry descriptors: pipeline spec indices + stats that exercise every
# component of the order key (score, io ratio, exec time, sequence)
entry_descriptor = st.tuples(
    st.lists(
        st.tuples(st.sampled_from(["filter", "project"]), st.integers(0, 2)),
        max_size=3,
    ),
    st.sampled_from(["ds0", "ds1"]),
    st.integers(100, 5000),  # input bytes
    st.integers(10, 500),  # output bytes
    st.integers(1, 40),  # exec time
)


def add_all(repo, entries):
    """One batch: every entry added before anything scans."""
    for entry in entries:
        repo.add(entry)


def build_entries(descriptors):
    return [
        make_entry(
            specs,
            path=path,
            out=f"batch/o{i}",
            input_bytes=input_bytes,
            output_bytes=output_bytes,
            exec_time=float(exec_time),
        )
        for i, (specs, path, input_bytes, output_bytes, exec_time) in enumerate(
            descriptors
        )
    ]


class TestBatchedRegistrationProperty:
    @given(st.lists(entry_descriptor, min_size=0, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_batch_flush_equals_one_at_a_time_inserts(self, descriptors):
        batch_repo = Repository()
        add_all(batch_repo, build_entries(descriptors))
        batch_order = [e.entry_id for e in batch_repo.ordered_entries()]

        serial_repo = Repository()
        for entry in build_entries(descriptors):
            serial_repo.add(entry)
            serial_repo.ordered_entries()  # a scan after every insert
        serial_order = [e.entry_id for e in serial_repo.ordered_entries()]

        assert batch_order == serial_order
        # both agree with the historical two-pass sort oracle
        assert batch_order == legacy_two_pass_order(batch_repo)
        assert_index_consistent(batch_repo)
        assert_index_consistent(serial_repo)

    @given(
        st.lists(entry_descriptor, min_size=2, max_size=8),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_interleaved_removals_and_batches(self, descriptors, rng):
        repo = Repository()
        entries = build_entries(descriptors)
        split = len(entries) // 2
        add_all(repo, entries[:split])
        repo.ordered_entries()
        victim = entries[rng.randrange(split)] if split else None
        if victim is not None:
            repo.remove(victim.entry_id)
        add_all(repo, entries[split:])
        ordered_ids = [e.entry_id for e in repo.ordered_entries()]
        assert ordered_ids == legacy_two_pass_order(repo)
        assert_index_consistent(repo)


class TestBatchAmortization:
    def _random_entries(self, n, seed=5):
        rng = random.Random(seed)
        return build_entries(
            [
                (
                    [("filter", rng.randint(0, 2))],
                    f"ds{rng.randint(0, 1)}",
                    rng.randrange(100, 5000),
                    rng.randrange(10, 500),
                    rng.randint(1, 40),
                )
                for _ in range(n)
            ]
        )

    def test_snapshot_restores_without_matcher_work(self):
        # the order comes back from the recorded fingerprints: no
        # stored plan is rebuilt
        from repo_stream import checkpointed

        repo = Repository()
        add_all(repo, self._random_entries(6))
        restored = checkpointed(repo).repository
        assert [e.entry_id for e in restored.ordered_entries()] == [
            e.entry_id for e in repo.ordered_entries()
        ]
        assert not any(entry.plan.materialized for entry in restored.entries())
        assert_index_consistent(restored)
