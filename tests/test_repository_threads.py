"""The repository raced directly, not through ``JobService``.

Four threads run every mutator and reader — ``add_if_absent`` /
``remove`` / ``refresh_entry`` / ``match_candidates`` / ``input_paths``
/ ``entries_with_input`` / ``merged_index_views`` — over one seeded
pool of entries, under a switch interval short enough that they
really interleave.  Each reader checks the snapshot it was handed; the
run must join inside a deadline (a lock-order mistake is a hang, not a
wrong answer) and end with consistent indexes and the oracle's §3
order.
"""

from __future__ import annotations

import random
import sys
import threading
import time
from collections import Counter
from dataclasses import replace

from test_fingerprint_index import (
    assert_index_consistent,
    build_plan,
    legacy_two_pass_order,
    random_entries,
)

from repro.core.repository import Repository
from repro.exceptions import RepositoryError

SEED = 13
N_THREADS = 4
OPS_PER_THREAD = 400
POOL_SIZE = 24
DEADLINE_S = 60.0
DATASETS = ("ds0", "ds1", "ds2")


def check_index_views(repo: Repository) -> None:
    """One snapshot, so the four indexes describe the same instant:
    every entry under a fingerprint is under its frontier and its
    operators too."""
    views = repo.merged_index_views()
    by_fingerprint = {eid for ids in views["by_fingerprint"].values() for eid in ids}
    by_frontier = {eid for ids in views["by_frontier"].values() for eid in ids}
    by_operator = {eid for ids in views["by_operator"].values() for eid in ids}
    by_input_path = {eid for ids in views["by_input_path"].values() for eid in ids}
    assert by_fingerprint == by_frontier == by_operator
    assert by_input_path == by_fingerprint
    assert all(views["by_input_path"].values()), "an emptied bucket was left behind"


def check_candidates(repo: Repository, rng: random.Random) -> None:
    probe = build_plan(
        [("filter", rng.randint(0, 2)), ("project", rng.randint(0, 2))],
        path=rng.choice(DATASETS),
    )
    candidates, stats = repo.match_candidates(probe)
    ids = [entry.entry_id for entry in candidates]
    assert len(set(ids)) == len(ids)
    assert stats.candidates == len(ids)
    assert stats.candidates + stats.pruned == stats.entries_total


def check_input_paths(repo: Repository, rng: random.Random) -> None:
    paths = repo.input_paths()
    assert len(set(paths)) == len(paths)
    assert set(paths) <= set(DATASETS)
    path = rng.choice(DATASETS)
    for entry in repo.entries_with_input(path):
        assert path in entry.input_extents


def worker(repo: Repository, pool, seed: int, failures: list) -> None:
    rng = random.Random(seed)
    try:
        for _ in range(OPS_PER_THREAD):
            entry = rng.choice(pool)
            roll = rng.random()
            try:
                if roll < 0.35:
                    repo.add_if_absent(entry)
                elif roll < 0.50:
                    repo.remove(entry.entry_id)
                elif roll < 0.65:
                    path, extent = next(iter(entry.input_extents.items()))
                    grown = rng.randrange(1, 500)
                    repo.refresh_entry(
                        entry.entry_id,
                        input_extents={path: replace(extent, size=extent.size + grown)},
                        input_bytes_delta=grown,
                        output_bytes_delta=rng.randrange(0, 50),
                    )
                elif roll < 0.80:
                    check_candidates(repo, rng)
                elif roll < 0.90:
                    check_input_paths(repo, rng)
                else:
                    check_index_views(repo)
            except RepositoryError:
                pass  # never added, or another thread removed it first
    except BaseException as exc:
        failures.append(exc)


def test_four_threads_race_every_repository_operation():
    repo = Repository()
    mutations: Counter = Counter()
    repo.subscribe_mutations(lambda kind, entry: mutations.update([kind]))
    pool = random_entries(random.Random(SEED), POOL_SIZE)
    failures: list = []
    threads = [
        threading.Thread(
            target=worker, args=(repo, pool, SEED + k, failures), daemon=True
        )
        for k in range(N_THREADS)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        deadline = time.monotonic() + DEADLINE_S
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads), "deadlocked"
    assert not failures, failures

    assert min(mutations[kind] for kind in ("added", "removed", "refreshed")) > 20
    assert len(repo) > 0, "the race left nothing to check"
    assert_index_consistent(repo)
    check_index_views(repo)
    fingerprints = [entry.plan.fingerprint() for entry in repo.entries()]
    assert len(set(fingerprints)) == len(fingerprints), "add_if_absent let a twin in"
    ordered = [entry.entry_id for entry in repo.ordered_entries()]
    assert ordered == legacy_two_pass_order(repo)
