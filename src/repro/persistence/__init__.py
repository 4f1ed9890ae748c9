"""Durable repository persistence: snapshot + one log + recovery.

A shared ReStore service cannot rebuild its repository from scratch on
every restart (the N=10k build already costs seconds and grows
linearly), and the whole value of the system — stored sub-job outputs
reused across submissions days apart — evaporates if a crash loses the
index of what is stored.  This package makes the repository durable
and fast to recover:

* :mod:`repro.persistence.snapshot` — a versioned codec that
  serializes every repository entry *with* its derived match metadata
  (plan, frontier and operator fingerprints) and the entry-id counter,
  so a cold start rebuilds every fingerprint index and the §3
  subsumption pairs in O(entries read) without re-registering a single
  plan;
* :mod:`repro.persistence.framedlog` — the one durable log: per
  generation, one append-only file of ``u32 len | crc32 | body`` frames
  whose bodies are tagged payload segments (the stored outputs' bytes)
  and mutation records (everything after the last snapshot).  A torn
  tail from a mid-append crash is detected and cut, never replayed;
  bit rot with an intact continuation is quarantined;
* :mod:`repro.persistence.persister` — the live wiring: a
  :class:`RepositoryPersister` stages mutations, commits them per
  submission in one log write and one fsync, and rotates snapshots,
  under the durability contract its module docstring states;
* :mod:`repro.persistence.durability` — crash :func:`recover`: load the
  snapshot, replay the log from the offset it names, scrub every
  payload, and adopt the result into a live manager.  Coordinator
  loss is a restart: a new session or service over the same
  :class:`PersistenceConfig` runs it.

Quick start::

    from repro import ReStoreSession
    from repro.persistence import PersistenceConfig

    durable = PersistenceConfig(
        snapshot_path="restore/repo.snap",
        journal_path="restore/repo.journal",
    )
    with ReStoreSession(persistence=durable) as session:
        session.run("A = load 'data/users' as (name); store A into 'out';")
    # process dies ... a later session warm-starts from the snapshot:
    with ReStoreSession(dfs=session.dfs, persistence=durable) as again:
        ...  # repository, kept paths, and id counters all restored
"""

from repro.persistence.durability import PersistenceConfig, RecoveredState, recover
from repro.persistence.framedlog import JournalRecord
from repro.persistence.persister import RepositoryPersister
from repro.persistence.snapshot import (
    RepositorySnapshot,
    SnapshotError,
)

__all__ = [
    "JournalRecord",
    "PersistenceConfig",
    "RecoveredState",
    "RepositoryPersister",
    "RepositorySnapshot",
    "SnapshotError",
    "recover",
]
