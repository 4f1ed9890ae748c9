"""Durable repository persistence: snapshot + journal + recovery.

A shared ReStore service cannot rebuild its repository from scratch on
every restart (the N=10k build already costs seconds and grows
linearly), and the whole value of the system — stored sub-job outputs
reused across submissions days apart — evaporates if a crash loses the
index of what is stored.  This package makes the repository durable
and fast to recover:

* :mod:`repro.persistence.snapshot` — a versioned codec that
  serializes every repository entry *with* its derived match metadata
  (plan fingerprint, load signatures, signature multiset), the
  incremental §3 subsumption order, and the entry-id counter, so a
  cold start rebuilds all inverted indexes in O(entries read) without
  re-registering a single plan;
* :mod:`repro.persistence.framedlog` — the one append-only log
  primitive (``u32 len | crc32 | body`` frames; a torn tail from a
  mid-append crash is detected and truncated, never replayed; bit rot
  with an intact continuation is quarantined), with two body codecs
  over it: :mod:`repro.persistence.journal` (every post-snapshot
  mutation as a JSON record) and :mod:`repro.persistence.blockstore`
  (the stored outputs' payload bytes);
* :mod:`repro.persistence.durability` — the live wiring: a
  :class:`RepositoryPersister` stages mutations, commits them per
  submission, rotates snapshots, and exposes crash :func:`recover`;
* :mod:`repro.persistence.standby` — an in-memory warm standby that
  tails the journal via the persister's :class:`~repro.events.EventBus`
  and can be promoted with zero lost reuse opportunities.

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

from repro.persistence.durability import (
    PersistenceConfig,
    RecoveredState,
    RepositoryPersister,
    recover,
)
from repro.persistence.journal import JournalRecord
from repro.persistence.snapshot import (
    RepositorySnapshot,
    SnapshotError,
)
from repro.persistence.standby import StandbyReplica

__all__ = [
    "JournalRecord",
    "PersistenceConfig",
    "RecoveredState",
    "RepositoryPersister",
    "RepositorySnapshot",
    "SnapshotError",
    "StandbyReplica",
    "recover",
]
