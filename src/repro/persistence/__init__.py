"""Durable repository persistence: one log + recovery.

A shared ReStore service cannot rebuild its repository from scratch on
every restart (the N=10k build already costs seconds and grows
linearly), and the whole value of the system — stored sub-job outputs
reused across submissions days apart — evaporates if a crash loses the
index of what is stored.  This package makes the repository durable
and fast to recover:

* :mod:`repro.persistence.framedlog` — the one on-disk format: per
  generation, one append-only log of checksummed frames holding
  segments (stored outputs and plans), mutation records and
  checkpoints of the whole index;
* :mod:`repro.persistence.snapshot` — the checkpoint codec, the entry
  codec a checkpoint row and an entry record share, and the lazy plan
  a restored entry holds;
* :mod:`repro.persistence.persister` — the live wiring: commits per
  submission, checkpoints per interval, under the durability contract
  its module docstring states;
* :mod:`repro.persistence.durability` — crash :func:`recover`, which a
  new session or service over the same :class:`PersistenceConfig`
  runs: coordinator loss is a restart.

Quick start::

    from repro import ReStoreSession
    from repro.persistence import PersistenceConfig

    durable = PersistenceConfig(
        snapshot_path="restore/repo.snap",
        journal_path="restore/repo.journal",
    )
    with ReStoreSession(persistence=durable) as session:
        session.run("A = load 'data/users' as (name); store A into 'out';")
    # process dies ... a later session warm-starts from the log
    # (restore/repo.journal.g<N>; nothing is written at snapshot_path):
    with ReStoreSession(dfs=session.dfs, persistence=durable) as again:
        ...  # repository, kept paths, and id counters all restored
"""

from repro.persistence.durability import PersistenceConfig, RecoveredState, recover
from repro.persistence.framedlog import JournalRecord
from repro.persistence.persister import RepositoryPersister
from repro.persistence.snapshot import SnapshotError

__all__ = [
    "JournalRecord",
    "PersistenceConfig",
    "RecoveredState",
    "RepositoryPersister",
    "SnapshotError",
    "recover",
]
