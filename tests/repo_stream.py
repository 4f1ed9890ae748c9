"""The generated multi-tenant stream: a repository of N stored
pipelines over many datasets and a probe stream matched against it.

Entries are overlapping ``load → filter → project → group → aggregate``
prefixes over ``(dataset, threshold)`` pairs; probes are whole-job
hits, prefix-sharing variants and misses on unseen datasets.  The
``repo_scale`` section of ``golden/corpus.json`` records what
:func:`run_match_stream` decides at five sizes; the durability, chaos
and fault-storm tests seed their lanes from the same entries.

Entries are registered the way ``repro.core.selector.input_snapshot``
registers a real one — checksummed input extents read off a DFS that
already holds the datasets — so a probe against that DFS (or
against another one :func:`prepare_service_dfs` filled with the same
bytes: the prefix-CRC rule of ``classify_extent``) finds them *fresh*
and is rewritten, not condemned as stale.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.manager import ReStoreConfig, ReStoreManager
from repro.core.repository import EntryStats, Repository, RepositoryEntry
from repro.dfs.filesystem import DistributedFileSystem
from repro.events import JobEliminated, RewriteApplied
from repro.mapreduce.job import MapReduceJob, Workflow
from repro.persistence.durability import (
    PersistenceConfig,
    RecoveredState,
    RepositoryPersister,
    adopt_recovered,
    recover,
)
from repro.pig.physical.operators import (
    POFilter,
    POForEach,
    POGlobalRearrange,
    POLoad,
    POLocalRearrange,
    POPackage,
    POStore,
)
from repro.pig.physical.plan import PhysicalPlan, linear_plan
from repro.relational.expressions import BinaryOp, Column, Const
from repro.relational.schema import Schema
from repro.relational.types import DataType

ROW_SCHEMA = Schema.of(
    ("u", DataType.CHARARRAY), ("a", DataType.INT), ("r", DataType.DOUBLE)
)
PAIR_SCHEMA = Schema.of(("u", DataType.CHARARRAY), ("r", DataType.DOUBLE))
#: probe store schemas loose enough to survive *execution*: the
#: aggregate tail emits (group, bag-rendered-as-text) rows and the
#: variant tail emits bare group keys, so typed columns would reject
#: what the simulator actually writes
AGG_OUT_SCHEMA = Schema.of(("g", DataType.CHARARRAY), ("rows", DataType.CHARARRAY))
VARIANT_OUT_SCHEMA = Schema.of(("g", DataType.CHARARRAY))

#: pipeline shapes, in prefix order: each later shape extends the
#: previous one, so a probe built from the last shape can reuse any of
#: the earlier ones stored over the same (dataset, threshold)
SHAPES = ("filter", "project", "group", "aggregate")

#: the smallest size holding every (dataset, threshold, shape)
#: combination of the generator, so each hit and each variant probe
#: has a stored prefix whatever the seed
FULL_GRID_ENTRIES = 200
#: (entries, probes) of every ``repo_scale`` golden record
GOLDEN_SCALES = ((10, 8), (100, 8), (10, 20), (100, 20), (1000, 20))


def probe_config() -> ReStoreConfig:
    """Match and rewrite only: the probe stream never grows the
    repository, so every lane over one seed sees the same entry set."""
    return ReStoreConfig(heuristic="never", register_whole_jobs="none")


@dataclass(frozen=True)
class EntrySpec:
    """Deterministic description of one generated repository entry."""

    index: int
    dataset: str
    threshold: int
    shape: str


@dataclass(frozen=True)
class ProbeSpec:
    """One submitted job in the probe stream.

    ``kind`` shapes the reuse outcome: a ``hit`` is answered whole-job
    from the repository, a ``variant`` shares only a pipeline prefix
    (partial rewrite + rescan), and a ``miss`` reads a dataset the
    repository never saw (the common case in production streams).
    """

    index: int
    dataset: str
    threshold: int
    kind: str


@dataclass
class MatchResult:
    """One pass over the probe stream: counts that repeat exactly."""

    traversals: int = 0
    candidates_examined: int = 0
    entries_seen: int = 0
    rewrites: int = 0
    eliminations: int = 0
    #: per probe: (index, decision tuples, final plan fingerprint)
    decisions: List[Tuple] = field(default_factory=list)


# -- plan generation ----------------------------------------------------------


def pipeline_ops(spec: EntrySpec, upto: str) -> list:
    """Operators for *spec*'s pipeline, truncated after shape *upto*."""
    ops = [
        POLoad(spec.dataset, ROW_SCHEMA),
        POFilter(BinaryOp(">", Column(1), Const(spec.threshold)), schema=ROW_SCHEMA),
    ]
    if upto == "filter":
        return ops
    ops.append(
        POForEach(
            [Column(0), Column(2)], [False, False], ["u", "r"], schema=PAIR_SCHEMA
        )
    )
    if upto == "project":
        return ops
    ops.extend(
        [
            POLocalRearrange([Column(0)], schema=PAIR_SCHEMA),
            POGlobalRearrange(n_inputs=1, schema=PAIR_SCHEMA),
            POPackage("group", n_inputs=1, schema=PAIR_SCHEMA),
        ]
    )
    if upto == "group":
        return ops
    ops.append(
        POForEach(
            [Column(0), Column(1)], [False, False], ["g", "rows"], schema=PAIR_SCHEMA
        )
    )
    return ops


def _stored_path(spec: EntrySpec) -> str:
    return f"bench/stored/e{spec.index:05d}"


def _entry_plan(spec: EntrySpec) -> PhysicalPlan:
    ops = pipeline_ops(spec, spec.shape)
    ops.append(POStore(_stored_path(spec), PAIR_SCHEMA))
    return linear_plan(*ops)


def generate_entry_specs(n_entries: int, seed: int) -> List[EntrySpec]:
    """N unique (dataset, threshold, shape) pipelines, shuffled
    deterministically — a multi-tenant workload's retained outputs."""
    n_datasets = max(4, n_entries // 20)
    n_thresholds = max(5, -(-n_entries // (n_datasets * len(SHAPES))))  # ceil
    combos = [
        (f"bench/ds{d:04d}", t, shape)
        for d in range(n_datasets)
        for t in range(1, n_thresholds + 1)
        for shape in SHAPES
    ]
    rng = random.Random(seed)
    rng.shuffle(combos)
    return [
        EntrySpec(index=i, dataset=ds, threshold=t, shape=shape)
        for i, (ds, t, shape) in enumerate(combos[:n_entries])
    ]


def generate_probe_specs(
    entry_specs: List[EntrySpec], n_probes: int, seed: int
) -> List[ProbeSpec]:
    """A mixed probe stream over the retained workload: whole-job
    hits, prefix-sharing variants, and misses on unseen datasets."""
    rng = random.Random(seed + 2)
    probes = []
    for i in range(n_probes):
        kind = rng.choices(("hit", "variant", "miss"), weights=(4, 3, 3))[0]
        template = rng.choice(entry_specs)
        dataset = f"bench/miss{i:04d}" if kind == "miss" else template.dataset
        probes.append(
            ProbeSpec(
                index=i,
                dataset=dataset,
                threshold=template.threshold,
                kind=kind,
            )
        )
    return probes


def prepare_service_dfs(
    dfs: DistributedFileSystem,
    entry_specs: List[EntrySpec],
    probe_specs: List[ProbeSpec] = (),
) -> None:
    """Write every dataset and stored output the probe stream can
    touch: entry and probe inputs, miss datasets, and the stored
    outputs that copy jobs and partial rewrites read.  Always the same
    bytes per path, so an entry registered on one prepared DFS is
    fresh on every other."""
    datasets = {spec.dataset for spec in entry_specs}
    datasets |= {spec.dataset for spec in probe_specs}
    for dataset in sorted(datasets):
        dfs.write_file(
            dataset, "alice\t1\t0.5\nbob\t2\t4.5\ncarol\t3\t8.0\n", overwrite=True
        )
    for spec in entry_specs:
        dfs.write_file(_stored_path(spec), "alice\t0.5\nbob\t4.5\n", overwrite=True)


def build_repository(
    entry_specs: List[EntrySpec],
    seed: int,
    dfs: Optional[DistributedFileSystem] = None,
    probe_specs: List[ProbeSpec] = (),
) -> Repository:
    """A repository holding one entry per spec, registered against
    *dfs* (a throwaway one when the caller only wants the entries)
    once :func:`prepare_service_dfs` has filled it, with varied stats
    so the §3 ordering rules have real work to do."""
    if dfs is None:
        dfs = DistributedFileSystem()
    prepare_service_dfs(dfs, entry_specs, probe_specs)
    rng = random.Random(seed + 1)
    repository = Repository()
    for spec in entry_specs:
        input_bytes = rng.randrange(10_000, 1_000_000)
        output_bytes = max(1, input_bytes // rng.randrange(2, 50))
        extent = dfs.input_extent(spec.dataset, with_crc=True)
        repository.add(
            RepositoryEntry(
                plan=_entry_plan(spec),
                output_path=_stored_path(spec),
                output_schema=PAIR_SCHEMA,
                stats=EntryStats(
                    input_bytes=input_bytes,
                    output_bytes=output_bytes,
                    output_records=output_bytes // 16,
                    exec_time_s=rng.uniform(5.0, 500.0),
                ),
                anchor_kind=spec.shape,
                input_extents={spec.dataset: extent},
                output_extent=dfs.input_extent(_stored_path(spec)),
            )
        )
    return repository


def probe_job(
    spec: ProbeSpec, out_prefix: str = "bench/out"
) -> Tuple[MapReduceJob, Workflow]:
    base = EntrySpec(spec.index, spec.dataset, spec.threshold, "aggregate")
    if spec.kind == "variant":
        # shares load→filter→project→group with stored entries but
        # drills down differently after the shuffle: only the prefix
        # is reusable, forcing a partial rewrite plus a rescan pass
        ops = pipeline_ops(base, "group")
        ops.append(POForEach([Column(0)], [False], ["g"], schema=PAIR_SCHEMA))
        out_schema = VARIANT_OUT_SCHEMA
    else:
        ops = pipeline_ops(base, "aggregate")
        out_schema = AGG_OUT_SCHEMA
    ops.append(POStore(f"{out_prefix}/p{spec.index:05d}", out_schema))
    job = MapReduceJob(linear_plan(*ops), job_id=f"probe_{spec.index:05d}")
    workflow = Workflow(jobs=[job], name=f"probe-wf-{spec.index:05d}")
    return job, workflow


def service_workload(probe_specs: List[ProbeSpec], out_prefix: str) -> List:
    """Zero-arg workflow builders (fresh plans per run — rewrites
    mutate them), one per probe, writing under *out_prefix*."""
    return [(lambda spec=spec: probe_job(spec, out_prefix)[1]) for spec in probe_specs]


# -- matching -----------------------------------------------------------------


def match_stream(
    repository: Repository, dfs: DistributedFileSystem, probe_specs: List[ProbeSpec]
) -> MatchResult:
    """Match (not execute) every probe once against *repository*."""
    manager = ReStoreManager(dfs, repository=repository, config=probe_config())
    decided: List[tuple] = []
    manager.events.subscribe(
        lambda e: decided.append((type(e).__name__, e.entry_id, e.output_path)),
        event_types=(RewriteApplied, JobEliminated),
    )
    result = MatchResult()
    for spec in probe_specs:
        job, workflow = probe_job(spec)
        decided.clear()
        manager.before_job(job, workflow)
        result.decisions.append((spec.index, tuple(decided), job.plan.fingerprint()))
        manager.drain()  # keep the listener channel from growing
        # release this probe's pins/pending, as a real driver's
        # workflow-end hook would — id(workflow) values recycle once
        # the object is collected, so skipping this merges dead
        # workflows' pins into an ever-growing set
        manager.on_workflow_end(workflow)
    totals = manager.match_totals
    result.traversals = totals.traversals
    result.candidates_examined = totals.candidates_examined
    result.entries_seen = totals.entries_seen
    result.rewrites = manager.rewrite_count
    result.eliminations = manager.elimination_count
    return result


def run_match_stream(n_entries: int, n_probes: int, seed: int) -> MatchResult:
    """Build the *n_entries* repository on a fresh DFS and match an
    *n_probes* stream against it."""
    entry_specs = generate_entry_specs(n_entries, seed)
    probe_specs = generate_probe_specs(entry_specs, n_probes, seed)
    dfs = DistributedFileSystem()
    repository = build_repository(entry_specs, seed, dfs, probe_specs)
    return match_stream(repository, dfs, probe_specs)


# -- durable lanes over one seed snapshot -------------------------------------


def _local_config(directory: str) -> PersistenceConfig:
    os.makedirs(directory, exist_ok=True)
    return PersistenceConfig(
        backend="local",
        snapshot_path=os.path.join(directory, "repository.snapshot"),
        journal_path=os.path.join(directory, "repository.journal"),
    )


def attach(
    persistence: PersistenceConfig, dfs=None, entries=(), **manager_args
) -> Tuple[ReStoreManager, RepositoryPersister]:
    """A manager over what :func:`recover` finds at *persistence* and
    its persister (the one way one is built), with *entries* then added
    through ``Repository.add`` in one commit, so the persister stages
    each as a live registration would.  A local log is recovered
    without a filesystem, so nothing is written into *dfs*."""
    dfs = dfs or DistributedFileSystem()
    local = persistence.backend != "dfs"
    state = recover(persistence, None if local else dfs)
    manager = ReStoreManager(dfs, repository=state.repository, **manager_args)
    persister = adopt_recovered(manager, state, persistence)
    persister.note_workflow_start()
    for entry in entries:
        manager.repository.add(entry)
    persister.note_workflow_end()
    return manager, persister


def checkpointed(
    repository: Repository, kept_paths=(), clock: int = 0, dfs_ids=None
) -> RecoveredState:
    """*repository*'s entries (with a manager's kept paths and clock,
    and the DFS id state) persisted as one checkpoint in a fresh local
    log, then recovered from it — without a filesystem, so output bytes
    go unchecked and every entry comes back."""
    with tempfile.TemporaryDirectory() as directory:
        config = _local_config(directory)
        dfs = DistributedFileSystem()
        dfs.ensure_id_floor(**(dfs_ids or {}))
        manager, persister = attach(config, dfs, repository.entries())
        manager.kept_paths.update(kept_paths)
        manager.clock = clock
        persister.take_snapshot()
        persister.close()
        return recover(config)


def seed_state(workdir: str, entry_specs: List[EntrySpec], seed: int) -> str:
    """Build the repository once and persist it under ``workdir/seed``
    (returned), so every lane recovers the *same* LazyPlan-backed
    entries from disk — stored-plan materialization, which the
    corruption rules target, only exists on the recovery path."""
    seed_dir = os.path.join(workdir, "seed")
    dfs = DistributedFileSystem()
    repository = build_repository(entry_specs, seed, dfs)
    config = _local_config(seed_dir)
    _, persister = attach(config, dfs, repository.entries(), config=probe_config())
    persister.take_snapshot()
    persister.close()
    return seed_dir


def lane_dir(workdir: str, label: str, seed_dir: str) -> PersistenceConfig:
    """A private copy of the seed state (its log generation) for one
    lane to recover and journal in."""
    lane = os.path.join(workdir, label)
    shutil.copytree(seed_dir, lane)
    return _local_config(lane)
