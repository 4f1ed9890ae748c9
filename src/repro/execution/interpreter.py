"""Push-based interpreter for job physical plans.

Executes one MapReduce job's plan over real rows: map branches run
from each POLoad to the shuffle (or straight to stores for map-only
jobs), the shuffle buffer sorts and groups, and the reduce segment
runs from POPackage to the stores.  All byte/record counters that the
cost model and ReStore statistics need are collected on the way.

Inputs are read through the DFS typed-dataset cache and stream as
``List[Row]`` chunks of :attr:`JobInterpreter.CHUNK_ROWS` rows through
one *chunk handler* compiled per operator, and the per-row work of a
handler runs inside C-level passes wherever the operator allows it:
filters run compiled predicates inside one list comprehension per
chunk, a foreach of bare columns is one ``itemgetter`` pass (other
expression lists map a precompiled closure), split tees forward the
same chunk object to every branch, rearranges compute a chunk's keys
in one ``map`` and the shuffle groups them at add time
(:meth:`~repro.mapreduce.shuffle.ShuffleBuffer.add_batch`) — Python
frames are spent per operator per *chunk* and per distinct key.  Stores
hand :meth:`~repro.dfs.filesystem.DistributedFileSystem.write_rows`
typed rows plus a *payload source* hint for pass-through stores (a
store fed only by a load, possibly through split tees — the shape of
whole-job copy rewrites and load-teeing side stores), letting the DFS
clone the producer's serialized payload instead of rendering the same
text twice.

A row is sized once: a rearrange whose only input is a split that also
feeds stores (the shape of a side store injected on a shuffle's input)
receives exactly the chunks those stores write, so it adds its chunks
to the shuffle with row sizing off, and after the flush the rows' bytes
come from a store's write (see :meth:`JobInterpreter._tee_row_bytes`).
The relation is found once per handler compile, so a job without it
runs the per-chunk sizing unchanged.
"""

from __future__ import annotations

import time
from collections import defaultdict
from functools import partial
from itertools import chain, compress, product, starmap
from operator import itemgetter, not_
from typing import Callable, Dict, List, Optional, Sequence

from repro.dfs.filesystem import DistributedFileSystem, WriteStatus
from repro.exceptions import ExecutionError, PlanError
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.shuffle import ShuffleBuffer
from repro.mapreduce.stats import JobStats, StoreStat
from repro.pig.physical.operators import (
    PhysicalOperator,
    POFilter,
    POForEach,
    POFRJoin,
    POGlobalRearrange,
    POLimit,
    POLoad,
    POLocalRearrange,
    POPackage,
    POSplit,
    POStore,
    POUnion,
)
from repro.relational.compiled import (
    compile_expression,
    compile_filter_list,
    compile_key,
    compile_projection_list,
)
from repro.relational.tuples import Bag, Row, serialized_rows_size

#: a compiled chunk handler: (rows, source operator) -> None
BatchHandler = Callable[[Sequence[Row], Optional[PhysicalOperator]], None]


class JobInterpreter:
    """Executes one job plan against the DFS and reports statistics."""

    #: rows per chunk handed to each operator's handler
    CHUNK_ROWS = 1024

    def __init__(
        self,
        job: MapReduceJob,
        dfs: DistributedFileSystem,
        n_reduce_tasks: int = 8,
    ):
        self.job = job
        self.plan = job.plan
        self.dfs = dfs
        self.n_reduce_tasks = max(1, n_reduce_tasks)
        #: this run's chunk length, decided in :meth:`run` once the
        #: null-key policies are known
        self.chunk_rows = self.CHUNK_ROWS
        self._shuffle: Optional[ShuffleBuffer] = None
        self._store_rows: Dict[int, List[Row]] = defaultdict(list)
        self._limit_counts: Dict[int, int] = defaultdict(int)
        #: POFRJoin op_id -> [probe rows, build rows]
        self._frjoin_buffers: Dict[int, List[List[Row]]] = defaultdict(lambda: [[], []])
        self._op_records = 0
        self._map_output_records = 0
        self._reduce_phase_ids: set = set()
        #: POLocalRearrange op_id -> null-key policy (join semantics)
        self._null_key_policy: Dict[int, str] = {}
        self._null_counter = 0
        #: op_id -> compiled chunk handler / successor handler list
        self._batch_handlers: Dict[int, BatchHandler] = {}
        self._succ_batch_handlers: Dict[int, List[BatchHandler]] = {}
        #: tee'd rearrange op_id -> the stores on its split (see
        #: :meth:`_tee_stores`), and the characters of the rows those
        #: rearranges dropped
        self._tees: Dict[int, List[POStore]] = {}
        self._tee_dropped = 0

    # -- public ------------------------------------------------------------------

    def run(self) -> JobStats:
        started = time.perf_counter()
        self.plan.validate()
        stats = JobStats(job_id=self.job.job_id, name=self.job.conf.name)

        gr = self.plan.global_rearrange()
        if gr is not None:
            package = self._package_after(gr)
            # ORDER BY: a single reduce partition gives the total order
            # (stands in for Pig's sample+range-partition sort pair).
            n_partitions = 1 if package.mode == "sort" else self.n_reduce_tasks
            self._shuffle = ShuffleBuffer(n_partitions)
            self._reduce_phase_ids = self.plan.downstream_closure(gr)
            self._configure_null_key_policy(package)
        self.chunk_rows = self._safe_chunk_rows()

        # Map phase: stream every load's rows through its branch.
        for load in self.plan.loads():
            if load.schema is None:
                raise ExecutionError(f"load without schema: {load!r}")
            # cached typed read: a matching pinned dataset skips text
            # parsing (and byte materialization) entirely
            rows = self.dfs.read_rows(load.path, load.schema)
            handlers = self._batch_handlers_after(load)
            for chunk in self._chunks(rows):
                for handler in handlers:
                    handler(chunk, load)
            stats.load_bytes[load.path] = self.dfs.file_size(load.path)
            stats.input_records += len(rows)

        # Map-side joins: all inputs are buffered once the loads drain.
        self._finalize_frjoins()

        # Reduce phase.
        if gr is not None:
            self._run_reduce_batched(self._package_after(gr), stats)
            stats.shuffle_records = self._shuffle.records

        # Flush stores.
        written: Dict[int, WriteStatus] = {}
        for store in self.plan.stores():
            rows = self._store_rows.get(store.op_id, [])
            status = self.dfs.write_rows(
                store.path,
                rows,
                store.schema,
                overwrite=True,
                source=self._source_hint(store),
                # the interpreter owns its flush rows outright (nothing
                # can mutate them after this call), so the defensive
                # snapshot is skipped
                snapshot=False,
            )
            written[store.op_id] = status
            stats.stores.append(
                StoreStat(
                    path=store.path,
                    bytes=status.size,
                    records=len(rows),
                    phase="reduce" if store.op_id in self._reduce_phase_ids else "map",
                    side=store.side,
                )
            )
        if gr is not None:
            stats.shuffle_bytes = self._shuffle.bytes
            if self._tees:
                stats.shuffle_bytes += self._tee_row_bytes(written)

        stats.map_output_records = self._map_output_records
        stats.op_records = self._op_records
        # the handlers close over this interpreter: without them the
        # job's shuffle groups and store rows die with its last
        # reference instead of waiting for a full cyclic collection
        self._batch_handlers.clear()
        self._succ_batch_handlers.clear()
        stats.wall_seconds = time.perf_counter() - started
        return stats

    # -- chunk dispatch ----------------------------------------------------------------

    def _safe_chunk_rows(self) -> int:
        """The chunk length that keeps null-key numbering row-major.

        The one piece of cross-operator order-sensitive state is the
        null-isolation counter: a split tee feeding *two* isolating
        rearranges must number their null keys row by row, and whole
        chunks would number them one rearrange at a time, reordering
        the isolated singleton groups.  With at most one isolating
        rearrange every consumer sees rows in stream order at any
        chunk length; plans beyond that (full self outer joins) run
        with one-row chunks, which are row-major by construction.
        """
        isolating = sum(
            1 for policy in self._null_key_policy.values() if policy == "isolate"
        )
        return self.CHUNK_ROWS if isolating <= 1 else 1

    def _chunks(self, rows: Sequence[Row]) -> List[Sequence[Row]]:
        batch = self.chunk_rows
        if len(rows) <= batch:
            return [rows] if rows else []
        return [rows[start : start + batch] for start in range(0, len(rows), batch)]

    def _run_reduce_batched(self, package: POPackage, stats: JobStats) -> None:
        """Stream package output through batch handlers, chunk-wise.

        Package rows are built for every group at once — GROUP and
        DISTINCT in C-level passes (:func:`_group_rows`) — and cut into
        chunks, so the reduce tail (foreach → store) runs
        batch-at-a-time just like the map side.  ``op_records`` moves
        once per package output row.
        """
        groups = list(self._shuffle.all_groups())
        stats.reduce_groups += len(groups)
        if package.mode in ("group", "distinct"):
            rows = _group_rows(package.mode, groups)
        else:
            package_rows = partial(self._package_rows, package)
            rows = list(chain.from_iterable(starmap(package_rows, groups)))
        handlers = self._batch_handlers_after(package)
        for chunk in self._chunks(rows):
            self._op_records += len(chunk)
            for handler in handlers:
                handler(chunk, package)

    def _batch_handlers_after(self, op: PhysicalOperator) -> List[BatchHandler]:
        handlers = self._succ_batch_handlers.get(op.op_id)
        if handlers is None:
            handlers = [self._compile_batch(succ) for succ in self.plan.successors(op)]
            self._succ_batch_handlers[op.op_id] = handlers
        return handlers

    def _compile_batch(self, op: PhysicalOperator) -> BatchHandler:
        """One chunk handler per operator.

        Every operator visit moves ``op_records`` once per row, but
        the per-row work runs inside one call per chunk (see the
        module docstring).  :meth:`run` validated the plan, so only a
        split has more than one successor and every non-store operator
        has at least one.
        """
        handler = self._batch_handlers.get(op.op_id)
        if handler is not None:
            return handler
        successors = self.plan.successors(op)
        if isinstance(op, POFilter):
            inner = self._compile_batch(successors[0])
            filter_rows = compile_filter_list(op.predicate)

            def handler(rows, source, _op=op, _inner=inner, _filter=filter_rows):
                self._op_records += len(rows)
                out = _filter(rows)
                if out:
                    _inner(out, _op)

        elif isinstance(op, POForEach):
            inner = self._compile_batch(successors[0])
            project = compile_projection_list(op.exprs, op.flattens)
            if project is not None:

                def handler(rows, source, _op=op, _inner=inner, _project=project):
                    self._op_records += len(rows)
                    _inner(_project(rows), _op)

            else:
                # FLATTEN expands cross products: row-at-a-time
                # expansion, chunk-at-a-time forwarding
                exprs = tuple(map(compile_expression, op.exprs))

                def handler(rows, source, _op=op, _inner=inner, _exprs=exprs):
                    self._op_records += len(rows)
                    out: List[Row] = []
                    extend = out.extend
                    for row in rows:
                        extend(self._foreach_rows(_exprs, _op.flattens, row))
                    if out:
                        _inner(out, _op)

        elif isinstance(op, POLocalRearrange):
            # the null-key policy was fixed before any handler compiled;
            # keys are computed a chunk at a time (C-level when the key
            # compiles to an itemgetter) and a join side looks at them
            # row by row only in a chunk that holds a null key
            key_of = compile_key(op.key_exprs)
            policy = self._null_key_policy.get(op.op_id, "keep")
            # a tee'd rearrange's row bytes come from its stores' write
            tee_stores = self._tee_stores(op)
            size_rows = not tee_stores
            if tee_stores:
                self._tees[op.op_id] = tee_stores

            def handler(rows, source, _branch=op.branch):
                self._op_records += len(rows)
                keys = list(map(key_of, rows))
                if policy != "keep" and _may_hold_null_key(keys):
                    if policy == "drop":
                        # Pig: null keys never match in inner joins
                        live = [not _is_null_key(key) for key in keys]
                        if not size_rows:
                            dropped = list(compress(rows, map(not_, live)))
                            self._tee_dropped += serialized_rows_size(dropped)
                        keys = list(compress(keys, live))
                        rows = list(compress(rows, live))
                    else:  # isolate: outer-preserved rows survive, unmatched
                        for index, key in enumerate(keys):
                            if _is_null_key(key):
                                self._null_counter += 1
                                keys[index] = ("__null__", self._null_counter)
                self._shuffle.add_batch(_branch, keys, rows, size_rows)
                self._map_output_records += len(rows)

        elif isinstance(op, POStore):
            extend_rows = self._store_rows[op.op_id].extend

            def handler(rows, source, _extend=extend_rows):
                self._op_records += len(rows)
                _extend(rows)

        elif isinstance(op, (POSplit, POUnion)):
            inner_handlers = None  # bound lazily: successors compile on demand

            def handler(rows, source, _op=op):
                nonlocal inner_handlers
                self._op_records += len(rows)
                if inner_handlers is None:
                    inner_handlers = self._batch_handlers_after(_op)
                for inner in inner_handlers:
                    inner(rows, _op)

        elif isinstance(op, POLimit):

            def handler(rows, source, _op=op):
                self._op_records += len(rows)
                taken = self._limit_counts[_op.op_id]
                if taken >= _op.n:
                    return
                out = rows[: _op.n - taken] if _op.n - taken < len(rows) else rows
                self._limit_counts[_op.op_id] += len(out)
                for inner in self._batch_handlers_after(_op):
                    inner(out, _op)

        elif isinstance(op, POFRJoin):

            def handler(rows, source, _op=op):
                self._op_records += len(rows)
                branch = self._frjoin_branch(_op, source)
                self._frjoin_buffers[_op.op_id][branch].extend(rows)

        elif isinstance(op, (POGlobalRearrange, POPackage, POLoad)):
            raise ExecutionError(f"operator {op!r} cannot appear mid-pipeline")
        else:
            raise PlanError(f"interpreter cannot execute {op!r}")

        self._batch_handlers[op.op_id] = handler
        return handler

    # -- tee'd rearranges --------------------------------------------------------------

    def _tee_stores(self, rearrange: POLocalRearrange) -> List[POStore]:
        """The stores hanging directly off *rearrange*'s split, when a
        split is its only input: each receives exactly the chunks the
        rearrange does (a split forwards one chunk object to every
        branch), so the rows a store writes are the rows the rearrange
        received.  Empty for any other rearrange."""
        preds = self.plan.predecessors(rearrange)
        if len(preds) != 1 or not isinstance(preds[0], POSplit):
            return []
        succs = self.plan.successors(preds[0])
        return [succ for succ in succs if isinstance(succ, POStore)]

    def _tee_row_bytes(self, written: Dict[int, WriteStatus]) -> int:
        """The row bytes the tee'd rearranges left unsized, taken from
        their stores' writes: a write sized from the rows is their
        characters plus one newline per row
        (:attr:`~repro.dfs.filesystem.WriteStatus.sized_from_rows`);
        without one, the first store's rows are sized here.  The rows a
        rearrange dropped (inner-join null keys) never reached the
        shuffle, so their characters, counted as they were dropped,
        come off."""
        total = -self._tee_dropped
        for stores in self._tees.values():
            for store in stores:
                status = written[store.op_id]
                if status.sized_from_rows:
                    total += status.size - len(self._store_rows[store.op_id])
                    break
            else:
                total += serialized_rows_size(self._store_rows[stores[0].op_id])
        return total

    # -- payload reuse ----------------------------------------------------------------

    #: operators that forward every row *object* unchanged: a store
    #: whose ancestry up to a single load crosses only these receives
    #: the load's row stream by identity
    _IDENTITY_OPS = (POSplit, POUnion)

    def _source_hint(self, store: POStore) -> Optional[str]:
        """The load path this store's rows identity-descend from.

        Feeds :meth:`write_rows`'s payload clone: a pure pass-through
        (the shape of whole-job copy rewrites and load-teeing side
        stores) shares the producer's serialized payload.  The
        returned path is only a hint: ``write_rows`` verifies row
        identity against the source's pinned dataset before cloning.
        """
        schema = store.schema
        if schema is None:
            return None
        op: PhysicalOperator = store
        while True:
            preds = self.plan.predecessors(op)
            if len(preds) != 1:
                return None
            pred = preds[0]
            if isinstance(pred, POLoad):
                if (
                    pred.schema is not None
                    and pred.schema.fingerprint() == schema.fingerprint()
                ):
                    return pred.path
                return None
            if not isinstance(pred, self._IDENTITY_OPS):
                return None
            op = pred

    def _configure_null_key_policy(self, package: POPackage) -> None:
        """Pig join semantics for null keys: dropped on inner sides,
        preserved-but-unmatched on outer-preserved sides; GROUP and
        COGROUP keep nulls (they form their own group)."""
        if package.mode != "join":
            return
        for gr in self.plan.predecessors(package):
            for lr in self.plan.predecessors(gr):
                if isinstance(lr, POLocalRearrange):
                    preserved = (
                        lr.branch < len(package.outer_flags)
                        and package.outer_flags[lr.branch]
                    )
                    self._null_key_policy[lr.op_id] = (
                        "isolate" if preserved else "drop"
                    )

    # -- fragment-replicate join ------------------------------------------------------------

    def _frjoin_branch(self, op: POFRJoin, source: Optional[PhysicalOperator]) -> int:
        preds = self.plan.predecessors(op)
        if source is not None:
            for branch, pred in enumerate(preds):
                if pred.op_id == source.op_id:
                    return branch
        raise ExecutionError("frjoin received a row from an unknown input")

    def _finalize_frjoins(self) -> None:
        """Hash-join buffered inputs; topological order chains joins."""
        for op in self.plan.topo_order():
            if not isinstance(op, POFRJoin):
                continue
            probe_rows, build_rows = self._frjoin_buffers[op.op_id]
            probe_key, build_key = map(compile_key, op.key_exprs_per_input)
            table: Dict[object, List[Row]] = defaultdict(list)
            for row, key in zip(build_rows, map(build_key, build_rows)):
                if not _is_null_key(key):
                    table[key].append(row)
            out: List[Row] = []
            for row, key in zip(probe_rows, map(probe_key, probe_rows)):
                if _is_null_key(key):
                    continue
                for match in table.get(key, ()):
                    self._op_records += 1
                    out.append(tuple(row) + tuple(match))
            handlers = self._batch_handlers_after(op)
            for chunk in self._chunks(out):
                for handler in handlers:
                    handler(chunk, op)

    # -- foreach ----------------------------------------------------------------------------

    @staticmethod
    def _foreach_rows(exprs, flattens, row: Row):
        """A FOREACH's output rows for one input row: every field is a
        list of tuples (a scalar one is ``((value,),)``) and an output
        row concatenates one pick per field, in C, over the fields'
        cross product.  A FLATTEN of an empty bag or a null drops the
        row."""
        fields = []
        for expr, flatten in zip(exprs, flattens):
            value = expr(row)
            if flatten:
                value = _as_flatten_items(value)
                if not value:
                    return ()
                fields.append(value)
            else:
                if isinstance(value, list):
                    value = Bag(v if isinstance(v, tuple) else (v,) for v in value)
                fields.append(((value,),))
        return map(tuple, map(chain.from_iterable, product(*fields)))

    # -- package -----------------------------------------------------------------------------

    def _package_after(self, gr: POGlobalRearrange) -> POPackage:
        succs = self.plan.successors(gr)
        if len(succs) != 1 or not isinstance(succs[0], POPackage):
            raise PlanError("global rearrange must feed exactly one package")
        return succs[0]

    def _package_rows(self, package: POPackage, key, branch_rows: Dict[int, List[Row]]):
        """The rows of one SORT, COGROUP or JOIN group."""
        mode = package.mode
        if mode == "sort":
            for row in branch_rows.get(0, []):
                yield row
            return
        # cogroup / join: one bag per declared input branch
        bags = [Bag(branch_rows.get(i, [])) for i in range(package.n_inputs)]
        if mode == "join":
            for i, bag in enumerate(bags):
                if len(bag) == 0:
                    preserved_elsewhere = any(
                        package.outer_flags[j] and len(bags[j]) > 0
                        for j in range(package.n_inputs)
                        if j != i
                    )
                    if preserved_elsewhere:
                        bags[i] = Bag([self._null_row_for_branch(package, i)])
                    else:
                        return  # inner-join semantics: drop the key
        yield (key, *bags)

    def _null_row_for_branch(self, package: POPackage, branch: int) -> Row:
        """All-null padding tuple for outer joins."""
        if package.schema is not None and branch + 1 < len(package.schema):
            inner = package.schema[branch + 1].inner
            if inner is not None:
                return tuple([None] * len(inner))
        raise ExecutionError(
            "outer join requires package schema with inner bag schemas"
        )


def _may_hold_null_key(keys: List) -> bool:
    """False only when no key of the chunk is null, read from type
    sets in C-level passes; a chunk mixing tuple and scalar keys
    answers True (the per-row test then decides)."""
    kinds = set(map(type, keys))
    if kinds == {tuple}:
        kinds = set(map(type, chain.from_iterable(keys)))
    elif any(issubclass(kind, tuple) for kind in kinds):
        return True
    return type(None) in kinds


def _is_null_key(key) -> bool:
    """A join key is null when any component is null (SQL semantics)."""
    if key is None:
        return True
    if isinstance(key, tuple):
        return any(k is None for k in key)
    return False


def _group_rows(mode: str, groups: List) -> List[Row]:
    """GROUP or DISTINCT package rows, one per group, in C-level passes
    over the groups: no generator and no copy per group.  Both have one
    input, branch 0.  A group's bag wraps the shuffle's own row list:
    the buffer dies with the job, and nothing appends to it after the
    map phase."""
    row_lists = list(map(itemgetter(0), map(itemgetter(1), groups)))
    if mode == "distinct":
        return list(map(itemgetter(0), row_lists))
    return list(zip(map(itemgetter(0), groups), Bag._sharing(row_lists)))


def _as_flatten_items(value) -> List[tuple]:
    """Normalize a flattened value into a list of field tuples: a
    bag's or list's own row list when a C-level type scan finds only
    tuples in it."""
    if value is None:
        return []
    if isinstance(value, Bag):
        rows = value.rows
        return rows if set(map(type, rows)) <= {tuple} else [tuple(r) for r in rows]
    if isinstance(value, list):
        if set(map(type, value)) <= {tuple}:
            return value
        return [v if isinstance(v, tuple) else (v,) for v in value]
    if isinstance(value, tuple):
        return [value]
    return [(value,)]
