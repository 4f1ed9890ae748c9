"""Outside-in layer tracer: spans around calls into each package.

The benchmark may not edit ``src/``, so a layer is timed from the
benchmark's side by temporarily replacing public callables (module or
class attributes) with recording wrappers.  The traced repeat drives
the very same ``session.run(source)`` entry as the untraced one.

A span is ``(name, start, end, parent, query id)``; spans stay in
per-thread in-memory lists until the run ends.  A span's *self* time is
its duration minus the part its direct children cover, and a layer's
time is the self time of the spans named ``<layer>.*``.

A target that no longer exists (a later PR moved it) is skipped with a
warning; the metrics derived from it read ``None``.  End-to-end
metrics never depend on this module.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: span name -> (module, class or None, attribute).  The functions the
#: Pig front end calls are wrapped where ``repro.pig.engine`` looks
#: them up, which is what makes a module-level function interceptable.
TARGETS: Dict[str, Tuple[str, Optional[str], str]] = {
    "pig.parse": ("repro.pig.engine", None, "parse"),
    "pig.logical": ("repro.pig.engine", None, "build_logical_plan"),
    "pig.optimize": ("repro.pig.engine", "LogicalOptimizer", "optimize"),
    "pig.mrcompile": ("repro.pig.engine", "MRCompiler", "compile"),
    "pig.compile": ("repro.pig.engine", "PigServer", "compile"),
    "pig.collect_outputs": ("repro.pig.engine", "PigServer", "run_workflow"),
    "mapreduce.workflow": (
        "repro.mapreduce.runner", "HadoopSimulator", "run_workflow"),
    "execution.run_job": (
        "repro.mapreduce.runner", "HadoopSimulator", "run_job"),
    "core.workflow_start": (
        "repro.core.manager", "ReStoreManager", "on_workflow_start"),
    "core.evict": ("repro.core.manager", "ReStoreManager", "run_evictions"),
    "core.before_job": ("repro.core.manager", "ReStoreManager", "before_job"),
    "core.after_job": ("repro.core.manager", "ReStoreManager", "after_job"),
    "core.workflow_end": (
        "repro.core.manager", "ReStoreManager", "on_workflow_end"),
    "core.match_candidates": (
        "repro.core.repository", "Repository", "match_candidates"),
    "core.matcher": ("repro.core.matcher", "PlanMatcher", "match"),
    "core.enumerate": (
        "repro.core.enumerator", "SubJobEnumerator", "enumerate_and_inject"),
    "dfs.read_rows": (
        "repro.dfs.filesystem", "DistributedFileSystem", "read_rows"),
    "dfs.write_rows": (
        "repro.dfs.filesystem", "DistributedFileSystem", "write_rows"),
    "dfs.append": ("repro.dfs.filesystem", "DistributedFileSystem", "append"),
    "persistence.flush": (
        "repro.persistence.durability", "RepositoryPersister", "flush"),
    "persistence.snapshot": (
        "repro.persistence.durability", "RepositoryPersister",
        "take_snapshot"),
    "persistence.recover": ("repro.session", None, "recover"),
    "service.submit": (
        "repro.service.jobservice", "ServiceSession", "submit"),
}

#: root span opened by the benchmark loop around one submission; its
#: self time is what no named layer accounts for
ROOT = "query"


class _ThreadSpans(threading.local):
    def __init__(self):
        self.spans: Optional[list] = None
        self.stack: list = []
        self.qid = -1


class Tracer:
    """Installs the wrappers, collects spans, restores the originals."""

    def __init__(self) -> None:
        self._local = _ThreadSpans()
        self._all: List[list] = []
        self._register = threading.Lock()
        self._undo: List[Tuple[object, str, object]] = []
        #: span names whose target is gone
        self.missing: set = set()
        #: set by the benchmark while the timed stream runs: only those
        #: spans count towards a layer's share of the stream
        self.streaming = False
        #: path -> schema fingerprints with a typed dataset pinned, as
        #: far as the calls seen from outside tell ("*" after a typed
        #: write): splits read_rows into cold text parses and hits
        self._pinned: Dict[str, set] = defaultdict(set)

    # -- span recording -------------------------------------------------------------

    def _spans(self) -> list:
        local = self._local
        if local.spans is None:
            local.spans = []
            with self._register:
                self._all.append(local.spans)
        return local.spans

    def _open(self, name: str) -> int:
        local = self._local
        spans = self._spans()
        index = len(spans)
        parent = local.stack[-1] if local.stack else -1
        spans.append(
            [name, time.perf_counter(), 0.0, parent, local.qid, self.streaming]
        )
        local.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        end = time.perf_counter()
        local = self._local
        local.spans[index][2] = end
        local.stack.pop()

    def begin(self, qid: int) -> None:
        """Open the root span of submission *qid* on this thread."""
        self._local.qid = qid
        self._open(ROOT)

    def end(self) -> None:
        local = self._local
        self._close(local.stack[-1])
        local.qid = -1

    def _wrap(self, name: str, original: Callable) -> Callable:
        rename = {
            "dfs.read_rows": self._classify_read,
            "dfs.write_rows": self._note_typed_write,
            "dfs.append": self._note_append,
        }.get(name)

        def traced(*args, **kwargs):
            index = self._open(rename(args) if rename else name)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(index)

        traced.__wrapped__ = original
        return traced

    def _classify_read(self, args) -> str:
        if len(args) < 3:  # called by keyword: cannot tell
            return "dfs.read_rows.repeat"
        pinned = self._pinned[args[1]]
        fingerprint = args[2].fingerprint()
        if fingerprint in pinned or "*" in pinned:
            return "dfs.read_rows.repeat"
        pinned.add(fingerprint)
        return "dfs.read_rows.first"

    def _note_typed_write(self, args) -> str:
        if len(args) > 1:
            self._pinned[args[1]] = {"*"}
        return "dfs.write_rows"

    def _note_append(self, args) -> str:
        if len(args) > 1:
            self._pinned.pop(args[1], None)
        return "dfs.append"

    # -- install / remove -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists.  Call on a fresh filesystem:
        the view of what is pinned starts empty."""
        self._pinned.clear()
        for name, (module_name, owner_name, attr) in TARGETS.items():
            try:
                owner = importlib.import_module(module_name)
                if owner_name is not None:
                    owner = getattr(owner, owner_name)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                if name in self.missing:
                    continue
                self.missing.add(name)
                print(
                    f"warning: trace target {module_name}."
                    f"{owner_name + '.' if owner_name else ''}{attr} is "
                    f"gone; metrics from span {name!r} read null",
                    file=sys.stderr,
                )
                continue
            setattr(owner, attr, self._wrap(name, original))
            self._undo.append((owner, attr, original))

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- aggregation ----------------------------------------------------------------

    def totals(self) -> Dict[str, "SpanTotals"]:
        """Per span name: calls, total and self seconds, durations."""
        out: Dict[str, SpanTotals] = defaultdict(SpanTotals)
        for spans in self._all:
            covered = [0.0] * len(spans)
            for _, start, end, parent, _, _ in spans:
                if parent >= 0:
                    covered[parent] += end - start
            for (name, start, end, _, _, streaming), inner in zip(
                spans, covered
            ):
                total = out[name]
                total.calls += 1
                total.seconds += end - start
                total.self_seconds += end - start - inner
                if streaming:
                    total.stream_self_seconds += end - start - inner
                total.durations.append(end - start)
        return out

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (times relative to the
        first span of the run)."""
        origin = min(
            (spans[0][1] for spans in self._all if spans), default=0.0
        )
        with open(path, "w") as handle:
            for thread, spans in enumerate(self._all):
                for index, (name, start, end, parent, qid, _) in enumerate(
                    spans
                ):
                    handle.write(json.dumps({
                        "thread": thread, "id": index, "name": name,
                        "start": start - origin, "end": end - origin,
                        "parent": parent, "query": qid,
                    }) + "\n")


class SpanTotals:
    __slots__ = ("calls", "seconds", "self_seconds", "stream_self_seconds",
                 "durations")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.self_seconds = 0.0
        self.stream_self_seconds = 0.0
        self.durations: List[float] = []


def layer_seconds(totals: Dict[str, SpanTotals]) -> Dict[str, float]:
    """Self time per layer (the span-name prefix before the dot),
    spent while the timed stream ran."""
    layers: Dict[str, float] = defaultdict(float)
    for name, total in totals.items():
        if name != ROOT:
            layers[name.split(".", 1)[0]] += total.stream_self_seconds
    return layers
