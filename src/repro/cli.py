"""Command-line interface: run Pig scripts and paper experiments.

Usage::

    python -m repro run script.pig --data data/pv.tsv=pigmix/page_views
    python -m repro explain script.pig
    python -m repro experiment fig10 --rows 300
    python -m repro list-experiments

``run``/``explain`` build a fresh session (simulated cluster + ReStore;
disable with ``--no-restore``), copy the given local files into the
DFS, and execute the script.  ReStore policies are pluggable by name:
``--heuristic conservative --selector rules --evict time-window:4``.

``run --workers N`` (or ``--executor threads|processes``) routes the
script through the shared :class:`~repro.service.JobService` instead
of a private session — the deployment shape the paper's §1 shared
service describes.  ``--executor processes`` executes on the
spawn-based worker-process pool.

``--snapshot``/``--journal`` make the repository durable across
invocations: the session recovers from the named local files before
running, journals every mutation, and rotates a fresh snapshot on
exit.  Stored output payloads persist natively in the crc-framed
block store next to the snapshot (``<snapshot>.blocks.g<N>``), and
recovery scrubs every entry against it — restoring intact bytes into
the fresh DFS and condemning anything missing or corrupt instead of
serving it::

    python -m repro run q1.pig --data pv.tsv=data/pv --snapshot state.snap
    python -m repro run q2.pig --data pv.tsv=data/pv --snapshot state.snap
    # q2's overlapping sub-jobs are answered from q1's stored results
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import List, Optional

from repro.events import LOG_EVENTS, render_events
from repro.session import ReStoreSession


def _persistence_config(args):
    """Turn ``--snapshot``/``--journal`` into a local-backend config.

    Either flag implies the other: a lone ``--snapshot state.snap``
    journals to ``state.snap.journal``; a lone ``--journal`` derives
    the snapshot path the same way in reverse.
    """
    snapshot, journal = args.snapshot, args.journal
    if snapshot is None and journal is None:
        return None
    if args.no_restore:
        raise SystemExit("--snapshot/--journal require ReStore "
                         "(drop --no-restore)")
    if snapshot is None:
        snapshot = (journal[: -len(".journal")]
                    if journal.endswith(".journal")
                    else journal + ".snapshot")
    if journal is None:
        journal = snapshot + ".journal"
    from repro.persistence.durability import PersistenceConfig

    return PersistenceConfig(
        snapshot_path=snapshot, journal_path=journal, backend="local"
    )


def _load_data(target, mappings: List[str]) -> None:
    for mapping in mappings:
        if "=" not in mapping:
            raise SystemExit(
                f"--data expects LOCAL=DFS_PATH, got {mapping!r}"
            )
        local, dfs_path = mapping.split("=", 1)
        payload = pathlib.Path(local).read_bytes()
        target.dfs.write_file(dfs_path, payload, overwrite=True)


def _build_session(args) -> ReStoreSession:
    builder = ReStoreSession.builder()
    persistence = _persistence_config(args)
    if args.no_restore:
        builder.without_restore()
    else:
        builder.heuristic(args.heuristic).selector(args.selector)
        if args.evict:
            builder.evict(*args.evict)
        if persistence is not None:
            builder.persistence(persistence)
    try:
        session = builder.build()
    except ValueError as exc:
        # unknown plugin names / bad specs: the message lists the
        # valid registry entries
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    _load_data(session, args.data or [])
    return session


def _run_via_service(args, source: str, name: str):
    """Route the script through a :class:`~repro.service.JobService`
    worker pool — the shared multi-tenant deployment — instead of a
    private session.  Returns ``(outcome, repository_size)``."""
    from repro.core.manager import ReStoreConfig
    from repro.service import JobService, ServiceConfig

    if args.no_restore:
        raise SystemExit(
            "--workers/--executor run the shared ReStore JobService "
            "(drop --no-restore, or drop the service flags)"
        )
    persistence = _persistence_config(args)
    timeout = getattr(args, "exchange_timeout", 30.0)
    service_config = ServiceConfig(
        executor=args.executor or "threads",
        max_workers=args.workers,
        exchange_timeout=timeout if timeout and timeout > 0 else None,
        retries=getattr(args, "retries", 1),
    )
    config = ReStoreConfig(
        heuristic=args.heuristic,
        selector=args.selector,
        eviction_policies=list(args.evict or []),
    )
    try:
        service = JobService(
            config=config,
            persistence=persistence,
            service=service_config,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    try:
        _load_data(service, args.data or [])
        outcome = service.open_session("cli").run(source, name=name)
        if service.persister is not None:
            # rotate a fresh snapshot, so the next invocation replays
            # no journal and restores its payloads from the block store
            service.persister.take_snapshot()
        return outcome, len(service.repository)
    finally:
        service.shutdown(wait=True)


def cmd_run(args) -> int:
    source = pathlib.Path(args.script).read_text()
    name = pathlib.Path(args.script).stem
    if args.executor is not None or args.workers > 1:
        result, repo_entries = _run_via_service(args, source, name)
    else:
        session = _build_session(args)
        result = session.run(source, name=name)
        if session.persister is not None:
            # rotate a fresh snapshot, so the next invocation replays
            # no journal and restores its payloads from the block store
            session.persister.take_snapshot()
        repo_entries = (
            len(session.repository) if session.repository is not None else None
        )

    for path, rows in result.outputs.items():
        print(f"== {path} ({len(rows)} rows) ==")
        for row in rows[: args.max_rows]:
            print("\t".join("" if v is None else str(v) for v in row))
        if len(rows) > args.max_rows:
            print(f"... {len(rows) - args.max_rows} more rows")
    print(f"\nsimulated time: {result.sim_minutes:.2f} min "
          f"({result.stats.n_jobs_executed} job(s) executed)")
    decisions = render_events(result.events, LOG_EVENTS)
    if decisions:
        print("ReStore rewrites:")
        for line in decisions:
            print(f"  {line}")
    if repo_entries is not None:
        print(f"repository: {repo_entries} entries")
    return 0


def cmd_explain(args) -> int:
    source = pathlib.Path(args.script).read_text()
    session = _build_session(args)
    print(session.explain(source))
    return 0


def _experiment_registry() -> dict:
    from repro.experiments import ALL_EXPERIMENTS
    from repro.experiments import ablations

    registry = {
        name: module.run for name, module in ALL_EXPERIMENTS.items()
    }
    registry["ablation-selector"] = ablations.run_selector_ablation
    return registry


def cmd_experiment(args) -> int:
    from repro.pigmix.datagen import PigMixConfig
    from repro.pigmix.synthetic import SyntheticConfig

    registry = _experiment_registry()
    if args.name not in registry:
        print(f"unknown experiment {args.name!r}; try one of:", file=sys.stderr)
        for name in sorted(registry):
            print(f"  {name}", file=sys.stderr)
        return 2

    runner = registry[args.name]
    kwargs = {}
    if args.name in ("table2", "fig16", "fig17"):
        kwargs["config"] = SyntheticConfig(n_rows=max(200, args.rows * 3))
    else:
        kwargs["pigmix_config"] = PigMixConfig(
            n_page_views=args.rows,
            n_users=max(10, args.rows // 10),
            n_power_users=max(4, args.rows // 50),
            n_widerow=max(20, args.rows // 4),
        )
    result = runner(**kwargs)
    print(result.format_table())
    return 0


def cmd_list_experiments(_args) -> int:
    for name in sorted(_experiment_registry()):
        print(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ReStore reproduction: run Pig scripts and experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_engine_args(p):
        p.add_argument("script", help="Pig Latin script file")
        p.add_argument(
            "--data",
            action="append",
            metavar="LOCAL=DFS_PATH",
            help="copy a local file into the simulated DFS (repeatable)",
        )
        p.add_argument(
            "--no-restore",
            action="store_true",
            help="run on a stock engine without ReStore",
        )
        p.add_argument(
            "--heuristic",
            default="aggressive",
            metavar="NAME",
            help="sub-job heuristic plugin (e.g. conservative, "
                 "aggressive, no-heuristic, never)",
        )
        p.add_argument(
            "--selector",
            default="keep-all",
            metavar="NAME",
            help="keep selector plugin (e.g. keep-all, rules)",
        )
        p.add_argument(
            "--evict",
            action="append",
            metavar="NAME[:ARG]",
            help="eviction policy plugin, repeatable (e.g. "
                 "time-window:4, input-modified, capacity:1048576)",
        )
        p.add_argument(
            "--snapshot",
            metavar="PATH",
            help="persist the repository to a local snapshot file and "
                 "recover from it on the next run (journals to "
                 "PATH.journal unless --journal overrides; stored "
                 "payloads live in PATH.blocks.g<N>)",
        )
        p.add_argument(
            "--journal",
            metavar="PATH",
            help="append-only journal file for repository mutations "
                 "(implies --snapshot with a derived path)",
        )

    run_p = sub.add_parser("run", help="execute a Pig script")
    add_engine_args(run_p)
    run_p.add_argument("--max-rows", type=int, default=20)
    run_p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="run through the shared JobService with this many pool "
             "workers (default 1 = private session)",
    )
    run_p.add_argument(
        "--executor",
        choices=("threads", "processes"),
        default=None,
        help="JobService execution substrate (implies the service "
             "path even with --workers 1)",
    )
    run_p.add_argument(
        "--exchange-timeout",
        type=float,
        default=30.0,
        help="process mode: seconds to wait for any single worker "
             "reply before killing the hung worker and retrying "
             "(0 = block forever; default 30)",
    )
    run_p.add_argument(
        "--retries",
        type=int,
        default=1,
        help="process mode: replays of a submission after its worker "
             "crashed or hung (default 1)",
    )
    run_p.set_defaults(func=cmd_run)

    explain_p = sub.add_parser("explain", help="show the compiled workflow")
    add_engine_args(explain_p)
    explain_p.set_defaults(func=cmd_explain)

    exp_p = sub.add_parser("experiment", help="run a paper experiment")
    exp_p.add_argument("name", help="e.g. fig10, table1, ablation-selector")
    exp_p.add_argument(
        "--rows", type=int, default=300, help="generated page_views rows"
    )
    exp_p.set_defaults(func=cmd_experiment)

    list_p = sub.add_parser("list-experiments", help="list experiment names")
    list_p.set_defaults(func=cmd_list_experiments)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        if isinstance(exc.code, int):
            return exc.code
        raise


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
