"""A tour of the ReStore repository internals.

Shows the machinery the paper describes in §2.2-§5: what an entry
stores, how the §3 ordering rules (subsumption first, then I/O ratio
and execution time) arrange the scan order, plan rendering, and
persistence across engine restarts (one log: the stored outputs, the
stored plans, the mutation records and a checkpoint of the index).

Run:  python examples/repository_tour.py
"""

import os
import tempfile

from repro import ReStoreSession
from repro.persistence import PersistenceConfig

PV = "user, action:int, timestamp:int, est_revenue:double, page_info, page_links"


def main() -> None:
    state = tempfile.TemporaryDirectory()
    config = PersistenceConfig(
        snapshot_path=os.path.join(state.name, "repo.snapshot"),
        journal_path=os.path.join(state.name, "repo.journal"),
        backend="local",
    )
    session = ReStoreSession(persistence=config)
    session.write_file(
        "data/page_views",
        "\n".join(
            f"u{i % 6}\t{i % 4}\t{i}\t{i * 0.25}\tinfo\tlinks" for i in range(80)
        )
        + "\n",
    )

    session.run(f"""
        A = load 'data/page_views' as ({PV});
        B = filter A by est_revenue > 5.0;
        C = foreach B generate user, est_revenue;
        D = group C by user;
        E = foreach D generate group, SUM(C.est_revenue);
        store E into 'out/revenue';
    """)

    print("=== repository contents (scan order) ===")
    for entry in session.repository.ordered_entries():
        stats = entry.stats
        print(
            f"{entry.entry_id}  kind={entry.anchor_kind:10s} "
            f"in={stats.input_bytes:6d}B out={stats.output_bytes:6d}B "
            f"ratio={stats.io_ratio:7.1f} est={stats.exec_time_s:6.1f}s "
            f"-> {entry.output_path}"
        )

    print("\n=== one stored physical plan ===")
    biggest = session.repository.ordered_entries()[0]
    print(biggest.plan.describe())

    print("\n=== GraphViz rendering (paste into dot) ===")
    print(biggest.plan.to_dot("stored_plan"))

    print("\n=== subsumption (§3 ordering rule 1) ===")
    # the pairs the repository recorded at registration, among the
    # first four entries of the scan
    first = [entry.entry_id for entry in session.repository.ordered_entries()[:4]]
    pairs = set(session.repository.subsumption_pairs())
    for a in first:
        for b in first:
            if (a, b) in pairs:
                print(f"{a} subsumes {b}")

    print("\n=== persistence round trip ===")
    checkpoint = session.persister.take_snapshot()
    session.close()
    files = {
        name: os.path.getsize(os.path.join(state.name, name))
        for name in sorted(os.listdir(state.name))
    }
    restored = ReStoreSession(dfs=session.dfs, persistence=config)
    print(
        f"log files {files} (the checkpoint: {checkpoint.bytes} bytes); "
        f"restored {len(restored.repository)} entries with matching "
        "fingerprints: "
        + str(
            all(
                restored.repository.get(e.entry_id).plan.fingerprint()
                == e.plan.fingerprint()
                for e in session.repository
            )
        )
    )
    restored.close()
    state.cleanup()


if __name__ == "__main__":
    main()
