"""A tour of the ReStore repository internals.

Shows the machinery the paper describes in §2.2-§5: what an entry
stores, how the §3 ordering rules (subsumption first, then I/O ratio
and execution time) arrange the scan order, plan rendering, and
snapshot persistence across engine restarts.

Run:  python examples/repository_tour.py
"""

from repro import ReStoreSession
from repro.persistence.snapshot import RepositorySnapshot

PV = "user, action:int, timestamp:int, est_revenue:double, page_info, page_links"


def main() -> None:
    session = ReStoreSession()
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
    entries = session.repository.ordered_entries()
    matcher = session.manager.matcher
    for a in entries[:4]:
        for b in entries[:4]:
            if a is not b and matcher.contains(a.plan, b.plan):
                print(f"{a.entry_id} subsumes {b.entry_id}")

    print("\n=== persistence round trip ===")
    payload = RepositorySnapshot.capture(session.repository).to_bytes()
    restored = RepositorySnapshot.from_bytes(payload).restore_repository()
    print(
        f"serialized {len(payload)} bytes; restored "
        f"{len(restored)} entries with matching fingerprints: "
        + str(
            all(
                restored.get(e.entry_id).plan.fingerprint()
                == e.plan.fingerprint()
                for e in session.repository
            )
        )
    )


if __name__ == "__main__":
    main()
