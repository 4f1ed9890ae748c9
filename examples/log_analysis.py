"""A multi-analyst log-analysis scenario with repository management.

Models the motivating workload of the paper's introduction: a team of
analysts repeatedly querying a shared clickstream dataset ("load,
filter, then drill down").  Queries arrive over several days; ReStore
shares work across them, and the §5 eviction rules (time-window and
input-modified) keep the repository honest when logs rotate.

Built with the fluent session builder (eviction policies by name) and
a live subscription on the typed event bus.

Run:  python examples/log_analysis.py
"""

from repro import EntryEvicted, JobEliminated, ReStoreSession, RewriteApplied

LOG_SCHEMA = (
    "ip, user, timestamp:int, url, status:int, bytes:int, referrer, agent"
)


def write_logs(dfs, day: int, n: int = 60) -> None:
    rows = []
    for i in range(n):
        status = 200 if i % 7 else 500
        rows.append(
            f"10.0.0.{i % 9}\tuser_{i % 6}\t{day * 100000 + i}"
            f"\t/page/{i % 12}\t{status}\t{100 + i}\tref{i % 3}\tua{i % 2}"
        )
    dfs.write_file("logs/access", "\n".join(rows) + "\n", overwrite=True)


def analyst_queries(day: int):
    """Three analysts, overlapping prefixes, different drill-downs."""
    base = f"""
        A = load 'logs/access' as ({LOG_SCHEMA});
        B = filter A by status == 500;
        C = foreach B generate user, url, bytes;
    """
    return {
        f"errors_by_user_d{day}": base
        + f"""
        D = group C by user;
        E = foreach D generate group, COUNT(C.url);
        store E into 'reports/errors_by_user_d{day}';
        """,
        f"errors_by_url_d{day}": base
        + f"""
        D = group C by url;
        E = foreach D generate group, COUNT(C.user);
        store E into 'reports/errors_by_url_d{day}';
        """,
        f"error_bytes_d{day}": base
        + f"""
        D = group C all;
        E = foreach D generate SUM(C.bytes);
        store E into 'reports/error_bytes_d{day}';
        """,
    }


def main() -> None:
    session = (
        ReStoreSession.builder()
        .heuristic("aggressive")
        .evict("time-window:6", "input-modified")
        .build()
    )
    # Live telemetry: evictions announce themselves as they happen.
    session.events.subscribe(
        lambda event: print(f"      ! {event}"), event_types=EntryEvicted
    )

    for day in (1, 2, 3):
        print(f"=== day {day}: logs rotate, three analysts submit ===")
        write_logs(session.dfs, day)
        for name, query in analyst_queries(day).items():
            result = session.run(query, name=name)
            decisions = [
                e
                for e in result.events
                if isinstance(e, (RewriteApplied, JobEliminated))
            ]
            reuse = "reused" if decisions else "computed"
            print(
                f"  {name:22s} {result.sim_minutes:6.2f} sim-min  [{reuse}]"
            )
            for event in decisions:
                print(f"      {event.render()}")
        print(
            f"  repository: {len(session.repository)} entries, "
            f"{session.repository.total_stored_bytes} stored bytes"
        )

    print("\nThe first analyst of each day computes the shared filter;")
    print("the other two reuse it. Rotating the logs (input-modified rule)")
    print("evicts the previous day's entries automatically.")


if __name__ == "__main__":
    main()
