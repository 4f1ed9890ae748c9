"""Quickstart: the paper's Q1/Q2 example end to end.

Opens a :class:`repro.ReStoreSession` (simulated cluster + ReStore in
one object), runs Q1 (join of page_views and users), then submits Q2
(same join + group/aggregate) and watches ReStore answer Q2's join job
entirely from Q1's stored output — the flow of the paper's Figures 2-4.

Run:  python examples/quickstart.py
"""

from repro import ReStoreSession

# 1. A session: simulated HDFS + cluster + ReStore, wired together -------------------

session = ReStoreSession()
session.write_file(
    "data/page_views",
    "\n".join(
        f"user_{i % 5}\t{i % 3}\t{1000 + i}\t{i * 0.5}\tinfo{i}\tlinks{i}"
        for i in range(50)
    )
    + "\n",
)
session.write_file(
    "data/users",
    "\n".join(
        f"user_{i}\t555-010{i}\t{i} king st\twaterloo" for i in range(4)
    )
    + "\n",
)

Q1 = """
A = load 'data/page_views' as (user, action:int, timestamp:int,
    est_revenue:double, page_info, page_links);
B = foreach A generate user, est_revenue;
alpha = load 'data/users' as (name, phone, address, city);
beta = foreach alpha generate name;
C = join beta by name, B by user;
store C into 'out/q1';
"""

Q2 = """
A = load 'data/page_views' as (user, action:int, timestamp:int,
    est_revenue:double, page_info, page_links);
B = foreach A generate user, est_revenue;
alpha = load 'data/users' as (name, phone, address, city);
beta = foreach alpha generate name;
C = join beta by name, B by user;
D = group C by $0;
E = foreach D generate group, SUM(C.est_revenue);
store E into 'out/q2';
"""

# 2. Run Q1; its job outputs and sub-jobs populate the repository ----------------------

r1 = session.run(Q1, name="Q1")
print(f"Q1 produced {len(r1.outputs['out/q1'])} join rows "
      f"in {r1.sim_minutes:.2f} simulated minutes")
print(f"repository now holds {len(session.repository)} entries:")
for entry in session.repository.ordered_entries():
    print(f"  {entry.entry_id}  {entry.anchor_kind:10s} -> {entry.output_path}")

# 3. Run Q2: the matcher finds Q1's stored join and rewrites ---------------------------

r2 = session.run(Q2, name="Q2")
print(f"\nQ2 answered in {r2.sim_minutes:.2f} simulated minutes "
      f"(Q1 took {r1.sim_minutes:.2f})")
print("typed events for the run:")
for event in r2.events:
    print(f"  {type(event).__name__}: {event}")
print("\nper-user revenue:")
for user, revenue in sorted(r2.outputs["out/q2"]):
    print(f"  {user}: {revenue:.1f}")

print("\nsession summary:")
print(session.report())
