"""Seeded input generators and the Pig Latin texts of the benchmark.

Everything the program under test receives comes from here: table
bytes and query source strings, both pure functions of ``seed`` and the
size parameters.  Nothing is imported from ``repro`` — later PRs edit
``repro.pigmix`` / ``repro.workloads`` / ``repro.bench``, and the
benchmark must feed the parent commit and the change identical bytes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

PV_SCHEMA = (
    "user, action:int, timestamp:int, est_revenue:double, "
    "page_info, page_links"
)
USERS_SCHEMA = "name, phone, address, city"
WIDEROW_SCHEMA = (
    "user, f1:int, f2:int, f3:int, f4:int, f5:int, f6:int, f7:int, f8:int"
)
LOG_SCHEMA = "user, action:int, timestamp:int, est_revenue:double"

_CITIES = ("waterloo", "toronto", "kitchener", "ottawa", "guelph")


@dataclass(frozen=True)
class Step:
    """One step of a workload stream.

    ``kind == "query"``: submit ``source``; its single final output
    lands in ``out``.  ``key`` identifies the query up to its output
    path, ``reads`` names the input files it loads — together with the
    inputs' versions they determine the expected output, which lets the
    oracle answer repeated queries from a memo.

    ``kind == "append"``: append ``data`` to the input file ``out``.
    """

    kind: str
    out: str
    source: str = ""
    key: str = ""
    reads: Tuple[str, ...] = ()
    data: bytes = b""


@dataclass
class Plan:
    """Inputs + stream of one workload, as generated from a seed."""

    files: Dict[str, bytes] = field(default_factory=dict)
    steps: List[Step] = field(default_factory=list)

    @property
    def input_bytes(self) -> int:
        appended = sum(len(s.data) for s in self.steps if s.kind == "append")
        return sum(len(b) for b in self.files.values()) + appended

    @property
    def queries(self) -> List[Step]:
        return [s for s in self.steps if s.kind == "query"]


# -- PigMix -------------------------------------------------------------------


def _user(index: int) -> str:
    return f"user_{index:06d}"


def pigmix_tables(
    rng: random.Random,
    prefix: str,
    n_page_views: int,
    n_users: int,
    n_power_users: int,
    n_widerow: int,
) -> Dict[str, bytes]:
    """One PigMix instance: wide ``page_views`` (~1.1 KB/row, so that
    projecting two columns keeps ~2 % of the bytes, paper Table 1) and
    the three small tables.  ``getrandbits`` hex filler keeps the row
    width at a fraction of the per-character generator's cost."""
    n_inactive = max(1, n_users // 40)  # L5's anti-join must find someone
    n_active = n_users - n_inactive
    rows = []
    for i in range(n_page_views):
        # widths vary by a few percent, as real rows do; this also keeps
        # two seeds from producing byte-for-byte equal table sizes
        info, links = rng.randrange(380, 421), rng.randrange(670, 731)
        rows.append(
            "%s\t%d\t%d\t%.2f\tinfo_%0*x\tlinks_%0*x"
            % (
                _user(int(n_active * rng.random() ** 2)),
                1 + int(rng.random() * 8),
                1_300_000_000 + i,
                rng.random() * 99.99,
                info, rng.getrandbits(4 * info),
                links, rng.getrandbits(4 * links),
            )
        )
    page_views = "\n".join(rows) + "\n"

    users = "".join(
        "%s\t555-%04d\t%d main st\t%s\n"
        % (_user(i), rng.randrange(10000), rng.randrange(1, 1000),
           rng.choice(_CITIES))
        for i in range(n_users)
    )
    # skip the hottest third so the L2/L3 join stays selective
    population = range(n_active // 3, n_active)
    power = sorted(rng.sample(population, min(n_power_users, len(population))))
    power_users = "".join(
        "%s\t555-%04d\t%d king st\t%s\n"
        % (_user(i), rng.randrange(10000), rng.randrange(1, 1000),
           rng.choice(_CITIES[:2]))
        for i in power
    )
    widerow = "".join(
        "%s\t%s\n"
        % (
            _user(int(n_active * rng.random() ** 2)),
            "\t".join(str(rng.randrange(1000)) for _ in range(8)),
        )
        for _ in range(n_widerow)
    )
    return {
        f"{prefix}/page_views": page_views.encode(),
        f"{prefix}/users": users.encode(),
        f"{prefix}/power_users": power_users.encode(),
        f"{prefix}/widerow": widerow.encode(),
    }


def _l2(p, out):
    return f"""
A = load '{p}/page_views' as ({PV_SCHEMA});
B = foreach A generate user, est_revenue;
alpha = load '{p}/power_users' as ({USERS_SCHEMA});
beta = foreach alpha generate name;
C = join beta by name, B by user;
store C into '{out}';
"""


def _l3(agg):
    def build(p, out):
        return f"""
A = load '{p}/page_views' as ({PV_SCHEMA});
B = foreach A generate user, est_revenue;
alpha = load '{p}/power_users' as ({USERS_SCHEMA});
beta = foreach alpha generate name;
C = join beta by name, B by user;
D = group C by $0;
E = foreach D generate group, {agg}(C.est_revenue);
store E into '{out}';
"""
    return build


def _l4(p, out):
    return f"""
A = load '{p}/page_views' as ({PV_SCHEMA});
B = foreach A generate user, action;
C = distinct B;
D = group C by user;
E = foreach D generate group, COUNT(C.action);
store E into '{out}';
"""


def _l5(p, out):
    return f"""
A = load '{p}/page_views' as ({PV_SCHEMA});
B = foreach A generate user;
alpha = load '{p}/users' as ({USERS_SCHEMA});
beta = foreach alpha generate name;
C = join beta by name left outer, B by user;
D = filter C by user is null;
E = foreach D generate name;
store E into '{out}';
"""


def _l6(p, out):
    return f"""
A = load '{p}/page_views' as ({PV_SCHEMA});
B = foreach A generate user, action, timestamp, est_revenue;
C = group B by (user, action);
D = foreach C generate group, SUM(B.est_revenue);
store D into '{out}';
"""


def _l7(p, out):
    return f"""
A = load '{p}/page_views' as ({PV_SCHEMA});
B = foreach A generate user, est_revenue;
alpha = load '{p}/users' as ({USERS_SCHEMA});
beta = foreach alpha generate name, city;
C = cogroup B by user, beta by name;
D = foreach C generate group, SUM(B.est_revenue), COUNT(beta.city);
store D into '{out}';
"""


def _l8(p, out):
    return f"""
A = load '{p}/page_views' as ({PV_SCHEMA});
B = foreach A generate user, est_revenue, timestamp;
C = group B all;
D = foreach C generate SUM(B.est_revenue), AVG(B.timestamp), COUNT(B.user);
store D into '{out}';
"""


_L11_SOURCES = {
    "page_views": (PV_SCHEMA, "user"),
    "widerow": (WIDEROW_SCHEMA, "user"),
    "users": (USERS_SCHEMA, "name"),
    "power_users": (USERS_SCHEMA, "name"),
}


def _l11(*tables):
    """Distinct users of each table, unioned and deduplicated: one
    distinct job per source plus the final one (the §7.1 workflow
    shape); the variants change the sources."""
    aliases = ("A B C", "alpha beta gamma", "x y z")

    def build(p, out):
        text, heads = "", []
        for table, names in zip(tables, aliases):
            load, project, distinct = names.split()
            schema, column = _L11_SOURCES[table]
            text += (
                f"{load} = load '{p}/{table}' as ({schema});\n"
                f"{project} = foreach {load} generate {column};\n"
                f"{distinct} = distinct {project};\n"
            )
            heads.append(distinct)
        return (
            f"\n{text}D = union {', '.join(heads)};\n"
            f"E = distinct D;\nstore E into '{out}';\n"
        )
    return build


#: the paper's PigMix subset (§7): name -> (builder, tables read)
PIGMIX_BASE = {
    "L2": (_l2, ("page_views", "power_users")),
    "L3": (_l3("SUM"), ("page_views", "power_users")),
    "L4": (_l4, ("page_views",)),
    "L5": (_l5, ("page_views", "users")),
    "L6": (_l6, ("page_views",)),
    "L7": (_l7, ("page_views", "users")),
    "L8": (_l8, ("page_views",)),
    "L11": (_l11("page_views", "widerow"), ("page_views", "widerow")),
}

#: the §7.1 variant workload: L3 changes the aggregate, L11 the sources
#: (with the base L3 and L11 resubmitted, the stream has 9 entries)
PIGMIX_VARIANTS = {
    "L3": PIGMIX_BASE["L3"],
    "L3a": (_l3("AVG"), ("page_views", "power_users")),
    "L3b": (_l3("COUNT"), ("page_views", "power_users")),
    "L3c": (_l3("MAX"), ("page_views", "power_users")),
    "L11": PIGMIX_BASE["L11"],
    "L11a": (_l11("page_views", "users"), ("page_views", "users")),
    "L11b": (_l11("page_views", "power_users"),
             ("page_views", "power_users")),
    "L11c": (_l11("page_views", "widerow", "users"),
             ("page_views", "widerow", "users")),
    "L11d": (_l11("widerow", "page_views"), ("widerow", "page_views")),
}


def _pigmix_step(queries, name, prefix, out) -> Step:
    builder, tables = queries[name]
    return Step(
        kind="query",
        out=out,
        source=builder(prefix, out),
        key=f"{prefix}:{name}",
        reads=tuple(f"{prefix}/{t}" for t in tables),
    )


def _pigmix_prefixes(sizes: dict) -> List[str]:
    return [f"pigmix/i{k:02d}" for k in range(sizes["instances"])]


def pigmix_stream(sizes: dict, passes: int = 0) -> List[Step]:
    """The first-run stream: 8 base queries per instance, instance by
    instance, so each instance's first query pays the cold parse of its
    wide rows.

    With ``passes`` > 0 the reuse stream instead: every pass submits
    the 8 base queries and the 9 variants against every instance, into
    fresh output paths.
    """
    steps = []
    if not passes:
        for k, prefix in enumerate(_pigmix_prefixes(sizes)):
            for name in PIGMIX_BASE:
                steps.append(
                    _pigmix_step(PIGMIX_BASE, name, prefix,
                                 f"out/first/i{k:02d}/{name}")
                )
        return steps
    for n in range(passes):
        for k, prefix in enumerate(_pigmix_prefixes(sizes)):
            for tag, queries in (("b", PIGMIX_BASE), ("v", PIGMIX_VARIANTS)):
                for name in queries:
                    steps.append(
                        _pigmix_step(queries, name, prefix,
                                     f"out/p{n:02d}/i{k:02d}/{tag}_{name}")
                    )
    return steps


def pigmix_plan(seed: int, sizes: dict, passes: int = 0) -> Plan:
    """K generated instances plus :func:`pigmix_stream`."""
    rng = random.Random(seed)
    plan = Plan(steps=pigmix_stream(sizes, passes))
    for prefix in _pigmix_prefixes(sizes):
        plan.files.update(
            pigmix_tables(
                rng, prefix, sizes["page_views"], sizes["users"],
                sizes["power_users"], sizes["widerow"],
            )
        )
    return plan


# -- tenant stream ------------------------------------------------------------


def _log_rows(rng: random.Random, day: int, start: int, n: int,
              n_users: int) -> bytes:
    return "".join(
        "%s\t%d\t%d\t%.2f\n"
        % (
            _user(int(n_users * rng.random() ** 2)),
            1 + int(rng.random() * 4),
            1_300_000_000 + day * 86_400 + start + i,
            rng.random() * 99.99,
        )
        for i in range(n)
    ).encode()


def _tenant_prefix(path: str, action: int) -> str:
    return (
        f"\nA = load '{path}' as ({LOG_SCHEMA});\n"
        f"B = filter A by action == {action};\n"
        f"C = foreach B generate user, est_revenue, timestamp;\n"
    )


#: the five tails over the shared load -> filter -> project prefix
TENANT_TAILS = {
    "sum_by_user": (
        "D = group C by user;\n"
        "E = foreach D generate group, SUM(C.est_revenue);\n"
        "store E into '{out}';\n"
    ),
    "count_by_user": (
        "D = group C by user;\n"
        "E = foreach D generate group, COUNT(C.timestamp);\n"
        "store E into '{out}';\n"
    ),
    "total": (
        "D = group C all;\n"
        "E = foreach D generate SUM(C.est_revenue), COUNT(C.user);\n"
        "store E into '{out}';\n"
    ),
    "distinct_users": (
        "D = foreach C generate user;\n"
        "E = distinct D;\n"
        "store E into '{out}';\n"
    ),
    "bare": "store C into '{out}';\n",
}


_TRAFFIC = 20120827  # the paper's VLDB week; any constant does


def tenant_plan(seed: int, sizes: dict, root: str = "") -> Plan:
    """Day-partitioned narrow logs and a templated query stream.

    Low-numbered days are hot (``day = int(P * u**2)``), so the stream mixes
    exact repeats (whole-job hits), same-prefix-other-tail variants
    (sub-job hits) and cold (day, action) pairs (misses).  With
    ``append_every`` > 0 every such step appends ``append_rows`` rows
    to one of the three hottest partitions, exercising the freshness
    guard and delta refresh.  ``root`` prefixes every path (a warm-up
    that shares a filesystem with the real stream uses its own).
    """
    rng = random.Random(seed)
    n_days, rows, n_users = sizes["partitions"], sizes["rows"], sizes["users"]
    plan = Plan()
    grown = {}
    for day in range(n_days):
        plan.files[f"{root}logs/day_{day:02d}"] = _log_rows(
            rng, day, 0, rows, n_users
        )
        grown[day] = rows
    # The traffic — which (day, action, tail) triples are asked, how
    # often and in which order — is the same for every seed; the seed
    # decides the data.  Drawn from the seed, the hit ratio of a few
    # hundred queries, and with it every latency percentile, swings by
    # 10 % and more between seeds.
    traffic = random.Random(_TRAFFIC)
    tails = list(TENANT_TAILS)
    asked = [
        (int(n_days * traffic.random() ** 2), traffic.randint(1, 4),
         traffic.choice(tails))
        for _ in range(sizes["queries"])
    ]
    every, extra = sizes.get("append_every", 0), sizes.get("append_rows", 0)
    for n, (day, action, tail) in enumerate(asked):
        if every and n and n % every == 0:
            hot = (n // every) % min(3, n_days)
            plan.steps.append(
                Step(
                    kind="append",
                    out=f"{root}logs/day_{hot:02d}",
                    data=_log_rows(rng, hot, grown[hot], extra, n_users),
                )
            )
            grown[hot] += extra
        path = f"{root}logs/day_{day:02d}"
        out = f"{root}out/q{n:05d}"
        plan.steps.append(
            Step(
                kind="query",
                out=out,
                source=_tenant_prefix(path, action)
                + TENANT_TAILS[tail].format(out=out),
                key=f"{path}:{action}:{tail}",
                reads=(path,),
            )
        )
    return plan
