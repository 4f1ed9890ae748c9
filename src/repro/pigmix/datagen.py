"""PigMix-style data generation (paper §7).

The paper generates two instances of the PigMix data where the
``page_views`` table has 10M rows (~15 GB) or 100M rows (~150 GB); the
other tables (``users``, ``power_users``, ``widerow``) are much
smaller.  We generate structurally identical, scaled-down tables and
expose the ``data_scale`` factor that maps actual generated bytes to a
declared instance size for the cost model.

Field structure follows the paper's queries:

* ``page_views(user, action, timestamp, est_revenue, page_info,
  page_links)`` — user drawn with a skewed (power-law-ish)
  distribution, like real click logs;
* ``users(name, phone, address, city)`` — one row per user name, plus
  a few names that never appear in page_views (L5's anti-join);
* ``power_users`` — a small subset of users;
* ``widerow(user, f1..f8)`` — used by L11's union.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List

from repro.costmodel.calibration import GB
from repro.dfs.filesystem import DistributedFileSystem

#: declared instance sizes used throughout the paper's evaluation
DECLARED_BYTES = {
    "15GB": 15.06 * GB,
    "150GB": 150.6 * GB,
}


@dataclass
class PigMixConfig:
    """Row counts for the generated instance."""

    n_page_views: int = 2000
    n_users: int = 80
    n_power_users: int = 12
    n_widerow: int = 400
    #: user names in `users` that never occur in page_views (L5)
    n_inactive_users: int = 3
    seed: int = 42
    prefix: str = "pigmix"


@dataclass
class PigMixDataset:
    """Paths + measured sizes of one generated instance."""

    config: PigMixConfig
    paths: Dict[str, str] = field(default_factory=dict)
    actual_bytes: Dict[str, int] = field(default_factory=dict)

    def data_scale(self, scale_label: str) -> float:
        """Factor mapping generated bytes to the declared instance.

        Anchored on the page_views table, which dominates both the
        generated data and the paper's instances.
        """
        declared = DECLARED_BYTES[scale_label]
        return declared / max(1, self.actual_bytes["page_views"])


class PigMixDataGenerator:
    """Deterministic (seeded) generator writing tables into the DFS."""

    PAGE_VIEWS_SCHEMA = (
        "user, action:int, timestamp:int, est_revenue:double, "
        "page_info, page_links"
    )
    USERS_SCHEMA = "name, phone, address, city"
    WIDEROW_SCHEMA = (
        "user, f1:int, f2:int, f3:int, f4:int, f5:int, f6:int, f7:int, "
        "f8:int"
    )

    def __init__(self, config: PigMixConfig | None = None):
        self.config = config or PigMixConfig()

    # -- row producers -----------------------------------------------------------

    def _user_name(self, index: int) -> str:
        return f"user_{index:06d}"

    def _skewed_user(self, rng: random.Random, n_active: int) -> str:
        # Square the uniform draw: low ids are hot, like real logs.
        return self._user_name(int(n_active * rng.random() ** 2))

    def page_views_rows(self) -> List[str]:
        cfg = self.config
        rng = random.Random(cfg.seed)
        n_active = max(1, cfg.n_users - cfg.n_inactive_users)
        rows = []
        for i in range(cfg.n_page_views):
            user = self._skewed_user(rng, n_active)
            action = rng.randint(1, 8)
            timestamp = 1_300_000_000 + i
            est_revenue = round(rng.uniform(0.0, 9.99), 2)
            # page_info/page_links dominate the row (the real PigMix
            # page_views rows are ~1.5 KB wide, which is why projecting
            # (user, est_revenue) keeps only ~2% of the bytes, Table 1).
            page_info = "info_" + "".join(
                rng.choice("abcdefghijklmnop") for _ in range(400)
            )
            page_links = "links_" + "".join(
                rng.choice("qrstuvwxyz012345") for _ in range(700)
            )
            rows.append(
                f"{user}\t{action}\t{timestamp}\t{est_revenue}"
                f"\t{page_info}\t{page_links}"
            )
        return rows

    def users_rows(self) -> List[str]:
        cfg = self.config
        rng = random.Random(cfg.seed + 1)
        rows = []
        for i in range(cfg.n_users):
            name = self._user_name(i)
            phone = f"555-{rng.randint(0, 9999):04d}"
            address = f"{rng.randint(1, 999)} main st"
            city = rng.choice(
                ["waterloo", "toronto", "kitchener", "ottawa", "guelph"]
            )
            rows.append(f"{name}\t{phone}\t{address}\t{city}")
        return rows

    def power_users_rows(self) -> List[str]:
        """A small random subset of users (like PigMix's power_users,
        500 of millions) so joins against it are selective: the L2/L3
        join outputs are MB-scale against a 150 GB input (Table 1)."""
        cfg = self.config
        rng = random.Random(cfg.seed + 2)
        n_active = max(1, cfg.n_users - cfg.n_inactive_users)
        low = n_active // 3  # skip the hottest users: keep the join selective
        population = range(low, n_active)
        count = min(cfg.n_power_users, len(population))
        rows = []
        for index in sorted(rng.sample(population, count)):
            name = self._user_name(index)
            phone = f"555-{rng.randint(0, 9999):04d}"
            address = f"{rng.randint(1, 999)} king st"
            city = rng.choice(["waterloo", "toronto"])
            rows.append(f"{name}\t{phone}\t{address}\t{city}")
        return rows

    def widerow_rows(self) -> List[str]:
        cfg = self.config
        rng = random.Random(cfg.seed + 3)
        n_active = max(1, cfg.n_users - cfg.n_inactive_users)
        rows = []
        for _ in range(cfg.n_widerow):
            user = self._skewed_user(rng, n_active)
            ints = "\t".join(str(rng.randint(0, 999)) for _ in range(8))
            rows.append(f"{user}\t{ints}")
        return rows

    # -- DFS writing ----------------------------------------------------------------

    def generate(self, dfs: DistributedFileSystem) -> PigMixDataset:
        """Write all tables; returns the dataset descriptor."""
        cfg = self.config
        dataset = PigMixDataset(config=cfg)
        tables = {
            "page_views": self.page_views_rows(),
            "users": self.users_rows(),
            "power_users": self.power_users_rows(),
            "widerow": self.widerow_rows(),
        }
        for table, rows in tables.items():
            path = f"{cfg.prefix}/{table}"
            dfs.write_file(path, "\n".join(rows) + "\n", overwrite=True)
            dataset.paths[table] = path
            dataset.actual_bytes[table] = dfs.file_size(path)
        return dataset
