"""Shared fixtures: tiny deterministic sandboxes for fast tests,
plus the :class:`StepScheduler` harness that makes concurrency tests
reproducible."""

from __future__ import annotations

import random
import threading
import time
from typing import Callable, Dict, List, Optional

import pytest

from repro.core.manager import ReStoreConfig, ReStoreManager
from repro.dfs.filesystem import DistributedFileSystem
from repro.faults import injector as fault_injector
from repro.pig.engine import PigServer
from repro.pigmix.datagen import PigMixConfig, PigMixDataGenerator


@pytest.fixture(autouse=True)
def _fault_injector_hygiene():
    """No fault-injector state may bleed between tests: clocks, fired
    logs, and the installed injector itself are test-local.  Reset the
    active injector (if a test installed one) before uninstalling so a
    later install of the *same* plan starts from hit zero."""
    fault_injector.uninstall()
    yield
    active = fault_injector.active()
    if active is not None:
        active.reset()
    fault_injector.uninstall()

PAGE_VIEWS_SCHEMA = (
    "user, action:int, timestamp:int, est_revenue:double, page_info, page_links"
)
USERS_SCHEMA = "name, phone, address, city"


@pytest.fixture
def dfs() -> DistributedFileSystem:
    return DistributedFileSystem()


@pytest.fixture
def small_data(dfs: DistributedFileSystem) -> DistributedFileSystem:
    """A hand-written micro page_views/users pair with known answers."""
    page_views = [
        # user, action, timestamp, est_revenue, page_info, page_links
        "alice\t1\t100\t1.5\tinfoA\tlinksA",
        "alice\t2\t101\t2.5\tinfoB\tlinksB",
        "bob\t1\t102\t4.0\tinfoC\tlinksC",
        "carol\t3\t103\t8.0\tinfoD\tlinksD",
        "alice\t1\t104\t0.5\tinfoE\tlinksE",
        "dave\t2\t105\t3.0\tinfoF\tlinksF",
    ]
    users = [
        "alice\t555-0001\t1 main st\twaterloo",
        "bob\t555-0002\t2 main st\ttoronto",
        "carol\t555-0003\t3 main st\twaterloo",
        "erin\t555-0005\t5 main st\tottawa",  # never views pages
    ]
    dfs.write_file("data/page_views", "\n".join(page_views) + "\n")
    dfs.write_file("data/users", "\n".join(users) + "\n")
    return dfs


@pytest.fixture
def server(small_data: DistributedFileSystem) -> PigServer:
    return PigServer(small_data)


@pytest.fixture
def restore_server(small_data: DistributedFileSystem):
    """(server, manager) pair wired together over the micro data."""
    manager = ReStoreManager(small_data, config=ReStoreConfig())
    return PigServer(small_data, restore=manager), manager


@pytest.fixture
def pigmix_dfs() -> DistributedFileSystem:
    return DistributedFileSystem()


@pytest.fixture
def tiny_pigmix(pigmix_dfs):
    """A tiny generated PigMix instance (fast but non-trivial)."""
    config = PigMixConfig(
        n_page_views=120, n_users=20, n_power_users=5, n_widerow=40, seed=11
    )
    dataset = PigMixDataGenerator(config).generate(pigmix_dfs)
    return pigmix_dfs, dataset


TINY_PIGMIX_CONFIG = PigMixConfig(
    n_page_views=120, n_users=20, n_power_users=5, n_widerow=40, seed=11
)


class StepScheduler:
    """Deterministic thread interleaver for concurrency tests.

    Worker callables invoke :meth:`step` at interesting points; the
    scheduler parks every worker on a barrier (a shared condition
    variable) and releases exactly one at a time, chosen by a seeded
    RNG.  Only one worker ever runs between two grants, so the whole
    interleaving is a pure function of the seed — a failing schedule
    replays exactly by rerunning with the same seed, and ``history``
    records the grant sequence for the failure message.

    Every wait carries a deadline: a worker that can never be released
    (deadlock, lost wakeup) fails the test with a ``TimeoutError``
    instead of hanging the suite.
    """

    def __init__(self, seed: int = 0, timeout_s: float = 30.0):
        self.seed = seed
        self.timeout_s = timeout_s
        self.history: List[str] = []
        self._rng = random.Random(seed)
        self._cond = threading.Condition()
        self._waiting: Dict[str, str] = {}
        self._granted: Optional[str] = None
        self._live: set = set()
        self._failures: List[BaseException] = []

    def step(self, label: str = "") -> None:
        """Park the calling worker until the scheduler releases it."""
        name = threading.current_thread().name
        with self._cond:
            if name not in self._live:
                return  # unmanaged thread: checkpoints are no-ops
            self._waiting[name] = label
            self._cond.notify_all()
            deadline = time.monotonic() + self.timeout_s
            while self._granted != name:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"worker {name} never released at step {label!r} "
                        f"(history={self.history})"
                    )
                self._cond.wait(remaining)
            self._granted = None
            del self._waiting[name]
            self._cond.notify_all()

    def _run_worker(self, name: str, fn: Callable[[], None]) -> None:
        try:
            self.step("start")
            fn()
        except BaseException as exc:  # noqa: BLE001 - reraised in run()
            with self._cond:
                self._failures.append(exc)
        finally:
            with self._cond:
                self._live.discard(name)
                self._waiting.pop(name, None)
                self._cond.notify_all()

    def run(self, workers: Dict[str, Callable[[], None]]) -> List[str]:
        """Run *workers* to completion under the seeded schedule.

        Returns the grant history; re-raises the first worker failure.
        """
        self._live = set(workers)
        threads = [
            threading.Thread(
                target=self._run_worker, args=(name, fn), name=name, daemon=True
            )
            for name, fn in workers.items()
        ]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + self.timeout_s
        with self._cond:
            while self._live:
                quiescent = self._granted is None and set(self._waiting) == self._live
                if not quiescent:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TimeoutError(
                            f"scheduler timed out waiting for quiescence "
                            f"(live={sorted(self._live)}, "
                            f"waiting={sorted(self._waiting)})"
                        )
                    self._cond.wait(remaining)
                    continue
                pick = self._rng.choice(sorted(self._waiting))
                self.history.append(pick)
                self._granted = pick
                self._cond.notify_all()
        for thread in threads:
            thread.join(self.timeout_s)
        if self._failures:
            raise self._failures[0]
        return self.history


@pytest.fixture
def step_scheduler():
    """Factory for seeded :class:`StepScheduler` instances."""

    def make(seed: int = 0, timeout_s: float = 30.0) -> StepScheduler:
        return StepScheduler(seed=seed, timeout_s=timeout_s)

    return make
