"""The one supervised-dispatch loop, ``BatchCompiler.supervise`` in
repro.driver.batch: the policy itself against a fake ``attempt`` (no
process pool, no real sleeping), the story its bookkeeping tells for a
real batch compile, and a structural gate that keeps the policy in one
module."""

import ast
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict
from pathlib import Path

import pytest

import repro.driver.batch as batch_module
from repro import Computation, Function, Var, settings
from repro.core.errors import DeadlineExceededError, WorkerFailureError
from repro.driver import (BatchCompiler, Deadline, deadline_scope,
                          kernel_registry, pool_breaker)
from repro.driver.batch import RETRY_BACKOFF, BatchStats
from repro.driver.resilience import STATE_CLOSED
from repro.faults import FaultPlan, injected, uninstall
from repro.obs.events import read_events
from repro.obs.metrics import metrics

SRC = Path(__file__).resolve().parent.parent / "src"

#: Each outcome of a supervised dispatch -> the BatchStats field it bumps
#: (and ``batch.{outcome}``, the event it emits).
FIELDS = {"worker_failure": "worker_failures",
          "pool_restart": "pool_restarts",
          "retry": "retries",
          "fallback": "fallbacks"}


@pytest.fixture(autouse=True)
def _fresh():
    kernel_registry.clear()
    uninstall()
    yield
    uninstall()
    kernel_registry.clear()


# -- the primitive, against a fake attempt -----------------------------------

class Harness:
    """A scripted ``attempt`` plus fakes for the pool and the clock."""

    def __init__(self, monkeypatch, script, pool_alive=True,
                 pool_comes_back=True):
        self.script = list(script)   # exception instances, or a value
        self.calls = []              # attempt numbers actually run
        self.discards = []
        self.sleeps = []
        self.batch = BatchCompiler(max_workers=2)
        self.stats = self.batch.stats
        self.on_sleep = None
        self.pool_alive = pool_alive
        self.pool_comes_back = pool_comes_back
        monkeypatch.setattr(
            batch_module, "get_pool",
            lambda workers: "the-pool" if self.pool_alive else None)
        monkeypatch.setattr(batch_module, "discard_pool", self._discard)
        monkeypatch.setattr("time.sleep", self._sleep)

    def _discard(self, workers):
        self.discards.append(workers)
        self.pool_alive = self.pool_comes_back

    def _sleep(self, seconds):
        self.sleeps.append(seconds)
        if self.on_sleep is not None:
            self.on_sleep()

    def attempt(self, the_pool, n):
        assert the_pool == "the-pool"
        self.calls.append(n)
        step = self.script.pop(0)
        if isinstance(step, BaseException):
            raise step
        return step

    def run(self, on_worker_failure="fallback", max_retries=2):
        return self.batch.supervise(self.attempt, "unit",
                                    max_retries=max_retries,
                                    on_worker_failure=on_worker_failure)


FAILURES = [BrokenProcessPool("worker died"), FuturesTimeoutError(),
            WorkerFailureError("classified by the caller")]


class TestSupervise:
    @pytest.mark.parametrize("failure", FAILURES,
                             ids=["broken-pool", "timeout", "classified"])
    def test_fail_fail_ok_retries_twice(self, monkeypatch, failure):
        h = Harness(monkeypatch, [failure, failure, "artifact"])
        assert h.run() == "artifact"
        assert h.calls == [0, 1, 2]
        assert h.discards == [2, 2]
        assert h.sleeps == [RETRY_BACKOFF, 2 * RETRY_BACKOFF]
        assert (h.stats.worker_failures, h.stats.pool_restarts,
                h.stats.retries, h.stats.fallbacks) == (2, 2, 2, 0)
        breaker = pool_breaker()
        assert breaker.state == STATE_CLOSED
        assert breaker.stats()["consecutive_failures"] == 0

    @pytest.mark.parametrize("policy, attempts, retries, raises", [
        ("fallback", 3, 2, False),
        ("retry", 3, 2, True),
        ("raise", 1, 0, True),
    ])
    def test_exhaustion_endgames(self, monkeypatch, policy, attempts,
                                 retries, raises):
        h = Harness(monkeypatch, [BrokenProcessPool("x")] * 3)
        if raises:
            with pytest.raises(WorkerFailureError, match="worker pool died"):
                h.run(policy)
        else:
            assert h.run(policy) is None
        assert h.calls == list(range(attempts))
        assert h.stats.worker_failures == attempts
        assert h.stats.pool_restarts == attempts
        assert h.stats.retries == retries
        assert h.stats.fallbacks == (0 if raises else 1)

    def test_open_breaker_makes_no_attempt(self, monkeypatch):
        h = Harness(monkeypatch, ["never returned"])
        pool_breaker().trip()
        # ... and degrades whatever the failure policy
        assert h.run("raise") is None
        assert h.calls == [] and h.discards == [] and h.sleeps == []
        assert h.stats.breaker_short_circuits == 1
        assert h.stats.fallbacks == 1

    def test_application_error_is_not_supervised(self, monkeypatch):
        h = Harness(monkeypatch, [ValueError("illegal schedule"), "unused"])
        with pytest.raises(ValueError, match="illegal schedule"):
            h.run()
        assert h.calls == [0]
        assert h.discards == [] and h.sleeps == []
        assert asdict(h.stats) == asdict(BatchStats())
        breaker = pool_breaker()
        assert breaker.state == STATE_CLOSED
        assert breaker.stats()["consecutive_failures"] == 0

    def test_pool_that_cannot_come_back_ends_the_retries(self, monkeypatch):
        h = Harness(monkeypatch, [BrokenProcessPool("x"), "unreachable"],
                    pool_comes_back=False)
        assert h.run(max_retries=5) is None
        assert h.calls == [0]              # no second attempt without a pool
        assert h.stats.retries == 1 and h.stats.fallbacks == 1

    def test_no_pool_at_all_goes_straight_to_the_endgame(self, monkeypatch):
        h = Harness(monkeypatch, ["unreachable"], pool_alive=False)
        with pytest.raises(WorkerFailureError, match="no active pool"):
            h.run("retry")
        assert h.calls == [] and h.stats.worker_failures == 0

    def test_deadline_charged_before_every_attempt(self, monkeypatch):
        h = Harness(monkeypatch, [BrokenProcessPool("x"), "unreachable"])
        deadline = Deadline(RETRY_BACKOFF / 5)
        # the fake clock: the backoff sleep is what spends the budget
        h.on_sleep = lambda: setattr(deadline, "_expires_at", 0.0)
        with deadline_scope(deadline):
            with pytest.raises(DeadlineExceededError) as err:
                h.run()
        assert err.value.stage == "batch-offload"
        assert h.calls == [0]
        # ... and the sleep itself was clamped to the remaining budget
        assert len(h.sleeps) == 1 and h.sleeps[0] <= RETRY_BACKOFF / 5

    def test_expired_deadline_runs_nothing(self, monkeypatch):
        h = Harness(monkeypatch, ["unreachable"])
        with deadline_scope(Deadline(1e-9)):
            with pytest.raises(DeadlineExceededError):
                h.run()
        assert h.calls == []


# -- a real batch compile books the same story ------------------------------

def _have_pool():
    return batch_module.get_pool(2) is not None


@pytest.mark.parametrize("refusals, story", [
    (1, ["worker_failure", "pool_restart", "retry"]),
    (99, ["worker_failure", "pool_restart", "retry",
          "worker_failure", "pool_restart", "fallback"]),
], ids=["recovers", "falls-back"])
def test_pool_refusal_books_the_story(tmp_path, refusals, story):
    if not _have_pool():
        pytest.skip("no process pool on this host")
    batch = BatchCompiler(max_workers=2, max_retries=1)
    f = Function("parity_batch")
    with f:
        i, j = Var("i", 0, 8), Var("j", 0, 8)
        Computation("c", [i, j], 3.0 * i + j)
    journal = tmp_path / "events.jsonl"
    settings.set(event_log=journal)
    counters0 = {k: metrics.counter(f"batch.{k}").value for k in FIELDS}
    with injected(FaultPlan().refuse_pool(op="batch", times=refusals)):
        with batch:
            batch.submit(f).result(timeout=60)

    # the journal tells the story in order ...
    by_event = {f"batch.{k}": k for k in FIELDS}
    told = [by_event[e["name"]] for e in read_events(str(journal))
            if e["name"] in by_event]
    assert told == story
    # ... and every stats field and counter moved exactly with it
    for outcome, field in FIELDS.items():
        n = story.count(outcome)
        assert getattr(batch.stats, field) == n, outcome
        assert metrics.counter(f"batch.{outcome}").value \
            - counters0[outcome] == n, outcome


# -- keep it collapsed -------------------------------------------------------

def _modules_where(predicate):
    found = set()
    for path in SRC.rglob("*.py"):
        tree = ast.parse(path.read_text())
        if any(predicate(node) for node in ast.walk(tree)):
            found.add(path.relative_to(SRC).as_posix())
    return found


def _calls(name):
    def predicate(node):
        if not isinstance(node, ast.Call):
            return False
        fn = node.func
        return (isinstance(fn, ast.Attribute) and fn.attr == name) \
            or (isinstance(fn, ast.Name) and fn.id == name)
    return predicate


def _is_backoff_loop(node):
    """A loop that sleeps and multiplies its own delay."""
    if not isinstance(node, (ast.For, ast.While)):
        return False
    inner = list(ast.walk(node))
    return any(_calls("sleep")(n) for n in inner) and any(
        isinstance(n, ast.AugAssign) and isinstance(n.op, ast.Mult)
        for n in inner)


class TestOnePolicyOneModule:
    """A fourth hand-rolled retry/breaker/backoff loop should fail
    tier-1, not wait for review."""

    HOME = {"repro/driver/batch.py"}

    def test_one_module_feeds_the_breaker(self):
        assert _modules_where(_calls("record_failure")) == self.HOME
        assert _modules_where(_calls("record_success")) == self.HOME

    def test_one_module_discards_pools(self):
        assert _modules_where(_calls("discard_pool")) == self.HOME

    def test_one_backoff_loop(self):
        assert _modules_where(_is_backoff_loop) == self.HOME
