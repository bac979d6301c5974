"""The self-protecting compile service (repro.driver.resilience,
repro.driver.recovery, docs/robustness.md): deadline propagation
through the staged pipeline, admission control on the batch front end,
the worker-pool circuit breaker and its graceful degradation, disk-IO
fault absorption, crash-recovery sweeps, torn-journal tolerance, and a
quick seeded chaos soak tying them together."""

import errno
import os
import time

import numpy as np
import pytest

from repro import Computation, Function, Var, settings
from repro.core.errors import (AdmissionError, DeadlineExceededError,
                               WorkerFailureError)
from repro.driver import (BatchCompiler, Deadline, current_deadline,
                          deadline_scope, kernel_registry, pool_breaker,
                          recovery_sweep)
from repro.driver.diskcache import (DiskCache, active_disk_cache,
                                    configure)
from repro.driver.resilience import (CircuitBreaker, STATE_CLOSED,
                                     STATE_HALF_OPEN, STATE_OPEN)
from repro.faults import FaultPlan, injected, uninstall
from repro.obs.events import read_events, read_journal, repair_journal


def build(name="f", scale=2.0):
    f = Function(name)
    with f:
        i, j = Var("i", 0, 8), Var("j", 0, 8)
        Computation("c", [i, j], float(scale) * i + j)
    return f


def expected_output(scale):
    return np.add.outer(float(scale) * np.arange(8.0), np.arange(8.0))


@pytest.fixture(autouse=True)
def _fresh_state(monkeypatch):
    for var in ("TIRAMISU_CACHE_DIR", "TIRAMISU_CACHE_MAX_BYTES",
                "TIRAMISU_EVENT_LOG", "TIRAMISU_TIMEOUT",
                "TIRAMISU_MAX_PENDING", "TIRAMISU_MAX_QUEUED_BYTES",
                "TIRAMISU_ADMISSION_POLICY"):
        monkeypatch.delenv(var, raising=False)
    kernel_registry.clear()
    uninstall()
    yield
    uninstall()
    kernel_registry.clear()


# -- deadlines ---------------------------------------------------------------

class TestDeadline:
    def test_budget_and_remaining(self):
        deadline = Deadline(5.0)
        assert deadline.budget == 5.0
        assert 0.0 < deadline.remaining() <= 5.0
        assert not deadline.expired()

    def test_expired_budget_never_goes_negative(self):
        deadline = Deadline(0.0)
        assert deadline.expired()
        assert deadline.remaining() == 0.0

    def test_check_raises_naming_the_stage(self):
        deadline = Deadline(0.0)
        with pytest.raises(DeadlineExceededError) as err:
            deadline.check("emit")
        assert err.value.stage == "emit"
        assert err.value.budget == 0.0
        assert "emit" in str(err.value)

    def test_check_passes_with_budget_left(self):
        Deadline(60.0).check("emit")   # no raise

    def test_from_timeout_resolution(self, monkeypatch):
        assert Deadline.from_timeout(None) is None
        explicit = Deadline.from_timeout(2.5)
        assert explicit is not None and explicit.budget == 2.5
        monkeypatch.setenv("TIRAMISU_TIMEOUT", "7.5")
        from_env = Deadline.from_timeout(None)
        assert from_env is not None and from_env.budget == 7.5

    def test_scope_installs_and_restores(self):
        assert current_deadline() is None
        deadline = Deadline(3.0)
        with deadline_scope(deadline):
            assert current_deadline() is deadline
            with deadline_scope(None):
                assert current_deadline() is None
            assert current_deadline() is deadline
        assert current_deadline() is None


class TestDeadlinePropagation:
    """A request that spends its budget inside one stage is failed fast
    by the *next* stage's guard — it never starts."""

    def test_slow_stage_blows_the_budget(self):
        f = build("dl_blow")
        plan = FaultPlan().slow_stage(stage="legality", seconds=0.25)
        with injected(plan):
            with pytest.raises(DeadlineExceededError) as err:
                f.compile("cpu", check_legality=True, timeout=0.05)
        assert plan.fired("slow-stage") == 1
        # legality began inside budget; the emit guard found it gone.
        assert err.value.stage == "emit"
        assert err.value.budget == 0.05

    def test_no_timeout_means_no_deadline(self):
        f = build("dl_none")
        plan = FaultPlan().slow_stage(stage="emit", seconds=0.05)
        with injected(plan):
            kernel = f.compile("cpu")
        assert kernel()["c"].shape == (8, 8)

    def test_generous_budget_compiles_clean(self):
        kernel = build("dl_ok").compile("cpu", timeout=60.0)
        assert kernel()["c"].shape == (8, 8)

    def test_no_stage_begins_after_exhaustion(self, tmp_path):
        """The journal property: within one compile_id, no
        ``resilience.stage.begin`` line may follow the
        ``resilience.deadline.exceeded`` line."""
        log = tmp_path / "events.jsonl"
        settings.set(event_log=log)
        f = build("dl_journal")
        plan = FaultPlan().slow_stage(stage="legality", seconds=0.25)
        with injected(plan):
            with pytest.raises(DeadlineExceededError):
                f.compile("cpu", check_legality=True, timeout=0.05)
        records = read_events(str(log))
        exceeded = [n for n, r in enumerate(records)
                    if r["name"] == "resilience.deadline.exceeded"]
        assert len(exceeded) == 1
        cid = records[exceeded[0]]["compile_id"]
        assert cid
        after = records[exceeded[0] + 1:]
        assert not [r for r in after
                    if r["compile_id"] == cid
                    and r["name"] == "resilience.stage.begin"]

    def test_batch_submit_starts_the_clock(self):
        """The budget is charged from submit(): a job slowed past its
        timeout surfaces DeadlineExceededError on its handle."""
        plan = FaultPlan().slow_stage(stage="legality", seconds=0.25)
        with injected(plan):
            with BatchCompiler(use_processes=False) as batch:
                handle = batch.submit(build("dl_batch"),
                                      check_legality=True, timeout=0.05)
                exc = handle.exception(timeout=30)
        assert isinstance(exc, DeadlineExceededError)


# -- the circuit breaker -----------------------------------------------------

class TestCircuitBreaker:
    def test_trips_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker("t", threshold=3, cooldown=30.0)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == STATE_CLOSED
        breaker.record_failure()
        assert breaker.state == STATE_OPEN
        assert breaker.opens == 1

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker("t", threshold=2, cooldown=30.0)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == STATE_CLOSED

    def test_open_refuses_until_cooldown(self):
        breaker = CircuitBreaker("t", threshold=1, cooldown=0.1)
        breaker.record_failure()
        assert breaker.state == STATE_OPEN
        assert not breaker.allow()
        assert breaker.short_circuits == 1
        time.sleep(0.12)
        assert breaker.allow()            # the half-open probe
        assert breaker.state == STATE_HALF_OPEN

    def test_half_open_probe_success_closes(self):
        breaker = CircuitBreaker("t", threshold=1, cooldown=0.05)
        breaker.record_failure()
        time.sleep(0.06)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == STATE_CLOSED
        assert breaker.closes == 1

    def test_half_open_probe_failure_reopens(self):
        breaker = CircuitBreaker("t", threshold=3, cooldown=0.05)
        breaker.trip()
        time.sleep(0.06)
        assert breaker.allow()
        breaker.record_failure()           # one failure, not three:
        assert breaker.state == STATE_OPEN  # half-open reopens at once
        assert not breaker.allow()

    def test_trip_and_reset(self):
        breaker = CircuitBreaker("t", threshold=3, cooldown=30.0)
        breaker.trip()
        assert breaker.state == STATE_OPEN and not breaker.allow()
        breaker.reset()
        assert breaker.state == STATE_CLOSED and breaker.allow()
        assert breaker.stats()["opens"] == 0

    def test_env_knobs(self, monkeypatch):
        monkeypatch.setenv("TIRAMISU_BREAKER_THRESHOLD", "5")
        monkeypatch.setenv("TIRAMISU_BREAKER_COOLDOWN", "1.5")
        breaker = CircuitBreaker("t")
        assert breaker.threshold == 5 and breaker.cooldown == 1.5
        monkeypatch.setenv("TIRAMISU_BREAKER_THRESHOLD", "-2")
        with pytest.raises(ValueError, match="TIRAMISU_BREAKER_THRESHOLD"):
            CircuitBreaker("t")

    def test_pool_breaker_is_a_process_singleton(self):
        assert pool_breaker() is pool_breaker()
        assert pool_breaker().state == STATE_CLOSED


# -- graceful degradation ----------------------------------------------------

def _have_pool():
    from repro.backends.pool import get_pool
    return get_pool(2) is not None


class TestBreakerDegradation:
    def test_open_breaker_short_circuits_batch_offload(self, monkeypatch):
        if not _have_pool():
            pytest.skip("no process pool on this host")
        pool_breaker().trip()
        with BatchCompiler(max_workers=2) as batch:
            kernel = batch.submit(build("brk_sc", 3)).result(timeout=60)
        assert batch.stats.breaker_short_circuits == 1
        assert batch.stats.fallbacks == 1
        assert batch.stats.inline_compiles == 1
        assert batch.stats.worker_failures == 0   # the pool was not touched
        # The degraded path is byte-identical to a plain inline compile.
        kernel_registry.clear()
        reference = build("brk_sc", 3).compile("cpu")
        assert kernel.source == reference.source
        assert np.array_equal(kernel()["c"], expected_output(3))

    def test_injected_refusals_trip_the_breaker(self, monkeypatch):
        if not _have_pool():
            pytest.skip("no process pool on this host")
        monkeypatch.setenv("TIRAMISU_BREAKER_THRESHOLD", "3")
        plan = FaultPlan().refuse_pool(op="batch", times=3)
        with injected(plan):
            with BatchCompiler(max_workers=2, max_retries=2) as batch:
                kernel = batch.submit(build("brk_trip", 2)).result(timeout=60)
        # Three injected refusals = the threshold: the breaker is open,
        # and the compile still succeeded inline.
        assert plan.fired("pool-refusal") == 3
        assert batch.stats.worker_failures == 3
        assert pool_breaker().state == STATE_OPEN
        assert np.array_equal(kernel()["c"], expected_output(2))


# -- admission control -------------------------------------------------------

class TestAdmissionControl:
    def test_reject_policy_raises_over_capacity(self):
        plan = FaultPlan().slow_stage(seconds=0.5)
        with injected(plan):
            with BatchCompiler(max_workers=1, use_processes=False,
                               max_pending=1) as batch:
                first = batch.submit(build("adm_a", 1))
                with pytest.raises(AdmissionError, match="max_pending"):
                    batch.submit(build("adm_b", 2))
                assert batch.stats.admission_rejected == 1
                # Dedup costs no capacity: a duplicate of the in-flight
                # job attaches instead of being refused.
                dup = batch.submit(build("adm_a", 1))
                assert dup.result(timeout=30) is first.result(timeout=30)
                assert batch.stats.deduplicated == 1

    def test_block_policy_waits_for_capacity(self):
        plan = FaultPlan().slow_stage(seconds=0.3)
        with injected(plan):
            with BatchCompiler(max_workers=1, use_processes=False,
                               max_pending=1,
                               admission_policy="block") as batch:
                first = batch.submit(build("blk_a", 1))
                t0 = time.monotonic()
                second = batch.submit(build("blk_b", 2))
                waited = time.monotonic() - t0
                assert waited >= 0.15     # held until the first settled
                assert batch.stats.admission_blocked == 1
                assert first.result(timeout=30) is not None
                assert second.result(timeout=30) is not None

    def test_shed_oldest_cancels_the_queued_job(self):
        plan = FaultPlan().slow_stage(seconds=0.5)
        with injected(plan):
            with BatchCompiler(max_workers=1, use_processes=False,
                               max_pending=2,
                               admission_policy="shed-oldest") as batch:
                first = batch.submit(build("shed_a", 1))
                time.sleep(0.1)           # first is now running (slowly)
                second = batch.submit(build("shed_b", 2))
                third = batch.submit(build("shed_c", 3))
                # The running job cannot be cancelled; the queued one is.
                exc = second.exception(timeout=5)
                assert isinstance(exc, AdmissionError)
                assert "shed" in str(exc)
                assert batch.stats.admission_shed == 1
                assert first.result(timeout=30) is not None
                assert third.result(timeout=30) is not None

    def test_shed_handles_appear_in_as_completed(self):
        plan = FaultPlan().slow_stage(seconds=0.5)
        with injected(plan):
            with BatchCompiler(max_workers=1, use_processes=False,
                               max_pending=2,
                               admission_policy="shed-oldest") as batch:
                handles = [batch.submit(build("sc_a", 1))]
                time.sleep(0.1)
                handles.append(batch.submit(build("sc_b", 2)))
                handles.append(batch.submit(build("sc_c", 3)))
                seen = {h.fingerprint for h in
                        batch.as_completed(timeout=30)}
        assert seen == {h.fingerprint for h in handles}

    def test_queued_bytes_bound(self):
        plan = FaultPlan().slow_stage(seconds=0.4)
        with injected(plan):
            with BatchCompiler(max_workers=1, use_processes=False,
                               max_queued_bytes=1) as batch:
                # A single over-sized request still lands on an empty
                # ledger — otherwise it could never run at all.
                first = batch.submit(build("qb_a", 1))
                with pytest.raises(AdmissionError,
                                   match="max_queued_bytes"):
                    batch.submit(build("qb_b", 2))
                assert first.result(timeout=30) is not None

    def test_env_supplies_defaults(self, monkeypatch):
        monkeypatch.setenv("TIRAMISU_MAX_PENDING", "4")
        monkeypatch.setenv("TIRAMISU_ADMISSION_POLICY", "block")
        with BatchCompiler(use_processes=False) as batch:
            assert batch.max_pending == 4
            assert batch.admission_policy == "block"

    def test_bad_configuration_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="admission_policy"):
            BatchCompiler(admission_policy="drop-newest")
        monkeypatch.setenv("TIRAMISU_MAX_PENDING", "0")
        with pytest.raises(ValueError, match="TIRAMISU_MAX_PENDING"):
            BatchCompiler()

    def test_unbounded_by_default(self):
        with BatchCompiler(use_processes=False) as batch:
            assert batch.max_pending is None
            assert batch.max_queued_bytes is None
            for n in range(6):
                batch.submit(build(f"unb_{n}", n + 1))
            assert batch.stats.admission_rejected == 0


# -- disk-tier IO faults -----------------------------------------------------

class TestDiskIOFaults:
    def test_enospc_store_fails_soft(self, tmp_path):
        root = tmp_path / "cache"
        configure(root)
        log = tmp_path / "events.jsonl"
        settings.set(event_log=log)
        plan = FaultPlan().disk_io_error(op="store")
        with injected(plan):
            kernel = build("nospc", 3).compile("cpu")
        # The compile succeeded from memory...
        assert np.array_equal(kernel()["c"], expected_output(3))
        assert plan.fired("disk-io-error") == 1
        # ...no partial artifact or orphaned temp file landed...
        assert not list(root.glob("*.pkl"))
        assert not [n for n in os.listdir(root) if n.startswith(".tmp-")]
        # ...and the failure is journaled with its errno.
        stored = [r for r in read_events(str(log))
                  if r["name"] == "cache.disk.store_error"]
        assert len(stored) == 1
        assert stored[0]["fields"]["errno"] == errno.ENOSPC

    def test_custom_errno_honored(self, tmp_path):
        configure(tmp_path / "cache")
        plan = FaultPlan().disk_io_error(op="store", err=errno.EDQUOT)
        with injected(plan):
            kernel = build("quota", 2).compile("cpu")
        assert kernel()["c"].shape == (8, 8)

    def test_eio_load_reads_as_a_miss(self, tmp_path):
        root = tmp_path / "cache"
        configure(root)
        log = tmp_path / "events.jsonl"
        settings.set(event_log=log)
        build("eio", 2).compile("cpu")          # stores the artifact
        kernel_registry.clear()
        plan = FaultPlan().disk_io_error(op="load")
        with injected(plan):
            kernel = build("eio", 2).compile("cpu")
        # The unreadable artifact read as a plain miss: recompiled.
        assert not kernel.report.cache_hit
        assert not kernel.report.disk_hit
        assert np.array_equal(kernel()["c"], expected_output(2))
        loads = [r for r in read_events(str(log))
                 if r["name"] == "cache.disk.load_error"]
        assert len(loads) == 1
        assert loads[0]["fields"]["errno"] == errno.EIO


# -- quarantine accounting ---------------------------------------------------

def _quarantine_one(cache, key, source):
    cache.put(key, source, "cpu")
    path = cache.path_for(key)
    path.write_bytes(path.read_bytes()[:10])
    assert cache.get(key) is None           # quarantined on probe


class TestQuarantineAccounting:
    def test_stats_count_corpses(self, tmp_path):
        cache = DiskCache(tmp_path)
        _quarantine_one(cache, "k1", "s" * 200)
        stats = cache.stats()
        assert stats["quarantined"] == 1
        assert stats["quarantine_bytes"] > 0

    def test_count_cap_evicts_oldest_corpses(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TIRAMISU_CACHE_MAX_QUARANTINE", "2")
        cache = DiskCache(tmp_path)
        for n in range(4):
            corpse = tmp_path / f"dead{n}.quarantine"
            corpse.write_bytes(b"x" * 50)
            os.utime(corpse, (1000 + n, 1000 + n))
        cache.evict_to_limit()
        left = sorted(p.name for p in tmp_path.glob("*.quarantine"))
        assert left == ["dead2.quarantine", "dead3.quarantine"]

    def test_corpse_bytes_count_toward_the_size_budget(self, tmp_path):
        cache = DiskCache(tmp_path, max_bytes=4096)
        corpse = tmp_path / "dead.quarantine"
        corpse.write_bytes(b"x" * 4000)
        os.utime(corpse, (1000, 1000))
        cache.put("k1", "fresh source", "cpu")
        # put() ran the eviction pass: the corpse paid for the
        # overrun, the live artifact survived.
        assert not corpse.exists()
        assert "k1" in cache

    def test_max_quarantine_validation(self, monkeypatch):
        assert settings.get("cache_max_quarantine") == 8
        monkeypatch.setenv("TIRAMISU_CACHE_MAX_QUARANTINE", "0")
        assert settings.get("cache_max_quarantine") == 0
        for bad in ("-1", "many"):
            monkeypatch.setenv("TIRAMISU_CACHE_MAX_QUARANTINE", bad)
            with pytest.raises(ValueError,
                               match="TIRAMISU_CACHE_MAX_QUARANTINE"):
                settings.get("cache_max_quarantine")


# -- crash recovery ----------------------------------------------------------

class TestCrashRecovery:
    def test_stale_tmp_files_swept(self, tmp_path):
        cache = DiskCache(tmp_path)
        stale = tmp_path / ".tmp-dead"
        stale.write_bytes(b"partial write")
        os.utime(stale, (1000, 1000))
        fresh = tmp_path / ".tmp-live"
        fresh.write_bytes(b"in flight")
        report = recovery_sweep(cache)
        assert report.tmp_removed == 1
        assert not stale.exists()
        assert fresh.exists()               # inside the grace window

    def test_aged_quarantine_swept(self, tmp_path):
        cache = DiskCache(tmp_path)
        corpse = tmp_path / "old.quarantine"
        corpse.write_bytes(b"x" * 10)
        os.utime(corpse, (1000, 1000))
        report = recovery_sweep(cache, quarantine_max_age=3600.0)
        assert report.quarantine_removed == 1
        assert not corpse.exists()

    def test_torn_journal_truncated(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        log = tmp_path / "events.jsonl"
        log.write_text('{"name": "a", "cat": "compile"}\n{"name": "b', )
        settings.set(event_log=log)
        report = recovery_sweep(cache)
        assert report.journal_bytes_truncated == len('{"name": "b')
        records, torn = read_journal(str(log))
        assert torn is None
        # The torn record is gone; the sweep journaled its own repair.
        assert records[0]["name"] == "a"
        assert records[-1]["name"] == "resilience.recovery.sweep"
        assert "b" not in [r["name"] for r in records]

    def test_total_repairs(self):
        from repro.driver.recovery import RecoveryReport
        assert RecoveryReport().total_repairs == 0
        assert RecoveryReport(tmp_removed=2, quarantine_removed=1,
                              journal_bytes_truncated=17).total_repairs == 4

    def test_sweep_runs_once_per_activation(self, tmp_path):
        root = tmp_path / "cache"
        root.mkdir()
        stale = root / ".tmp-orphan"
        stale.write_bytes(b"x")
        os.utime(stale, (1000, 1000))
        configure(root)
        cache = active_disk_cache()
        assert cache is not None
        assert not stale.exists()           # swept on activation
        late = root / ".tmp-late"
        late.write_bytes(b"y")
        os.utime(late, (1000, 1000))
        assert active_disk_cache() is cache
        assert late.exists()                # same instance: no re-sweep


# -- torn-journal tolerance --------------------------------------------------

class TestTornJournal:
    GOOD = '{"name": "a", "cat": "compile"}\n{"name": "b", "cat": "cache"}\n'

    def test_read_events_drops_the_torn_tail(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(self.GOOD + '{"name": "c", "ca')
        assert [r["name"] for r in read_events(str(path))] == ["a", "b"]

    def test_read_journal_surfaces_the_tail(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(self.GOOD + '{"name": "c", "ca')
        records, torn = read_journal(str(path))
        assert len(records) == 2
        assert torn == '{"name": "c", "ca'

    def test_parseable_unterminated_final_line_kept(self, tmp_path):
        # Only the newline went missing: the record itself is intact.
        path = tmp_path / "j.jsonl"
        path.write_text(self.GOOD + '{"name": "c", "cat": "cache"}')
        records, torn = read_journal(str(path))
        assert torn is None
        assert [r["name"] for r in records] == ["a", "b", "c"]

    def test_interior_malformed_line_still_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"name": "a"}\nnot json\n{"name": "b"}\n')
        with pytest.raises(ValueError, match="j.jsonl:2"):
            read_events(str(path))

    def test_repair_journal_truncates_and_is_idempotent(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(self.GOOD + '{"torn')
        assert repair_journal(str(path)) == len('{"torn')
        assert path.read_text() == self.GOOD
        assert repair_journal(str(path)) == 0
        assert repair_journal(str(tmp_path / "absent.jsonl")) == 0


# -- the quick chaos soak ----------------------------------------------------

TERMINAL_ERRORS = (DeadlineExceededError, AdmissionError,
                   WorkerFailureError)


def _run_soak_plan(seed, tmp_path):
    """One seeded chaos round over a small batch; returns the list of
    (scale, outcome) pairs where outcome is a kernel or an error."""
    kernel_registry.clear()
    root = tmp_path / f"cache{seed}"
    configure(root)
    log = tmp_path / f"events{seed}.jsonl"
    settings.set(event_log=log)
    rng = np.random.default_rng(seed)
    plan = FaultPlan(seed=seed)
    if rng.random() < 0.7:
        plan.slow_stage(seconds=0.15,
                        times=int(rng.integers(1, 3)))
    if rng.random() < 0.5:
        plan.disk_io_error(op="store",
                           times=int(rng.integers(1, 3)))
    if rng.random() < 0.5:
        plan.refuse_pool(times=int(rng.integers(1, 3)))
    outcomes = []
    with injected(plan):
        with BatchCompiler(max_workers=2, use_processes=False,
                           max_pending=2,
                           admission_policy="reject") as batch:
            handles = []
            for n in range(6):
                scale = (n % 3) + 1
                options = {}
                if rng.random() < 0.4:
                    options["timeout"] = 0.05
                try:
                    handle = batch.submit(
                        build(f"soak{seed}_{scale}", scale), **options)
                except AdmissionError as err:
                    outcomes.append((scale, err))
                    continue
                handles.append((scale, handle))
            for scale, handle in handles:
                exc = handle.exception(timeout=60)
                outcomes.append((scale, exc if exc is not None
                                 else handle.result()))
    # Invariants every round must hold, whatever fired:
    assert len(outcomes) == 6
    for scale, outcome in outcomes:
        if isinstance(outcome, BaseException):
            assert isinstance(outcome, TERMINAL_ERRORS), outcome
        else:
            # Survivors are bit-identical to a fault-free compile.
            assert np.array_equal(outcome()["c"], expected_output(scale))
    # No torn journal, no orphaned temp files, no partial artifacts.
    _, torn = read_journal(str(log))
    assert torn is None
    assert not [n for n in os.listdir(root) if n.startswith(".tmp-")]
    settings.reset()
    return outcomes


class TestChaosSoakQuick:
    def test_seeded_rounds_reach_exactly_one_terminal_state(self, tmp_path):
        for seed in range(6):
            _run_soak_plan(seed, tmp_path)
