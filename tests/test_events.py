"""The telemetry export layer (repro.obs.events / export): journal
mechanics, correlation ids, OpenMetrics exposition, the doc-drift
gate, and the end-to-end story — one batch
compile with an injected fault and an autoschedule plan, reconstructed
from the journal by its compile_id."""

import collections
import json
import os
import re
import subprocess
import sys
import threading
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from repro import Computation, Function, Var, settings
from repro.autosched import SchedulePlan
from repro.autosched.actions import Interchange
from repro.autosched.search import beam_search
from repro.driver import BatchCompiler, kernel_registry
from repro.driver.diskcache import configure
from repro.faults import FaultPlan, injected
from repro.obs import export as obs_export
from repro.obs import metrics
from repro.obs.events import (EventJournal, compile_context,
                              current_compile_id, emit, new_compile_id,
                              read_events)

REPO = Path(__file__).resolve().parent.parent


def build(name="f", scale=2.0):
    f = Function(name)
    with f:
        i, j = Var("i", 0, 8), Var("j", 0, 8)
        Computation("c", [i, j], float(scale) * i + j)
    return f


@pytest.fixture(autouse=True)
def _fresh_telemetry(monkeypatch):
    monkeypatch.delenv("TIRAMISU_EVENT_LOG", raising=False)
    monkeypatch.delenv("TIRAMISU_METRICS_FILE", raising=False)
    monkeypatch.delenv("TIRAMISU_CACHE_DIR", raising=False)
    kernel_registry.clear()
    yield
    kernel_registry.clear()


class _AlwaysBrokenPool:
    def submit(self, fn, *args, **kwargs):
        future = Future()
        future.set_exception(BrokenProcessPool("worker died"))
        return future


@pytest.fixture()
def broken_pool(monkeypatch):
    import repro.driver.batch as batch
    discards = []
    monkeypatch.setattr(batch, "get_pool",
                        lambda workers: _AlwaysBrokenPool())
    monkeypatch.setattr(batch, "discard_pool", discards.append)
    return discards


# -- correlation ids ----------------------------------------------------------

class TestCompileIds:
    def test_ids_are_short_and_unique(self):
        ids = {new_compile_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(len(i) == 16 for i in ids)
        assert all(int(i, 16) >= 0 for i in ids)      # hex digits

    def test_a_sequential_compile_never_imports_uuid(self):
        code = (
            "import sys\n"
            "import repro\n"
            "from repro import Computation, Function, Var\n"
            "with Function('f') as f:\n"
            "    Computation('c', [Var('i', 0, 8)], 2.0)\n"
            "assert f.compile('cpu', parallel=False)()['c'].sum() == 16\n"
            "assert 'uuid' not in sys.modules\n")
        subprocess.run([sys.executable, "-c", code], check=True,
                       timeout=120)

    def test_context_installs_and_restores(self):
        assert current_compile_id() is None
        with compile_context("outer") as cid:
            assert cid == "outer"
            assert current_compile_id() == "outer"
            with compile_context("inner"):
                assert current_compile_id() == "inner"
            assert current_compile_id() == "outer"
        assert current_compile_id() is None

    def test_context_is_thread_local(self):
        seen = []
        with compile_context("main-thread"):
            t = threading.Thread(
                target=lambda: seen.append(current_compile_id()))
            t.start()
            t.join()
        assert seen == [None]


# -- the journal --------------------------------------------------------------

class TestJournal:
    def test_emit_is_noop_when_disabled(self):
        assert settings.get("event_log") is None
        before = metrics.counter("nobody.home").value
        assert emit("nobody.home") is False      # no line written ...
        assert metrics.counter("nobody.home").value == before + 1  # counted

    def test_round_trip_preserves_schema(self, tmp_path):
        path = tmp_path / "events.jsonl"
        settings.set(event_log=path)
        assert emit("compile.test", answer=42, label="x")
        assert emit("unit.test2")
        events = read_events(str(path))
        assert [e["name"] for e in events] == ["compile.test", "unit.test2"]
        first = events[0]
        assert first["cat"] == "compile"
        assert events[1]["cat"] == "unit"
        assert first["fields"] == {"answer": 42, "label": "x"}
        assert first["pid"] == os.getpid()
        assert first["wall"] > 0 and first["mono_ns"] > 0
        assert first["compile_id"] is None

    def test_cat_is_the_first_dotted_segment(self, tmp_path):
        settings.set(event_log=tmp_path / "events.jsonl")
        for name in ("taskgraph.task.done", "resilience.breaker.open",
                     "plain"):
            emit(name)
        assert [(e["name"], e["cat"]) for e in
                read_events(str(tmp_path / "events.jsonl"))] == [
            ("taskgraph.task.done", "taskgraph"),
            ("resilience.breaker.open", "resilience"), ("plain", "plain")]

    def test_env_var_activates_and_repoints(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        monkeypatch.setenv("TIRAMISU_EVENT_LOG", str(a))
        assert settings.get("event_log") == str(a)
        emit("to.a")
        monkeypatch.setenv("TIRAMISU_EVENT_LOG", str(b))
        emit("to.b")
        assert [e["name"] for e in read_events(str(a))] == ["to.a"]
        assert [e["name"] for e in read_events(str(b))] == ["to.b"]

    def test_configure_overrides_env_and_none_disables(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("TIRAMISU_EVENT_LOG",
                           str(tmp_path / "env.jsonl"))
        pinned = tmp_path / "pinned.jsonl"
        settings.set(event_log=pinned)
        emit("pinned.event")
        assert [e["name"] for e in read_events(str(pinned))] \
            == ["pinned.event"]
        assert not (tmp_path / "env.jsonl").exists()
        settings.set(event_log=None)
        assert emit("dropped") is False

    def test_ambient_id_inherited_and_overridable(self, tmp_path):
        path = tmp_path / "events.jsonl"
        settings.set(event_log=path)
        with compile_context("ambient01"):
            emit("uses.ambient")
            emit("uses.explicit", compile_id="explicit1")
        emit("uses.none")
        by_name = {e["name"]: e["compile_id"]
                   for e in read_events(str(path))}
        assert by_name == {"uses.ambient": "ambient01",
                           "uses.explicit": "explicit1",
                           "uses.none": None}

    def test_read_events_raises_on_malformed_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"name": "ok"}\nnot json\n')
        with pytest.raises(ValueError) as err:
            read_events(str(path))
        assert "2" in str(err.value)
        path.write_text('[1, 2]\n')
        with pytest.raises(ValueError):
            read_events(str(path))

    def test_unwritable_destination_never_raises(self):
        journal = EventJournal("/nonexistent-dir/nope/events.jsonl")
        assert journal.write({"name": "x"}) is False
        journal.close()

    def test_concurrent_processes_interleave_whole_lines(
            self, tmp_path, monkeypatch):
        path = tmp_path / "shared.jsonl"
        monkeypatch.setenv("TIRAMISU_EVENT_LOG", str(path))
        child = (
            "from repro.obs.events import emit\n"
            "for n in range(50):\n"
            "    emit('child.event', n=n, pad='x' * 64)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        procs = [subprocess.Popen([sys.executable, "-c", child], env=env)
                 for _ in range(3)]
        for _ in range(50):
            emit("parent.event", pad="y" * 64)
        for p in procs:
            assert p.wait(timeout=120) == 0
        events = read_events(str(path))   # raises on any torn line
        assert len(events) == 200
        assert len({e["pid"] for e in events}) == 4


# -- producers: pipeline, cache tiers, batch, search, faults ------------------

class TestPipelineEvents:
    def test_compile_emits_begin_end_under_one_id(self, tmp_path):
        journal = tmp_path / "events.jsonl"
        settings.set(event_log=journal)
        kernel = build("evt").compile("cpu")
        cid = kernel.report.compile_id
        assert cid and len(cid) == 16
        mine = [e for e in read_events(str(journal))
                if e["compile_id"] == cid]
        names = [e["name"] for e in mine]
        assert names[0] == "compile.begin"
        assert names[-1] == "compile.end"
        assert "cache.memory.miss" in names
        end = mine[-1]
        assert end["fields"]["verdict"] == "miss"
        assert end["fields"]["total_seconds"] >= 0

    def test_memory_hit_verdict_and_fresh_id_per_compile(self, tmp_path):
        journal = tmp_path / "events.jsonl"
        settings.set(event_log=journal)
        cold = build("warm").compile("cpu")
        # a memory hit returns the *same* kernel object with its report
        # replaced, so remember the cold id before recompiling
        cold_id = cold.report.compile_id
        warm = build("warm").compile("cpu")
        assert warm.report.cache_hit
        assert warm.report.compile_id != cold_id
        ends = {e["compile_id"]: e["fields"]["verdict"]
                for e in read_events(str(journal))
                if e["name"] == "compile.end"}
        assert ends[cold_id] == "miss"
        assert ends[warm.report.compile_id] == "hit"
        hits = [e for e in read_events(str(journal))
                if e["name"] == "cache.memory.hit"]
        assert [e["compile_id"] for e in hits] \
            == [warm.report.compile_id]

    def test_disk_tier_events(self, tmp_path):
        configure(tmp_path / "cache")
        journal = tmp_path / "events.jsonl"
        settings.set(event_log=journal)
        build("durable").compile("cpu")
        kernel_registry.clear()
        warm = build("durable").compile("cpu")
        assert warm.report.disk_hit
        names = [e["name"] for e in read_events(str(journal))
                 if e["compile_id"] == warm.report.compile_id]
        assert "cache.disk.hit" in names
        disk_events = [e["name"] for e in read_events(str(journal))
                       if e["name"].startswith("cache.disk.")]
        assert "cache.disk.miss" in disk_events   # the cold probe

    def test_a_warm_hit_is_counted_once(self):
        build("once").compile("cpu")
        before = metrics.counter("cache.memory.hit").value
        assert build("once").compile("cpu").report.cache_hit
        assert metrics.counter("cache.memory.hit").value == before + 1

    def test_memory_eviction_is_journaled(self, tmp_path):
        journal = tmp_path / "events.jsonl"
        settings.set(event_log=journal)
        before = metrics.counter("cache.memory.evict").value
        kernel_registry.resize(1)
        try:
            build("first").compile("cpu")
            build("second").compile("cpu")
        finally:
            kernel_registry.resize(64)
        evicts = [e for e in read_events(str(journal))
                  if e["name"] == "cache.memory.evict"]
        assert len(evicts) == 1 and evicts[0]["cat"] == "cache"
        assert metrics.counter("cache.memory.evict").value == before + 1

    def test_a_quarantine_is_not_also_a_miss(self, tmp_path):
        from repro.driver.diskcache import DiskCache
        cache = DiskCache(tmp_path / "cache")
        cache.put("k1", "real source", "cpu")
        path = cache.path_for("k1")
        path.write_bytes(path.read_bytes()[:10])
        misses = metrics.counter("cache.disk.miss").value
        quarantines = metrics.counter("cache.disk.quarantine").value
        assert cache.get("k1") is None
        assert cache.stats()["misses"] == 1       # the tier still says miss
        assert metrics.counter("cache.disk.quarantine").value \
            == quarantines + 1
        assert metrics.counter("cache.disk.miss").value == misses

    def test_compile_seconds_histogram_fed(self):
        before = metrics.histogram("compile.seconds").count
        build("hist").compile("cpu")
        assert metrics.histogram("compile.seconds").count == before + 1


class TestBatchEvents:
    def test_submit_and_dedup_share_the_job_id(self, tmp_path):
        journal = tmp_path / "events.jsonl"
        settings.set(event_log=journal)
        with BatchCompiler(use_processes=False) as batch:
            h1 = batch.submit(build("dup", 3))
            h2 = batch.submit(build("dup", 3))
            h1.result(timeout=60)
        assert h1.compile_id == h2.compile_id
        events = read_events(str(journal))
        submits = [e for e in events if e["name"] == "batch.submit"]
        dedups = [e for e in events if e["name"] == "batch.dedup"]
        assert len(submits) == 1 and len(dedups) == 1
        assert submits[0]["compile_id"] == h1.compile_id
        assert dedups[0]["compile_id"] == h1.compile_id
        # ... and the compile itself journaled under the job's id.
        assert {"compile.begin", "compile.end"} <= {
            e["name"] for e in events
            if e["compile_id"] == h1.compile_id}

    def test_submit_counts_distinct_jobs(self):
        submits = metrics.counter("batch.submit").value
        dedups = metrics.counter("batch.dedup").value
        with BatchCompiler(use_processes=False) as batch:
            handles = [batch.submit(build(name, 3))
                       for name in ("twice", "twice", "twice", "other")]
            for handle in handles:
                handle.result(timeout=60)
        assert batch.stats.submitted == 4
        assert metrics.counter("batch.submit").value == submits + 2
        assert metrics.counter("batch.dedup").value == dedups + 2

    def test_worker_failure_retry_fallback_events(
            self, tmp_path, broken_pool):
        journal = tmp_path / "events.jsonl"
        settings.set(event_log=journal)
        with BatchCompiler(max_workers=2) as batch:
            handle = batch.submit(build(), max_retries=1)
            handle.result(timeout=60)
        mine = [e for e in read_events(str(journal))
                if e["compile_id"] == handle.compile_id]
        names = [e["name"] for e in mine]
        assert names.count("batch.worker_failure") == 2
        assert names.count("batch.retry") == 1
        assert "batch.fallback" in names
        assert "batch.pool_restart" in names
        failure = next(e for e in mine
                       if e["name"] == "batch.worker_failure")
        assert "error" in failure["fields"]
        assert failure["cat"] == "batch"


class TestSearchEvents:
    def test_beam_search_journals_one_correlated_story(self, tmp_path):
        journal = tmp_path / "events.jsonl"
        settings.set(event_log=journal)

        from repro.autosched import ModelOracle
        beam_search(build("srch"), ModelOracle({}, num_threads=1),
                    beam_width=2, rounds=2, budget=16)
        events = read_events(str(journal))
        search = [e for e in events if e["cat"] == "search"]
        assert search, "search produced no events"
        ids = {e["compile_id"] for e in search}
        assert len(ids) == 1 and None not in ids
        names = [e["name"] for e in search]
        assert names[0] == "search.begin"
        assert names[-1] == "search.end"
        assert "search.round" in names
        assert "search.candidate" in names
        end = search[-1]["fields"]
        assert end["candidates"] <= 16


class TestFaultEvents:
    def test_injected_cache_corruption_is_journaled(self, tmp_path):
        journal = tmp_path / "events.jsonl"
        settings.set(event_log=journal)
        build("victim").compile("cpu")
        with injected(FaultPlan(seed=3).corrupt_cache()):
            recompiled = build("victim").compile("cpu")
        assert not recompiled.report.cache_hit
        events = read_events(str(journal))
        names = [e["name"] for e in events]
        assert "fault.injected" in names
        assert "cache.memory.corrupt" in names
        fault = next(e for e in events if e["name"] == "fault.injected")
        assert fault["cat"] == "fault"
        assert fault["fields"]["kind"] == "cache-corrupt"
        # the corruption fired inside the victim's compile context
        assert fault["compile_id"] == recompiled.report.compile_id


# -- one call per decision ----------------------------------------------------

class TestOneCallPerDecision:
    def test_journal_lines_equal_counters(self, tmp_path, monkeypatch,
                                          broken_pool):
        """Every name this process journaled was counted exactly as
        often as it has lines: emit is the only writer of both."""
        from repro.backends import parallel
        from repro.kernels.stencil import build_heat
        monkeypatch.setattr(parallel, "THREAD_FLOOR_BYTES", 0)
        journal = tmp_path / "events.jsonl"
        metrics.reset()
        settings.set(event_log=journal)

        plan = SchedulePlan([Interchange("c", 0, 1)])
        with injected(FaultPlan().refuse_pool(op="batch", times=99)), \
                BatchCompiler(max_workers=2) as batch:
            batch.submit(build("agree"), autoschedule=plan,
                         max_retries=1).result(timeout=120)

        configure(tmp_path / "cache")
        build("durable").compile("cpu")          # disk miss, then store
        kernel_registry.clear()
        assert build("durable").compile("cpu").report.disk_hit
        with injected(FaultPlan(seed=3).corrupt_cache()):
            build("durable").compile("cpu")      # memory corrupt

        heat = build_heat()
        params = {"T": 12, "N": 80}
        kernel = heat.function.compile("cpu", execution="taskgraph",
                                       num_threads=2)
        kernel(**heat.make_inputs(params, np.random.default_rng(0)),
               **params)

        lines = collections.Counter(
            e["name"] for e in read_events(str(journal))
            if e["pid"] == os.getpid())
        assert {"batch.submit", "batch.worker_failure", "batch.retry",
                "batch.fallback", "fault.injected", "search.plan_apply",
                "cache.disk.miss", "cache.disk.hit", "cache.memory.corrupt",
                "taskgraph.schedule", "taskgraph.task.done",
                "compile.begin", "compile.end"} <= set(lines)
        assert {name: metrics.counter(name).value for name in lines} \
            == dict(lines)

    def test_concurrent_first_emits_and_repoints_leak_no_fd(
            self, tmp_path):
        """Eight threads first-emit at once into a fresh log, which is
        then repointed back and forth while they run: one journal is
        built per activation, and a closed one is never reopened behind
        the swap, so once the log is off no fd on either path is open."""
        from repro.obs import events
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        fds = Path("/proc/self/fd")
        if not fds.is_dir():
            pytest.skip("no /proc/self/fd on this host")

        def open_fds(path):
            n = 0
            for fd in fds.iterdir():
                try:
                    n += os.readlink(fd) == str(path)
                except OSError:
                    pass
            return n

        settings.set(event_log=None)
        events._active_journal()                 # drops any old journal
        settings.set(event_log=paths[0])
        start = threading.Barrier(9)
        stop = threading.Event()

        def writer():
            start.wait()
            while not stop.is_set():
                emit("race.probe")

        threads = [threading.Thread(target=writer) for _ in range(8)]
        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            start.wait()
            for n in range(40):
                settings.set(event_log=paths[n % 2])
                emit("race.probe")
                assert open_fds(paths[n % 2]) <= 1
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=30)
            sys.setswitchinterval(saved)
        assert not any(t.is_alive() for t in threads)
        settings.set(event_log=None)
        events._active_journal()
        assert [open_fds(p) for p in paths] == [0, 0]


# -- metrics exposition -------------------------------------------------------

class TestOpenMetrics:
    def _registry(self):
        reg = metrics.__class__()
        reg.counter("demo.requests").inc(3)
        reg.gauge("demo.imbalance").set(1.5)
        h = reg.histogram("demo.seconds")
        for v in (0.01, 0.02, 0.03, 0.04, 0.2):
            h.observe(v)
        return reg

    def test_render_parse_round_trip(self):
        text = obs_export.render_openmetrics(self._registry())
        assert text.endswith("# EOF\n")
        parsed = obs_export.parse_openmetrics(text)
        assert parsed["demo_requests_total"] == 3
        assert parsed["demo_imbalance"] == 1.5
        assert parsed["demo_seconds_count"] == 5
        assert abs(parsed["demo_seconds_sum"] - 0.3) < 1e-9
        p50 = parsed['demo_seconds{quantile="0.5"}']
        p99 = parsed['demo_seconds{quantile="0.99"}']
        assert 0.01 <= p50 <= 0.04
        assert p50 <= p99 <= 0.2

    def test_parse_rejects_damage(self):
        with pytest.raises(ValueError):
            obs_export.parse_openmetrics("demo_total 1\n")   # no EOF
        with pytest.raises(ValueError):
            obs_export.parse_openmetrics(
                "demo_total notanumber\n# EOF\n")

    def test_sanitize_name(self):
        assert obs_export.sanitize_name("parallel.chunk-x") \
            == "parallel_chunk_x"
        assert obs_export.sanitize_name("9lives") == "_9lives"

    def test_write_metrics_file_picks_format(self, tmp_path):
        reg = self._registry()
        prom = tmp_path / "m.prom"
        as_json = tmp_path / "m.json"
        assert obs_export.write_metrics_file(str(prom), reg) == str(prom)
        assert obs_export.write_metrics_file(str(as_json), reg) \
            == str(as_json)
        obs_export.parse_openmetrics(prom.read_text())
        doc = json.loads(as_json.read_text())
        assert doc["metrics"]["counters"]["demo.requests"] == 3
        assert doc["metrics"]["histograms"]["demo.seconds"]["count"] == 5

    def test_write_without_destination_is_noop(self):
        assert obs_export.write_metrics_file() is None

    def test_autoflush_honors_environment(self, tmp_path, monkeypatch):
        obs_export.autoflush()   # no destination: a no-op
        dest = tmp_path / "auto.prom"
        monkeypatch.setenv("TIRAMISU_METRICS_FILE", str(dest))
        obs_export.autoflush()
        before = obs_export.parse_openmetrics(dest.read_text())
        emit("autoflush.probe")
        obs_export.autoflush()   # rewritten in place, no thread kept
        after = obs_export.parse_openmetrics(dest.read_text())
        assert after["autoflush_probe_total"] \
            == before.get("autoflush_probe_total", 0) + 1
        assert not any(t.name == "tiramisu-metrics-flusher"
                       for t in threading.enumerate())

    def test_a_compile_without_metrics_file_never_imports_the_exporter(
            self, tmp_path):
        compile_one = (
            "import os, sys\n"
            "import repro\n"
            "from repro import Computation, Function, Var\n"
            "with Function('f') as f:\n"
            "    Computation('c', [Var('i', 0, 8)], 2.0)\n"
            "assert f.compile('cpu')()['c'].sum() == 16\n")
        env = {k: v for k, v in os.environ.items()
               if k != "TIRAMISU_METRICS_FILE"}
        subprocess.run([sys.executable, "-c", compile_one
                        + "assert 'repro.obs.export' not in sys.modules\n"],
                       check=True, env=env, timeout=120)
        # with the knob set the compile loads the exporter, and the
        # at-exit flush writes the file the compile wrote and we removed
        dest = tmp_path / "exit.prom"
        env["TIRAMISU_METRICS_FILE"] = str(dest)
        subprocess.run([sys.executable, "-c", compile_one
                        + "assert 'repro.obs.export' in sys.modules\n"
                        "os.remove(os.environ['TIRAMISU_METRICS_FILE'])\n"],
                       check=True, env=env, timeout=120)
        assert obs_export.parse_openmetrics(dest.read_text())[
            "compile_end_total"] == 1


# -- doc drift ----------------------------------------------------------------

def _expand_braces(span):
    m = re.search(r"\{([^{}]*)\}", span)
    if not m:
        return [span]
    pre, post = span[:m.start()], span[m.end():]
    return [out for alt in m.group(1).split(",")
            for out in _expand_braces(pre + alt.strip() + post)]


class TestDocDrift:
    """docs/observability.md keeps two inventories: the journaled names
    (each also a counter, bumped by ``emit``) and the registry-only
    counters, gauges and histograms.  A name in ``src/`` is in exactly
    one of them, so no decision is counted by hand a second time."""

    DOC = REPO / "docs" / "observability.md"

    def _documented(self, heading):
        """The names in the first column of the table under
        ``### {heading}`` (brace groups expand)."""
        text = self.DOC.read_text()
        start = text.index(f"### {heading}")
        section = text[start:text.index("\n#", start + 1)]
        names = set()
        for row in re.findall(r"^\| *(`[^|]+)\|", section, re.MULTILINE):
            for span in re.findall(r"`([^`\n]+)`", row):
                names.update(_expand_braces(span.strip()))
        return names

    def _src_literals(self, pattern):
        found = set()
        for path in (REPO / "src").rglob("*.py"):
            if path.name == "metrics.py":
                # the registry module itself only *mentions* names in
                # docstrings (including a placeholder "x")
                continue
            found.update(pattern.findall(path.read_text()))
        return found

    def _emitted(self):
        """``emit("…")`` literals."""
        pattern = re.compile(r"\bemit(?:_event)?\(\s*\"([^\"]+)\"")
        emitted = self._src_literals(pattern)
        assert len(emitted) >= 35, "event scan broke"
        return emitted

    def _registered(self):
        pattern = re.compile(
            r"\.(?:counter|gauge|histogram)\(\s*\"([^\"]+)\"\s*\)")
        registered = self._src_literals(pattern)
        assert len(registered) >= 25, "metric scan broke"
        return registered

    def test_no_decision_is_counted_twice(self):
        both = self._emitted() & self._registered()
        assert not both, (
            f"emit() already counts these; drop the hand-written "
            f"counter: {sorted(both)}")
        assert not (self._documented("Journaled names")
                    & self._documented("Registry-only metrics"))

    def test_every_emitted_metric_is_documented(self):
        missing = sorted(self._registered()
                         - self._documented("Registry-only metrics"))
        assert not missing, (
            f"metrics registered in src/ but absent from the "
            f"registry-only table of docs/observability.md: {missing}")

    def test_every_event_name_is_documented(self):
        missing = sorted(self._emitted()
                         - self._documented("Journaled names"))
        assert not missing, (
            f"events emitted in src/ but absent from the journaled "
            f"names of docs/observability.md: {missing}")


# -- end to end ---------------------------------------------------------------

class TestEndToEnd:
    def test_batch_fault_and_search_tell_one_correlated_story(
            self, tmp_path, monkeypatch, broken_pool):
        """The acceptance path: a batch compile with an injected fault
        and an autoschedule plan, run under TIRAMISU_EVENT_LOG +
        TIRAMISU_METRICS_FILE.  The journal must hold begin/end,
        cache-tier, retry and search events all under the submitting
        job's compile_id; the OpenMetrics file must parse with
        histogram quantiles."""
        journal = tmp_path / "events.jsonl"
        exposition = tmp_path / "metrics.prom"
        monkeypatch.setenv("TIRAMISU_EVENT_LOG", str(journal))
        monkeypatch.setenv("TIRAMISU_METRICS_FILE", str(exposition))

        plan = SchedulePlan([Interchange("c", 0, 1)])
        with BatchCompiler(max_workers=2) as batch:
            handle = batch.submit(build("e2e"), autoschedule=plan,
                                  max_retries=1)
            kernel = handle.result(timeout=120)
        cid = handle.compile_id
        assert kernel.report.compile_id == cid

        # ... then a warm recompile through an injected cache fault
        # (same options: runtime dispatch knobs are part of the key).
        with injected(FaultPlan(seed=3).corrupt_cache()):
            hurt = build("e2e").compile("cpu", autoschedule=plan,
                                        max_retries=1)
        assert not hurt.report.cache_hit

        events = read_events(str(journal))
        mine = [e for e in events if e["compile_id"] == cid]
        names = {e["name"] for e in mine}
        assert {"batch.submit", "batch.worker_failure", "batch.retry",
                "batch.fallback", "compile.begin", "cache.memory.miss",
                "search.plan_apply", "compile.end"} <= names
        assert {"compile", "cache", "batch", "search"} <= {
            e["cat"] for e in mine}
        for e in mine:
            assert e["wall"] > 0 and e["mono_ns"] > 0 and e["pid"] > 0
        # events are appended in causal order within the process
        ordered = [e["name"] for e in mine]
        assert ordered.index("batch.submit") \
            < ordered.index("compile.begin") \
            < ordered.index("search.plan_apply") \
            < ordered.index("compile.end")
        # the injected fault journaled under the *second* compile's id
        fault = next(e for e in events if e["name"] == "fault.injected")
        assert fault["compile_id"] == hurt.report.compile_id != cid

        # the metrics exposition was autoflushed and parses, with
        # summary quantiles for the compile-latency histogram
        parsed = obs_export.parse_openmetrics(exposition.read_text())
        assert parsed['compile_seconds{quantile="0.5"}'] >= 0
        assert parsed['compile_seconds{quantile="0.99"}'] >= 0
        assert parsed["compile_seconds_count"] >= 2
        assert parsed["cache_memory_miss_total"] >= 1
