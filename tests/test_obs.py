"""Runtime observability: per-computation profiling counters, the span
tracer, the metrics registry, and the model-vs-measured calibration.

The load-bearing guarantees: ``profile=True`` iteration counts equal
the polyhedral domain cardinalities exactly (sequential, vectorized,
and multicore); ``profile=False`` emits byte-identical source to an
unprofiled build; one run with tracing enabled yields compile-stage,
loop-nest, parallel, and worker spans on a single timeline.
"""

import json
import math

import numpy as np
import pytest

from repro import settings
from repro.driver.stats import CacheStats
from repro.driver.trace import CompileReport, StageTiming
from repro.isl.enumerate_ import count as domain_count
from repro.kernels.linalg import TEST_SGEMM, build_sgemm
from repro.obs import (CAT_COMPILE, CAT_LOOP, CAT_PARALLEL, CAT_WORKER,
                       Counter, Gauge, Histogram, MetricsRegistry,
                       RunCollector, Span, Tracer, build_run_report,
                       get_tracer, metrics, write_trace_file)


@pytest.fixture
def clean_tracer():
    """The global tracer, cleared around the test (conftest resets the
    ``trace_file`` override that turns collection on)."""
    tracer = get_tracer()
    tracer.clear()
    yield tracer
    tracer.clear()


def run_bundle(bundle, kernel, seed=0):
    rng = np.random.default_rng(seed)
    inputs = bundle.make_inputs(TEST_SGEMM, rng)
    return kernel(**{k: np.copy(v) for k, v in inputs.items()},
                  **TEST_SGEMM)


def sgemm_domain_counts(bundle):
    return {name: domain_count(comp.domain, TEST_SGEMM)
            for name, comp in bundle.computations.items()}


# -- profiled execution ------------------------------------------------------


class TestProfiledCounters:
    def test_sequential_counts_match_domain_cardinality(self):
        bundle = build_sgemm()
        kernel = bundle.function.compile("cpu", profile=True,
                                         num_threads=1)
        out = run_bundle(bundle, kernel)
        run = kernel.last_run
        assert run is not None
        expected = sgemm_domain_counts(bundle)
        for name, points in expected.items():
            rec = run.comp(name)
            assert rec.iterations == points, name
            # float32 stores: 4 bytes per statement instance
            assert rec.bytes_written == points * 4, name
            assert rec.wall_ns > 0, name
        assert run.total_iterations == sum(expected.values())
        # the run still computes the right answer
        ref = bundle.reference(
            {k: np.copy(v) for k, v in
             bundle.make_inputs(TEST_SGEMM,
                                np.random.default_rng(0)).items()},
            TEST_SGEMM)
        assert np.allclose(out["C"], ref["C"], atol=1e-3)

    def test_vectorized_lanes_counted_exactly(self):
        bundle = build_sgemm()
        acc = bundle.computations["acc"]
        acc.interchange("j", "k")
        acc.vectorize("j", 8)
        kernel = bundle.function.compile("cpu", profile=True,
                                         num_threads=1)
        # lane counting (the range's hi - lo + 1), not one add per lane
        assert "_ct1 += M\n" in kernel.source
        assert kernel.vector_loops == 1
        run_bundle(bundle, kernel)
        expected = sgemm_domain_counts(bundle)
        for name, points in expected.items():
            assert kernel.last_run.comp(name).iterations == points, name

    def test_parallel_counts_merge_exactly(self):
        bundle = build_sgemm()
        bundle.computations["acc"].parallelize("i")
        kernel = bundle.function.compile("cpu", profile=True,
                                         num_threads=2)
        assert kernel.runtime is not None
        run_bundle(bundle, kernel)
        run = kernel.last_run
        expected = sgemm_domain_counts(bundle)
        for name, points in expected.items():
            assert run.comp(name).iterations == points, name
        assert run.parallel["regions"] >= 1
        assert run.parallel["chunks"] >= 2
        assert run.parallel["workers"] == 2

    def test_parallel_run_records_worker_spans(self):
        bundle = build_sgemm()
        bundle.computations["acc"].parallelize("i")
        kernel = bundle.function.compile("cpu", profile=True,
                                         num_threads=2)
        run_bundle(bundle, kernel)
        worker = [s for s in kernel.last_run.spans if s.cat == CAT_WORKER]
        assert len(worker) >= 2
        pids = {s.args["worker_pid"] for s in worker}
        assert pids  # chunk spans carry the executing worker's pid
        # the offloaded nest also appears as a parent parallel span
        cats = {s.cat for s in kernel.last_run.spans}
        assert CAT_PARALLEL in cats

    def test_mixed_schedule_yields_loop_and_parallel_spans(self):
        # Parallelize only acc: scale's nest stays sequential, so one
        # profiled run produces both span flavors.
        bundle = build_sgemm()
        bundle.computations["acc"].parallelize("i")
        kernel = bundle.function.compile("cpu", profile=True,
                                         num_threads=2)
        run_bundle(bundle, kernel)
        cats = {s.cat for s in kernel.last_run.spans}
        assert CAT_LOOP in cats and CAT_PARALLEL in cats

    def test_run_report_table_and_dict(self):
        bundle = build_sgemm()
        kernel = bundle.function.compile("cpu", profile=True,
                                         num_threads=1)
        run_bundle(bundle, kernel)
        run = kernel.last_run
        table = run.format_table()
        assert "acc" in table and "scale" in table
        assert f"{run.comp('acc').iterations}" in table
        payload = json.loads(json.dumps(run.to_dict()))
        assert payload["computations"]["acc"]["iterations"] == \
            run.comp("acc").iterations
        assert payload["function"] == bundle.function.name


class TestProfileOffIsFree:
    def test_default_source_has_no_instrumentation(self):
        bundle = build_sgemm()
        kernel = bundle.function.compile("cpu")
        assert "_obs" not in kernel.source
        assert "_now_ns" not in kernel.source
        assert kernel.last_run is None
        run_bundle(bundle, kernel)
        assert kernel.last_run is None   # still: profiling never ran

    def test_profile_false_is_byte_identical_and_cached(self):
        bundle = build_sgemm()
        k1 = bundle.function.compile("cpu")
        k2 = bundle.function.compile("cpu", profile=False)
        assert k2 is k1                  # same fingerprint -> cache hit
        assert k2.source == k1.source

    def test_profile_changes_fingerprint_not_results(self):
        plain = build_sgemm()
        prof = build_sgemm()
        k_plain = plain.function.compile("cpu")
        k_prof = prof.function.compile("cpu", profile=True,
                                       num_threads=1)
        assert k_plain.report.fingerprint != k_prof.report.fingerprint
        assert k_plain.source != k_prof.source
        out_plain = run_bundle(plain, k_plain)
        out_prof = run_bundle(prof, k_prof)
        assert np.allclose(out_plain["C"], out_prof["C"])

    def test_profile_option_validated(self):
        bundle = build_sgemm()
        with pytest.raises(TypeError, match="profile"):
            bundle.function.compile("cpu", profile=1)


# -- RunCollector / build_run_report ----------------------------------------


class TestRunCollector:
    def test_count_accumulates(self):
        c = RunCollector()
        c.count("a", 10, 40)
        c.count("a", 5, 20)
        assert c.counts["a"] == [15, 60]

    def test_merge_snapshot_roundtrip(self):
        parent, worker = RunCollector(), RunCollector()
        worker.count("a", 7, 28)
        worker.count("b", 3, 24)
        parent.count("a", 1, 4)
        parent.merge(worker.snapshot())
        parent.merge(None)              # missing snapshot is a no-op
        assert parent.counts == {"a": [8, 32], "b": [3, 24]}

    def test_report_attributes_nest_time_to_comps(self):
        c = RunCollector()
        c.count("a", 10, 40)
        c.span("i", ("a",), 1000, 4000)
        report = build_run_report("f", "cpu", 5000, c,
                                  comp_names=["a", "empty"])
        assert report.comp("a").wall_ns == 3000
        assert report.comp("empty").iterations == 0   # still present
        assert report.wall_seconds == pytest.approx(5e-6)


# -- metrics registry --------------------------------------------------------


class TestMetrics:
    def test_counter_monotonic(self):
        c = Counter("c")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_last_write_wins(self):
        g = Gauge("g")
        g.set(4)
        g.set(2)
        assert g.value == 2.0

    def test_histogram_summary_and_spread(self):
        h = Histogram("h")
        for v in (1.0, 2.0, 4.0):
            h.observe(v)
        assert h.count == 3
        assert h.mean == pytest.approx(7.0 / 3)
        assert h.spread == pytest.approx(4.0)
        s = h.summary()
        assert s["min"] == 1.0 and s["max"] == 4.0
        assert Histogram("empty").spread == 1.0
        assert Histogram("empty").summary()["min"] == 0.0

    def test_spread_with_nonpositive_min_reports_inf(self):
        # A zero (or negative) floor under a larger max is maximal
        # imbalance; the old code answered 1.0 ("perfectly balanced").
        h = Histogram("h")
        h.observe(0.0)
        h.observe(5.0)
        assert math.isinf(h.spread)
        neg = Histogram("neg")
        neg.observe(-1.0)
        neg.observe(3.0)
        assert math.isinf(neg.spread)
        # Identical non-positive observations really are balanced.
        flat = Histogram("flat")
        flat.observe(0.0)
        flat.observe(0.0)
        assert flat.spread == 1.0

    def test_histogram_quantiles(self):
        h = Histogram("q")
        for v in range(1, 101):          # 1..100
            h.observe(float(v))
        s = h.summary()
        assert 40.0 <= s["p50"] <= 60.0
        assert 80.0 <= s["p90"] <= 100.0
        assert 90.0 <= s["p99"] <= 100.0
        assert s["p50"] <= s["p90"] <= s["p99"]
        # Quantiles never escape the observed range.
        assert s["p99"] <= s["max"] and s["p50"] >= s["min"]
        empty = Histogram("none").summary()
        assert empty["p50"] == empty["p99"] == 0.0
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_registry_create_on_first_use_and_reset(self):
        reg = MetricsRegistry()
        reg.counter("x").inc(2)
        assert reg.counter("x").value == 2.0   # same instance
        reg.gauge("y").set(7)
        reg.histogram("z").observe(1.5)
        snap = reg.snapshot()
        assert snap["x"] == 2.0 and snap["y"] == 7.0
        assert snap["z"]["count"] == 1
        reg.counter("x").inc()
        assert snap["x"] == 2.0                # point-in-time copy
        reg.reset()
        after = reg.snapshot()
        assert after["x"] == 0.0 and after["y"] == 0.0
        assert after["z"]["count"] == 0

    def test_reset_keeps_outstanding_handles_live(self):
        # The stale-handle bug: reset() used to drop the instances, so
        # a caller still holding a Counter kept incrementing an orphan
        # and its counts vanished from every later snapshot.
        reg = MetricsRegistry()
        c = reg.counter("held")
        g = reg.gauge("dial")
        h = reg.histogram("timings")
        c.inc(3)
        h.observe(2.0)
        reg.reset()
        c.inc(5)                       # the handle must still count
        g.set(7)
        h.observe(4.0)
        snap = reg.snapshot()
        assert snap["held"] == 5.0
        assert snap["dial"] == 7.0
        assert snap["timings"]["count"] == 1
        assert snap["timings"]["max"] == 4.0
        assert reg.counter("held") is c   # same instance, still shared

    def test_cross_kind_name_collision_raises(self):
        from repro.obs.metrics import MetricNameError
        reg = MetricsRegistry()
        reg.counter("shared.name")
        with pytest.raises(MetricNameError):
            reg.gauge("shared.name")
        with pytest.raises(MetricNameError):
            reg.histogram("shared.name")
        reg.histogram("other")
        with pytest.raises(MetricNameError):
            reg.counter("other")
        # Same kind is still create-once-return-always.
        assert reg.counter("shared.name").name == "shared.name"

    def test_typed_snapshot_separates_kinds(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(3.0)
        typed = reg.typed_snapshot()
        assert typed["counters"] == {"c": 2.0}
        assert typed["gauges"] == {"g": 1.5}
        assert typed["histograms"]["h"]["count"] == 1

    def test_parallel_run_feeds_global_registry(self):
        metrics.reset()
        bundle = build_sgemm()
        bundle.computations["acc"].parallelize("i")
        kernel = bundle.function.compile("cpu", num_threads=2)
        run_bundle(bundle, kernel)
        snap = metrics.snapshot()
        assert snap["parallel.regions"] >= 1
        assert snap["parallel.chunks"] >= 2
        assert snap["parallel.chunk_seconds"]["count"] == \
            snap["parallel.chunks"]
        assert snap["parallel.chunk_iters"]["total"] >= \
            TEST_SGEMM["N"]             # every acc row dispatched
        assert snap["parallel.last_imbalance"] >= 1.0
        assert not math.isinf(snap["parallel.last_imbalance"])


# -- tracer ------------------------------------------------------------------


class TestTracer:
    def test_disabled_by_default(self, clean_tracer, monkeypatch):
        monkeypatch.delenv("TIRAMISU_TRACE_FILE", raising=False)
        assert not clean_tracer.enabled()
        with clean_tracer.span("nothing"):
            pass
        assert len(clean_tracer) == 0     # disabled span() records nothing

    def test_env_file_enables_collection(self, clean_tracer, monkeypatch,
                                         tmp_path):
        dest = tmp_path / "out.json"
        monkeypatch.setenv("TIRAMISU_TRACE_FILE", str(dest))
        assert settings.get("trace_file") == str(dest)
        assert clean_tracer.enabled()
        with settings.override(trace_file=None):   # beats the env var
            assert not clean_tracer.enabled()

    def test_span_context_manager_records(self, clean_tracer, tmp_path):
        settings.set(trace_file=tmp_path / "trace.json")
        with clean_tracer.span("work", cat="test", detail=3):
            pass
        (span,) = clean_tracer.spans()
        assert span.name == "work" and span.args == {"detail": 3}
        assert span.dur_ns >= 0

    def test_record_compile_makes_stage_spans(self, clean_tracer):
        report = CompileReport(function="f", target="cpu",
                               fingerprint="deadbeef" * 4, cache_hit=False)
        report.stages = [StageTiming("emit", 0.25, start=2.0),
                         StageTiming("bind", 0.5, start=2.25)]
        clean_tracer.record_compile(report)
        spans = clean_tracer.spans()
        assert [s.name for s in spans] == ["compile:emit", "compile:bind"]
        assert all(s.cat == CAT_COMPILE for s in spans)
        assert spans[0].start_ns == int(2.0 * 1e9)
        assert spans[0].dur_ns == int(0.25 * 1e9)
        assert spans[0].args["cache"] == "miss"

    def test_chrome_trace_events_are_well_formed(self, clean_tracer):
        clean_tracer.add(Span("s", "cat", start_ns=2000, dur_ns=1000,
                              pid=1, tid="t"))
        doc = clean_tracer.to_chrome_trace()
        (ev,) = doc["traceEvents"]
        assert ev["ph"] == "X"
        assert ev["ts"] == 2.0 and ev["dur"] == 1.0   # microseconds
        assert doc["displayTimeUnit"] == "ms"

    def test_write_trace_file(self, clean_tracer, monkeypatch, tmp_path):
        monkeypatch.delenv("TIRAMISU_TRACE_FILE", raising=False)
        assert write_trace_file() is None             # no destination
        dest = tmp_path / "trace.json"
        assert write_trace_file(str(dest)) is None    # nothing recorded
        clean_tracer.add(Span("s", "cat", 0, 10, pid=1))
        assert write_trace_file(str(dest)) == str(dest)
        doc = json.loads(dest.read_text())
        assert doc["traceEvents"][0]["name"] == "s"

    def test_one_timeline_compile_run_workers(self, clean_tracer,
                                              tmp_path):
        """The acceptance scenario: one profiled num_threads=2 run with
        tracing on yields compile-stage, loop-nest, parallel, and worker
        spans in a single exported trace."""
        settings.set(trace_file=tmp_path / "trace.json")
        bundle = build_sgemm()
        bundle.computations["acc"].parallelize("i")
        # cache=False: a registry hit would skip the emit/bind stages
        # whose spans this test asserts on
        kernel = bundle.function.compile("cpu", profile=True,
                                         num_threads=2, cache=False)
        run_bundle(bundle, kernel)
        cats = {s.cat for s in clean_tracer.spans()}
        assert {CAT_COMPILE, CAT_LOOP, CAT_PARALLEL, CAT_WORKER} <= cats
        names = {s.name for s in clean_tracer.spans()}
        assert "compile:emit" in names

    def test_own_tracer_instances_are_independent(self):
        t1, t2 = Tracer(), Tracer()
        t1.add_span("a", "cat", 0, 5)
        assert len(t1) == 1 and len(t2) == 0

    def test_export_during_active_emission_is_always_valid_json(
            self, tmp_path):
        """The eager-flush contract: exporting while other threads are
        still emitting spans must always leave a complete Chrome-trace
        document on disk (temp-file + atomic rename), never a torn
        one."""
        import threading
        tracer = Tracer()
        dest = tmp_path / "trace.json"

        def hammer():
            for i in range(2000):
                tracer.add_span(f"s{i}", "cat", i, i + 5,
                                detail="x" * 64)

        writers = [threading.Thread(target=hammer) for _ in range(3)]
        for t in writers:
            t.start()
        try:
            sizes = []
            for _ in range(20):
                assert tracer.export(str(dest)) == str(dest)
                doc = json.loads(dest.read_text())   # must never tear
                assert "traceEvents" in doc
                sizes.append(len(doc["traceEvents"]))
        finally:
            for t in writers:
                t.join()
        assert sizes == sorted(sizes)      # the log only grows
        assert tracer.export(str(dest)) == str(dest)
        assert len(json.loads(dest.read_text())["traceEvents"]) == 6000
        # No stray temp files left behind by the atomic writer.
        assert [p.name for p in tmp_path.iterdir()] == ["trace.json"]

    def test_compile_spans_carry_compile_id(self, clean_tracer):
        report = CompileReport(function="f", target="cpu",
                               fingerprint="ab" * 32)
        report.compile_id = "deadbeef00112233"
        report.stages.append(StageTiming("emit", 0.01, 1.0))
        clean_tracer.record_compile(report)
        (span,) = clean_tracer.spans()
        assert span.args["compile_id"] == "deadbeef00112233"


# -- CompileReport satellites ------------------------------------------------


class TestCompileReportObservability:
    def test_cache_stats_is_point_in_time(self):
        # Keep report A, compile something else, A's stats must not move.
        a = build_sgemm()
        report_a = a.function.compile("cpu").report
        frozen = dict(report_a.cache_stats)
        b = build_sgemm()
        b.computations["acc"].parallelize("i")   # different fingerprint
        b.function.compile("cpu", num_threads=1)
        assert report_a.cache_stats == frozen

    def test_to_dict_json_roundtrip(self):
        bundle = build_sgemm()
        report = bundle.function.compile("cpu",
                                         check_legality=True).report
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["function"] == bundle.function.name
        assert payload["target"] == "cpu"
        assert payload["fingerprint"] == report.fingerprint
        names = [s["name"] for s in payload["stages"]]
        assert "emit" in names and "legality" in names
        assert all(s["start"] > 0 for s in payload["stages"])
        assert payload["total_seconds"] == \
            pytest.approx(report.total_seconds)
        assert payload["cache_stats"] == report.cache_stats

    def test_format_table_aligns_long_stage_names(self):
        report = CompileReport(function="f", target="cpu",
                               fingerprint="abc")
        long = "a-very-long-stage-name-indeed"
        report.stages = [StageTiming("emit", 0.001),
                         StageTiming(long, 0.002)]
        table = report.format_table()
        rows = [l for l in table.splitlines()
                if l.strip().startswith(("stage", "emit", long, "total"))]
        assert len(rows) == 4
        # the right-aligned ms column ends at the same offset everywhere
        assert len({len(r) for r in rows}) == 1, table

    def test_calibration_rows_are_exact_and_normalized(self):
        from repro.evaluation import calibrate_kernel, render_calibration
        from repro.kernels.linalg import schedule_sgemm_cpu

        rows = calibrate_kernel(build_sgemm,
                                lambda b: schedule_sgemm_cpu(b, 8, 4))
        assert {r.computation for r in rows} == {"scale", "acc"}
        for r in rows:
            assert r.iterations_exact, r
            assert 0.0 <= r.share_error <= 1.0
        assert sum(r.measured_share for r in rows) == pytest.approx(1.0)
        assert sum(r.modeled_share for r in rows) == pytest.approx(1.0)
        table = render_calibration(rows)
        assert "sgemm" in table and "yes" in table

    def test_format_table_conditional_lines(self):
        report = CompileReport(function="f", target="cpu",
                               fingerprint="abc")
        bare = report.format_table()
        assert "legality" not in bare and "race-check" not in bare
        assert "parallel:" not in bare and "cache:" not in bare
        report.deps_checked = 3
        report.races_checked = 1
        report.parallel_regions = 2
        report.parallel_workers = 4
        report.cache_stats = CacheStats("memory", hits=1, misses=2,
                                        size=2, maxsize=64)
        full = report.format_table()
        assert "3 dependences" in full
        assert "1 tagged" in full
        assert "2 region(s) x 4 worker(s)" in full
        assert "1 hits / 2 misses" in full
