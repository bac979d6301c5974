"""Observability overhead: profiling off must cost nothing.

``profile=False`` (the default) is required to emit byte-identical
source to a pre-observability build — the guarantee is structural, and
this harness checks the structure: the emitted artifacts are identical
and carry no profiling code.  (A best-of-N "within 5%" wall-clock gate
on two byte-identical kernels used to ride along; what profiling costs
when it is *on* is ``obs.profile_overhead_ratio`` in ``python3 -m
bench.run``, BENCHMARK.json.)  A second smoke test exports one
profiled, traced run and checks the Chrome-trace JSON holds
compile-stage, loop-nest, parallel, and worker spans on one timeline.

The same contract covers the telemetry export layer (PR 8): with the
``event_log`` / ``metrics_file`` knobs unset a compile creates no
journal and writes no file at all, and *enabling* them must never change
the emitted kernel source — telemetry observes the compile, it does
not participate in it.
"""

import json

import numpy as np

from conftest import print_table
from repro import settings
from repro.kernels.linalg import build_sgemm
from repro.obs import (CAT_COMPILE, CAT_LOOP, CAT_PARALLEL, CAT_WORKER,
                       get_tracer, read_events, write_trace_file)

PARAMS = {"N": 96, "M": 96, "K": 96}

#: What ``profile=True`` adds to the emitted source.
PROFILING_CODE = ("_obs", "_now_ns", "_ct0", "_sp1")


def _run(bundle, kernel):
    inputs = bundle.make_inputs(PARAMS, np.random.default_rng(0))
    return kernel(**{k: np.copy(v) for k, v in inputs.items()}, **PARAMS)


class TestProfileOffOverhead:
    def test_profile_false_artifacts_identical(self):
        base = build_sgemm()
        k_base = base.function.compile("cpu")
        off = build_sgemm()
        # cache=False so the source is emitted independently rather
        # than served from the registry entry the baseline created
        k_off = off.function.compile("cpu", profile=False, cache=False)
        assert k_off.source == k_base.source
        assert k_off.report.fingerprint == k_base.report.fingerprint

    def test_profile_false_emits_no_profiling_code(self):
        """Was "profile=False best-of-7 within 5% of the default build"
        — two byte-identical kernels (timing of the *on* path:
        ``obs.profile_overhead_ratio``)."""
        off = build_sgemm()
        k_off = off.function.compile("cpu", profile=False, cache=False)
        assert not any(name in k_off.source for name in PROFILING_CODE)
        _run(off, k_off)
        assert k_off.last_run is None
        # ... and the markers are what profiling really emits.
        on = build_sgemm()
        k_on = on.function.compile("cpu", profile=True, cache=False)
        assert all(name in k_on.source for name in PROFILING_CODE)
        _run(on, k_on)
        assert k_on.last_run is not None


class TestTelemetryOffOverhead:
    def test_disabled_telemetry_creates_no_journal(
            self, tmp_path, monkeypatch):
        """Was "compile+run within 5% of a build with the journal
        probes and the autoflush hook stubbed out" on best-of-5: with
        nothing to write to, each probe is one knob read that builds
        nothing (the driver's own share of a compile:
        ``driver.overhead_share``)."""
        from repro.obs import events
        for knob in ("event_log", "metrics_file", "trace_file"):
            monkeypatch.delenv(settings.KNOBS[knob].env, raising=False)
        monkeypatch.chdir(tmp_path)
        events.emit("flush.stale.journal")   # drops any old fd
        get_tracer().clear()
        bundle = build_sgemm()
        _run(bundle, bundle.function.compile("cpu", cache=False))
        assert events._journal is None
        assert len(get_tracer()) == 0
        assert list(tmp_path.iterdir()) == []

    def test_enabling_telemetry_never_changes_emitted_source(
            self, tmp_path, monkeypatch):
        monkeypatch.delenv("TIRAMISU_EVENT_LOG", raising=False)
        monkeypatch.delenv("TIRAMISU_METRICS_FILE", raising=False)
        base = build_sgemm()
        k_base = base.function.compile("cpu", cache=False)

        journal = tmp_path / "events.jsonl"
        exposition = tmp_path / "metrics.prom"
        monkeypatch.setenv("TIRAMISU_EVENT_LOG", str(journal))
        monkeypatch.setenv("TIRAMISU_METRICS_FILE", str(exposition))
        on = build_sgemm()
        k_on = on.function.compile("cpu", cache=False)

        assert k_on.source == k_base.source
        assert k_on.report.fingerprint == k_base.report.fingerprint
        # ... and the telemetry really was live, not silently off.
        names = {e["name"] for e in read_events(str(journal))}
        assert {"compile.begin", "compile.end"} <= names
        assert exposition.exists()


class TestTraceExportSmoke:
    def test_trace_json_holds_all_span_kinds(self, tmp_path, monkeypatch):
        # threads at any size: the sgemm here is far below the floor
        monkeypatch.setattr("repro.backends.parallel.THREAD_FLOOR_BYTES", 0)
        tracer = get_tracer()
        tracer.clear()
        dest = tmp_path / "trace.json"
        try:
            with settings.override(trace_file=dest):
                bundle = build_sgemm()
                # parallelize only scale, a slab region on threads:
                # acc's nest stays sequential, so the export shows
                # loop-nest AND parallel/worker spans
                scale = bundle.computations["scale"]
                scale.vectorize("j2", 8)
                scale.parallelize("i2")
                _run(bundle, bundle.function.compile(
                    "cpu", profile=True, num_threads=2, cache=False))
                assert write_trace_file() == str(dest)
        finally:
            tracer.clear()
        doc = json.loads(dest.read_text())
        events = doc["traceEvents"]
        cats = {e["cat"] for e in events}
        assert {CAT_COMPILE, CAT_LOOP, CAT_PARALLEL, CAT_WORKER} <= cats
        assert all(e["ph"] == "X" for e in events)
        stage_names = {e["name"] for e in events
                       if e["cat"] == CAT_COMPILE}
        assert "compile:emit" in stage_names
        print_table("trace export", {
            "events": len(events),
            "categories": ", ".join(sorted(cats)),
        })
