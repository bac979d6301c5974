"""The staged compile driver: backend registry, uniform option
handling, per-stage profiling, and trace output."""

import io

import pytest

from repro import Computation, Function, Var, settings
from repro.core.errors import TiramisuError
from repro.driver import (Backend, CompileReport, UnknownTargetError,
                          compile_function, emit_trace, get_backend,
                          kernel_registry, register_backend,
                          registered_targets)
from repro.driver.pipeline import STAGE_ORDER
from repro.driver.registry import _REGISTRY


def build_simple(name="f"):
    f = Function(name)
    with f:
        i, j = Var("i", 0, 8), Var("j", 0, 8)
        c = Computation("c", [i, j], 2.0 * i + j)
    return f, c


@pytest.fixture(autouse=True)
def _fresh_cache():
    kernel_registry.clear()
    yield
    kernel_registry.clear()


class TestBackendRegistry:
    def test_builtin_targets_registered(self):
        assert {"cpu", "c", "gpu", "distributed"} <= set(registered_targets())

    def test_get_backend_resolves(self):
        for name in ("cpu", "gpu", "distributed"):
            backend = get_backend(name)
            assert backend.name == name
            assert callable(backend.emit) and callable(backend.bind)

    def test_unknown_target_lists_registered(self):
        f, _ = build_simple()
        with pytest.raises(UnknownTargetError) as err:
            f.compile("cuda")
        msg = str(err.value)
        assert "cuda" in msg
        for name in ("cpu", "c", "gpu", "distributed"):
            assert name in msg

    def test_unknown_target_is_valueerror(self):
        # Back-compat: the old if-chain raised ValueError.
        f, _ = build_simple()
        with pytest.raises(ValueError):
            f.compile("nope")

    def test_custom_backend_roundtrip(self):
        class EchoKernel:
            pass

        @register_backend
        class EchoBackend(Backend):
            name = "echo"

            def emit(self, ctx):
                return f"// {ctx.fn.name}"

            def bind(self, ctx):
                kernel = EchoKernel()
                kernel.source = ctx.source
                return kernel

        try:
            f, _ = build_simple()
            kernel = f.compile("echo")
            assert kernel.source == "// f"
            assert kernel.report.target == "echo"
        finally:
            _REGISTRY.pop("echo", None)

    def test_register_requires_name_and_stages(self):
        class Nameless(Backend):
            def emit(self, ctx):
                return ""

            def bind(self, ctx):
                return object()

        with pytest.raises(TiramisuError):
            register_backend(Nameless)


class TestUniformOptions:
    """All four targets share the base signature and reject typos."""

    @pytest.mark.parametrize("target", ["cpu", "c", "gpu", "distributed"])
    def test_misspelled_option_raises(self, target):
        # Regression: `check_legailty=True` used to be silently swallowed
        # by every backend.  Validation runs before emit, so even the C
        # target needs no gcc here.
        f, _ = build_simple()
        with pytest.raises(TypeError) as err:
            f.compile(target, check_legailty=True)
        assert "check_legailty" in str(err.value)

    def test_unknown_options_rejected(self):
        f, _ = build_simple()
        with pytest.raises(TypeError) as err:
            compile_function(f, bogus_flag=1)
        assert "bogus_flag" in str(err.value)

    def test_check_legality_accepted_everywhere(self):
        f, _ = build_simple()
        assert compile_function(f, check_legality=True)(
        )["c"].shape == (8, 8)
        kernel_registry.clear()
        f2, _ = build_simple("f2")
        assert compile_function(f2, target="distributed",
                                check_legality=True) is not None
        # gpu needs a mapping; just check the kwarg is accepted up to
        # the backend's own validation.
        f3, c3 = build_simple("f3")
        c3.tile_gpu("i", "j", 4, 4)
        assert compile_function(f3, target="gpu",
                                check_legality=True) is not None

    def test_backend_specific_option_stays_scoped(self):
        # extra_flags belongs to the C backend only.
        f, _ = build_simple()
        with pytest.raises(TypeError) as err:
            f.compile("cpu", extra_flags=("-g",))
        assert "extra_flags" in str(err.value)


class TestFaultToleranceOptions:
    """The robustness options (docs/robustness.md) are validated by the
    staged driver and participate in the cache key."""

    def test_max_retries_validated(self):
        f, _ = build_simple()
        for bad in (-1, 1.5, True, "2"):
            with pytest.raises(TypeError, match="max_retries"):
                f.compile("cpu", max_retries=bad)
        assert f.compile("cpu", max_retries=0) is not None

    def test_timeout_validated(self):
        f, _ = build_simple()
        # Wrong types are TypeErrors; zero/negative are valid types
        # with an invalid value — ValueError, at normalization time.
        for bad in (True, "5s"):
            with pytest.raises(TypeError, match="timeout"):
                f.compile("cpu", timeout=bad)
        for bad in (-1, 0, 0.0, -2.5):
            with pytest.raises(ValueError, match="timeout"):
                f.compile("cpu", timeout=bad)
        assert f.compile("cpu", timeout=2.5) is not None

    def test_timeout_env_validated_at_normalization(self, monkeypatch):
        f, _ = build_simple()
        for bad in ("0", "-3", "soon"):
            monkeypatch.setenv("TIRAMISU_TIMEOUT", bad)
            with pytest.raises(ValueError, match="TIRAMISU_TIMEOUT"):
                f.compile("cpu")
        monkeypatch.setenv("TIRAMISU_TIMEOUT", "30")
        assert f.compile("cpu") is not None

    def test_on_worker_failure_validated(self):
        f, _ = build_simple()
        for bad in ("ignore", None, 1):
            with pytest.raises(TypeError, match="on_worker_failure"):
                f.compile("cpu", on_worker_failure=bad)
        for mode in ("retry", "fallback", "raise"):
            assert f.compile("cpu", on_worker_failure=mode) is not None

    def test_options_join_the_cache_key(self):
        f, _ = build_simple()
        base = f.compile("cpu")
        fingerprints = {base.report.fingerprint}
        for opts in ({"max_retries": 5}, {"timeout": 1.0},
                     {"on_worker_failure": "raise"}):
            k = f.compile("cpu", **opts)
            assert not k.report.cache_hit
            fingerprints.add(k.report.fingerprint)
        assert len(fingerprints) == 4

    def test_accepted_on_every_target(self):
        for target in ("cpu", "c", "gpu", "distributed"):
            f, _ = build_simple(f"ft_{target}")
            with pytest.raises(TypeError, match="on_worker_failure"):
                f.compile(target, on_worker_failure="bogus")


class TestCompileReport:
    def test_cold_compile_stage_order(self):
        f, _ = build_simple()
        report = f.compile("cpu").report
        assert not report.cache_hit
        # "autoschedule", "legality" and "race-check" are conditional
        # stages (plan passed / option on / parallel execution), and
        # "dependences" runs for the last two.
        expected = [s for s in STAGE_ORDER
                    if s not in ("autoschedule", "dependences", "legality",
                                 "race-check")]
        assert report.stage_names() == expected
        assert report.total_seconds > 0
        assert report.source_size > 0
        assert report.fingerprint

    def test_legality_stage_recorded(self):
        f, _ = build_simple()
        report = f.compile("cpu", check_legality=True).report
        assert "legality" in report.stage_names()
        assert report.deps_checked is not None and report.deps_checked >= 0

    def test_report_counters_snapshot(self):
        f, _ = build_simple()
        f.compile("cpu")
        report = f.compile("cpu").report
        assert report.cache_hit
        assert report.cache_stats["hits"] == 1
        assert report.cache_stats["misses"] == 1

    def test_format_table_mentions_stages(self):
        f, _ = build_simple()
        report = f.compile("cpu").report
        table = report.format_table()
        assert "emit" in table and "bind" in table
        assert "cache miss" in table


class TestTrace:
    def test_env_toggle(self, monkeypatch):
        monkeypatch.delenv("TIRAMISU_TRACE", raising=False)
        assert not settings.get("trace")
        monkeypatch.setenv("TIRAMISU_TRACE", "1")
        assert settings.get("trace")
        monkeypatch.setenv("TIRAMISU_TRACE", "0")
        assert not settings.get("trace")

    def test_forced_trace_overrides_env(self, monkeypatch):
        monkeypatch.setenv("TIRAMISU_TRACE", "0")
        with settings.override(trace=True):
            assert settings.get("trace")

    def test_emit_trace_prints_stage_table(self):
        report = CompileReport(function="f", target="cpu",
                               fingerprint="abc123")
        with settings.override(trace=True):
            out = io.StringIO()
            emit_trace(report, stream=out)
            assert "f -> cpu" in out.getvalue()

    def test_trace_silent_when_disabled(self, monkeypatch):
        monkeypatch.delenv("TIRAMISU_TRACE", raising=False)
        out = io.StringIO()
        emit_trace(CompileReport(function="f", target="cpu"),
                   stream=out)
        assert out.getvalue() == ""

    def test_override_restores_previous_forced_state(self):
        settings.set(trace=False)
        with settings.override(trace=True):
            assert settings.get("trace")
        assert not settings.get("trace")   # restored to forced-off


class TestCompileFunctionEntry:
    def test_compile_function_matches_method(self):
        f, _ = build_simple()
        k1 = compile_function(f, "cpu")
        k2 = f.compile("cpu")
        assert k2 is k1           # second call served by the registry
        assert k2.report.cache_hit
