"""The driver's ``autoschedule=`` compile option: plan-keyed caching
across both warm tiers, pristine functions, and validation."""

import numpy as np
import pytest

from repro.autosched import SchedulePlan, autoschedule
from repro.autosched.actions import Interchange, Parallelize, Vectorize
from repro.driver import CompileRequest, compile_batch, kernel_registry
from repro.driver.diskcache import configure
from repro.driver.pipeline import compile_to_source
from repro.kernels import build_sgemm

PLAN_A = SchedulePlan([Interchange("acc", 1, 2), Vectorize("acc", 2, 8)])
PLAN_B = SchedulePlan([Parallelize("acc", 0)])


@pytest.fixture(autouse=True)
def _fresh_tiers(monkeypatch):
    monkeypatch.delenv("TIRAMISU_CACHE_DIR", raising=False)
    monkeypatch.delenv("TIRAMISU_CACHE_MAX_BYTES", raising=False)
    kernel_registry.clear()
    yield
    kernel_registry.clear()


class TestFingerprinting:
    def test_distinct_plans_distinct_artifacts(self):
        fn = build_sgemm().function
        plain = fn.compile("cpu")
        with_a = fn.compile("cpu", autoschedule=PLAN_A)
        with_b = fn.compile("cpu", autoschedule=PLAN_B)
        prints = {plain.report.fingerprint, with_a.report.fingerprint,
                  with_b.report.fingerprint}
        assert len(prints) == 3
        assert with_a.source != plain.source
        assert not with_b.report.cache_hit

    def test_same_plan_memory_warm_hit(self):
        fn = build_sgemm().function
        cold = fn.compile("cpu", autoschedule=PLAN_A)
        warm = fn.compile("cpu", autoschedule=PLAN_A.copy())
        assert warm.report.cache_hit
        assert warm.report.fingerprint == cold.report.fingerprint

    def test_plan_object_and_json_string_are_one_key(self):
        fn = build_sgemm().function
        cold = fn.compile("cpu", autoschedule=PLAN_A)
        warm = fn.compile("cpu", autoschedule=PLAN_A.serialize())
        assert warm.report.cache_hit
        assert warm.report.fingerprint == cold.report.fingerprint

    def test_same_plan_disk_warm_hit(self, tmp_path):
        configure(tmp_path)
        fn = build_sgemm().function
        cold = fn.compile("cpu", autoschedule=PLAN_A)
        assert not cold.report.cache_hit
        kernel_registry.clear()
        warm = fn.compile("cpu", autoschedule=PLAN_A)
        assert warm.report.disk_hit
        assert warm.source == cold.source

    def test_autoscheduled_fingerprint_matches_hand_applied(self):
        """The option is equivalent to applying the plan by hand: the
        emitted source is the same either way."""
        via_option = compile_to_source(build_sgemm().function, "cpu",
                                       cache=False,
                                       autoschedule=PLAN_A)["source"]
        hand = build_sgemm().function
        PLAN_A.copy().apply(hand)
        by_hand = compile_to_source(hand, "cpu", cache=False)["source"]
        assert via_option == by_hand


class TestSemantics:
    def test_function_left_pristine(self):
        fn = build_sgemm().function
        before = compile_to_source(fn, "cpu", cache=False)["source"]
        fn.compile("cpu", autoschedule=PLAN_A)
        assert compile_to_source(fn, "cpu", cache=False)["source"] == before

    def test_autoscheduled_kernel_is_correct(self):
        bundle = build_sgemm()
        params = dict(bundle.test_params)
        rng = np.random.default_rng(0)
        inputs = bundle.make_inputs(params, rng)
        expected = bundle.reference(
            {k: np.copy(v) for k, v in inputs.items()}, params)
        kernel = bundle.function.compile("cpu", autoschedule=PLAN_A)
        got = kernel(**inputs, **params)
        for name, ref in expected.items():
            assert np.allclose(got[name], ref, atol=1e-3)

    def test_search_to_compile_round_trip(self):
        bundle = build_sgemm()
        result = autoschedule(bundle.function, strategy="beam", budget=30,
                              rounds=2, beam_width=2,
                              params=bundle.test_params)
        kernel = bundle.function.compile(
            "cpu", autoschedule=result.plan.serialize())
        assert kernel.report.fingerprint
        assert bundle.verify(atol=1e-3) is not None  # fn still pristine
        rerun = bundle.function.compile("cpu", autoschedule=result.plan)
        assert rerun.report.cache_hit

    def test_batch_compile_dedups_on_plan(self):
        fn_a = build_sgemm().function
        fn_b = build_sgemm().function
        requests = [
            CompileRequest(fn=fn_a, options={"autoschedule": PLAN_A}),
            CompileRequest(fn=fn_b,
                           options={"autoschedule": PLAN_A.serialize()}),
            CompileRequest(fn=build_sgemm().function,
                           options={"autoschedule": PLAN_B}),
        ]
        kernels = compile_batch(requests, use_processes=False)
        assert kernels[0] is kernels[1]
        assert kernels[2] is not kernels[0]


class TestValidation:
    def test_rejects_non_plan_values(self):
        fn = build_sgemm().function
        with pytest.raises(TypeError):
            fn.compile("cpu", autoschedule=42)
        with pytest.raises(TypeError):
            fn.compile("cpu", autoschedule="not json")
        with pytest.raises(TypeError):
            fn.compile("cpu", autoschedule='{"version": 99, "actions": []}')

    def test_unknown_option_still_rejected(self):
        fn = build_sgemm().function
        with pytest.raises(TypeError):
            fn.compile("cpu", autoscheduler=PLAN_A)
