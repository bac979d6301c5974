"""One program + schedule stores the same bits on every CPU target:
every ``repro.kernels`` builder under its hand schedule, native ``c``
against ``cpu`` sequential against ``cpu`` offloaded to two workers
(ROADMAP aim 1).  ``np.array_equal``, no tolerance: the C emitter
renders each node in the type :mod:`repro.ir.typing` infers, and gcc is
told not to fuse multiply-adds."""

import itertools

import numpy as np
import pytest

from repro import kernels as K
from repro.backends.c import have_c_compiler
from repro.evaluation.schedules import tiramisu_cpu

from .test_emit_budget import HAND

pytestmark = pytest.mark.skipif(not have_c_compiler(),
                                reason="no C compiler available")


@pytest.mark.parametrize("builder,schedule", HAND,
                         ids=[b.__name__ for b, __ in HAND])
def test_c_equals_cpu_bit_for_bit(builder, schedule, monkeypatch):
    # no size floor: at test sizes the "cpu x2" leg still runs chunked
    monkeypatch.setattr("repro.backends.parallel.THREAD_FLOOR_BYTES", 0)
    outputs = {}
    for leg, target, opts in (("c", "c", {}),
                              ("cpu", "cpu", {"parallel": False}),
                              ("cpu x2", "cpu", {"num_threads": 2})):
        bundle = builder()
        if schedule is not None:
            schedule(bundle)
        params = dict(bundle.test_params)
        inputs = bundle.make_inputs(params, np.random.default_rng(5))
        kernel = bundle.function.compile(target, cache=False, **opts)
        outputs[leg] = kernel(**inputs, **params)
    want = outputs.pop("cpu")
    for leg, got in outputs.items():
        assert got.keys() == want.keys()
        for name in want:
            assert got[name].dtype == want[name].dtype, (leg, name)
            assert np.array_equal(got[name], want[name]), (leg, name)


#: The programs whose lane index sits under a clamp: on ``c`` the vector
#: loop is split into a clamp-free interior and a scalar border.
CLAMPED = [
    (K.build_conv2d, tiramisu_cpu, ("N", "M"), range(1, 7)),
    (K.build_gaussian, tiramisu_cpu, ("N", "M"), range(1, 7)),
    (K.build_spmv27, K.schedule_spmv_cpu, ("G",), range(1, 5)),
]


@pytest.mark.parametrize("builder,schedule,names,sizes", CLAMPED,
                         ids=[row[0].__name__ for row in CLAMPED])
def test_degenerate_sizes_c_equals_cpu(builder, schedule, names, sizes):
    """Every size from 1 up: the interior is empty (``M <= 4`` under
    gaussian's five taps), one lane wide, or the borders meet."""
    kernels = {}
    for target, opts in (("c", {}), ("cpu", {"parallel": False})):
        bundle = builder()
        schedule(bundle)
        kernels[target] = bundle.function.compile(target, cache=False, **opts)
    for values in itertools.product(sizes, repeat=len(names)):
        params = dict(zip(names, values))
        inputs = bundle.make_inputs(params, np.random.default_rng(7))
        got, want = (kernels[target](
            **{k: v.copy() for k, v in inputs.items()}, **params)
            for target in ("c", "cpu"))
        for name in want:
            assert np.array_equal(got[name], want[name]), (params, name)
