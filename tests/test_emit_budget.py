"""Emitted-source gates over every ``repro.kernels`` builder under its
hand schedule: a size budget for the Python and for the C (so a codegen
change that grows the source fails here, before the benchmark's 1%
``code_bytes`` bound), and the guarantee that the race-check stage's
verdict changes nothing that is emitted (slabs included: the traced
benchmark's ``emit_bytes:*`` operation compares a staged emit, which has
no verdict, with ``Function.compile``'s, which has)."""

import os
import subprocess
import sys

import pytest

from repro import kernels as K
from repro.evaluation.schedules import tiramisu_cpu

#: (builder, hand schedule or None).
HAND = [
    (K.build_blur, tiramisu_cpu), (K.build_cvtcolor, tiramisu_cpu),
    (K.build_conv2d, tiramisu_cpu), (K.build_warp_affine, tiramisu_cpu),
    (K.build_gaussian, tiramisu_cpu), (K.build_nb, tiramisu_cpu),
    (K.build_edge_detector, tiramisu_cpu),
    (K.build_ticket2373, tiramisu_cpu),
    (K.build_sgemm, K.schedule_sgemm_cpu), (K.build_baryon,
                                            K.schedule_baryon_cpu),
    (K.build_conv, K.schedule_conv_cpu),
    (K.build_vgg_block, K.schedule_vgg_fused),
    (K.build_spmv27, K.schedule_spmv_cpu), (K.build_waxpby, None),
    (K.build_dot, None),
    (K.build_symgs_forward, K.schedule_symgs_wavefront),
    (K.build_heat, K.schedule_heat_cpu),
]

#: Summed ``len(kernel.source)`` of HAND on ``cpu``, recorded when
#: compute_at made blur's bx one piece, its three overlapping row
#: windows one hull (23145 before, blur's three guarded copies of the
#: statement; 23452 before sgemm's ``k`` loop moved out over its folded
#: tile loops; 24621 before clamped reads became slices of one edge
#: window and a tile's strip-mined pair one slice axis, the one-lane
#: slice emitter 26233, the np.arange-gather one 30359).  Lower it when
#: the emitter gets leaner.
SOURCE_BYTES_CEILING = 22119


#: Summed ``len(emit_c_source(fn))`` of HAND under the typed renderer;
#: the untyped all-``double`` one, with its ``((int64_t)((t0)))``
#: wrappers, summed 53559 on the same table.  38863 before a ``vector``
#: loop under a clamp was split: conv2D, gaussian and spmv print their
#: statement twice (interior and border, +3452), static strides take
#: 2794 off the other fourteen.  39521 before blur's bx became one
#: piece (-1555, its statement once instead of three times).  37966
#: before a channel loop was jammed into the ``simd`` loop (conv2D,
#: gaussian and blur: one more loop header and pragma each, +3 lines)
#: and a clamp-free interior kept only the tightest of its bounds that
#: differ by a constant (``imax(imax(0, 1), -1)`` is ``1``).
C_SOURCE_BYTES_CEILING = 37766

#: Builders whose weak operands really are ``float64`` under the type
#: rule (``0.1 * i`` in warpAffine's coordinates, ``1.0 * (x + r)``).
WEAK_FLOAT_MATH = (K.build_warp_affine, K.build_ticket2373)


def emit(builder, schedule, **opts) -> str:
    bundle = builder()
    if schedule is not None:
        schedule(bundle)
    # parallel=False: no auto race check, and the same source.
    return bundle.function.compile("cpu", parallel=False, cache=False,
                                   **opts).source


def test_emitted_source_stays_within_budget():
    total = sum(len(emit(b, s)) for b, s in HAND)
    assert total <= SOURCE_BYTES_CEILING, total


def test_emitted_c_stays_within_budget_and_typed():
    """The C of every builder: smaller than the untyped renderer's, no
    index clamped in floating point and converted back, no ``double`` in
    a float32 computation."""
    import re
    from repro.backends.c import emit_c_source
    total = 0
    for builder, schedule in HAND:
        bundle = builder()
        if schedule is not None:
            schedule(bundle)
        source = emit_c_source(bundle.function)
        total += len(source)
        body = source.split("void kernel")[1]
        for index in re.findall(r"\w\[([^\]]*)\]", body):
            assert not re.search(r"\(int64_t\)|(min|max|clamp)[fd]\(", index), \
                (builder.__name__, index)
        if builder not in WEAK_FLOAT_MATH:      # all float32
            assert not re.search(r"double|(min|max|clamp)d\(|"
                                 r"\d\.\d+(?!\d*f)", body), builder.__name__
    assert total <= C_SOURCE_BYTES_CEILING, total


def test_clamped_reads_are_windows_and_tiles_one_slab():
    """The stencils' clamped taps slice edge windows (no ``np.clip``
    gather left), sgemm's tile loops fold into one slab and its ``k``
    loop, the only loop left, runs around it, and warpAffine's
    data-dependent reads still gather."""
    source = {b: emit(b, s) for b, s in HAND}
    for builder in (K.build_conv2d, K.build_gaussian, K.build_spmv27):
        assert "np.clip(" not in source[builder], builder.__name__
        assert "np.take(" in source[builder], builder.__name__
    assert "non-rectangular" not in source[K.build_sgemm]
    assert "vectorized (j11) over (i0, j0, i10, j10, i11)" \
        in source[K.build_sgemm]
    assert "# loop (k): hoisted over (i0, j0)" in source[K.build_sgemm]
    assert source[K.build_sgemm].count("for ") == 1
    assert "np.clip(" in source[K.build_warp_affine]


@pytest.mark.parametrize("builder,schedule", HAND,
                         ids=[b.__name__ for b, __ in HAND])
def test_check_races_does_not_change_the_source(builder, schedule):
    plain = emit(builder, schedule)
    checked = emit(builder, schedule, check_races=True)
    assert checked == plain


@pytest.mark.parametrize("hashseed", ["0", "1"])
def test_vector_differential_under_hash_seed(hashseed):
    """isl iterates over hashed sets: the lane verdict (and so the
    emitted source) must not depend on the interpreter's hash seed."""
    if os.environ.get("TIRAMISU_NESTED_PYTEST"):
        pytest.skip("already inside the hash-seed run")
    env = dict(os.environ, PYTHONHASHSEED=hashseed,
               TIRAMISU_NESTED_PYTEST="1")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "tests/test_codegen_properties.py::test_vector_tag_differential",
         "tests/test_codegen_properties.py::test_typed_tree_differential",
         "tests/test_vectorizer.py", "tests/test_native_bitwise.py"],
        env=env, capture_output=True, text=True, timeout=600,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
