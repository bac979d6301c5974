"""Native C backend: correctness vs the Python backend and the NumPy
references, across kernels and schedules (real OpenMP/SIMD code)."""

import numpy as np
import pytest

from repro import Buffer, Computation, Function, Input, Param, Var
from repro.backends.c import emit_c_source, have_c_compiler
from repro.core.errors import CodegenError
from repro.ir import clamp, minimum, select
from repro.ir import types as T

pytestmark = pytest.mark.skipif(not have_c_compiler(),
                                reason="no C compiler available")


class TestBasics:
    def test_constant_fill(self):
        f = Function("f")
        with f:
            Computation("c", [Var("i", 0, 16)], 7.5)
        out = f.compile("c")()["c"]
        assert (out == 7.5).all()

    def test_matches_python_backend(self):
        def build():
            f = Function("f")
            with f:
                inp = Input("inp", [Var("x", 0, 18)])
                i = Var("i", 0, 16)
                c = Computation("c", [i], None)
                c.set_expression(inp(i) * 2.0 + inp(i + 2))
            return f
        data = np.random.default_rng(0).random(18).astype(np.float32)
        py = build().compile("cpu")(inp=data)["c"]
        native = build().compile("c")(inp=data)["c"]
        assert np.array_equal(py, native)

    def test_parameters(self):
        N = Param("N")
        f = Function("f", params=[N])
        with f:
            i = Var("i", 0, N)
            c = Computation("c", [i], None)
            c.set_expression(1.0 * i)
        out = f.compile("c")(N=11)["c"]
        assert np.allclose(out, np.arange(11))

    def test_source_contains_pragmas(self):
        f = Function("f")
        with f:
            c = Computation("c", [Var("i", 0, 64), Var("j", 0, 64)], 1.0)
        c.parallelize("i")
        c.vectorize("j", 8)
        src = emit_c_source(f)
        assert "#pragma omp parallel for" in src
        assert "#pragma omp simd" in src
        # the options mean what they mean on cpu: a team of num_threads
        # for the call (the source is the default one), or no team
        team = f.compile("c", num_threads=3, cache=False)
        assert team.source == src and team.num_threads == 3
        alone = f.compile("c", parallel=False, cache=False)
        assert "omp parallel" not in alone.source
        lib = team._lib
        before = lib.omp_get_max_threads()
        calls = []

        class Recording:            # what the call asks of libgomp
            omp_get_max_threads = lib.omp_get_max_threads

            def omp_set_num_threads(self, n):
                calls.append(n)
                lib.omp_set_num_threads(n)

            def kernel(self, *args):
                calls.append(lib.omp_get_max_threads())
                lib.kernel(*args)
        team._lib = Recording()
        assert np.array_equal(team()["c"], alone()["c"])
        assert calls == [3, 3, before] and lib.omp_get_max_threads() == before
        # a kernel with no parallel loop has no team (and no libgomp)
        g = Function("g")
        with g:
            Computation("c", [Var("i", 0, 8)], 2.0)
        serial = g.compile("c", num_threads=3, cache=False)
        assert serial.num_threads is None and (serial()["c"] == 2).all()

    def test_typed_lowering_in_the_source(self):
        """Index math stays int64_t, float32 arithmetic stays float."""
        import re
        N = Param("N")
        f = Function("f", params=[N])
        with f:
            inp = Input("inp", [Var("x", 0, N)])
            i = Var("i", 0, N)
            Computation("c", [i], minimum(
                inp(clamp(i - 1, 0, N - 1)) * 0.0625 + inp(i) / 3, 255.0))
        body = emit_c_source(f).split("void kernel")[1]
        assert "inp[iclamp(t0 - 1, 0, N - 1)]" in body
        assert "(int64_t)" not in body and "clampd" not in body
        assert "minf(" in body and "* 0.0625f" in body and "/ 3.0f" in body
        # no double literal anywhere in a float32 computation
        assert not re.search(r"\d\.\d+(?!\d*f)", body), body

    def test_scan_is_not_asserted_simd(self):
        """b(i) = a(i) + b(i-1) carries a flow dependence over i: the
        vector tag must not become a pragma that asserts otherwise, and
        the C says why, like the cpu source does."""
        def build():
            f = Function("f")
            with f:
                a = Input("a", [Var("x", 0, 64)])
                i = Var("i", 1, 64)
                b = Computation("b", [i], None)
                b.set_expression(a(i) + b(i - 1))
                b.vectorize("i", 8)
            return f
        src = build().compile("c").source
        assert "#pragma omp simd" not in src
        assert "/* vector loop (i): scalar, carried flow b->b on b */" in src
        assert build().compile("cpu").vector_declines == [
            "i: carried flow b->b on b"]
        data = np.arange(64, dtype=np.float32)
        assert np.array_equal(build().compile("c")(a=data)["b"],
                              build().compile("cpu")(a=data)["b"])

    def test_structural_decline_keeps_the_pragma(self):
        """A nest the cpu backend cannot turn into one NumPy statement
        (an inner loop) is still gcc's to vectorize."""
        f = Function("f")
        with f:
            c = Computation("c", [Var("i", 0, 64), Var("j", 0, 64)], 1.0)
        c.vectorize("i", 8)
        assert f.compile("cpu").vector_declines == ["i: nested-loop"]
        assert "#pragma omp simd" in emit_c_source(f)

    def test_transcendentals_stay_in_float_but_only_close(self):
        """exp/log/pow are the listed exemption from bit-identity: libm
        and NumPy's SIMD loops may differ in the last ulp."""
        from repro.ir import exp, log, pow_

        def build():
            f = Function("f")
            with f:
                inp = Input("inp", [Var("x", 0, 64)])
                i = Var("i", 0, 64)
                Computation("c", [i], None).set_expression(
                    exp(inp(i)) + log(inp(i) + 1.0) + pow_(inp(i), 1.5))
            return f
        data = np.random.default_rng(0).random(64).astype(np.float32)
        native = build().compile("c")
        assert all(fn in native.source for fn in ("expf(", "logf(", "powf("))
        assert np.allclose(native(inp=data)["c"],
                           build().compile("cpu")(inp=data)["c"], rtol=1e-6)

    def test_integer_semantics(self):
        f = Function("f")
        with f:
            inp = Input("inp", [Var("x", 0, 8)], dtype=T.int32)
            i = Var("i", 0, 8)
            c = Computation("c", [i], None, dtype=T.int32)
            c.set_expression((inp(i) + 1) / 2)
        data = np.arange(8, dtype=np.int32)
        out = f.compile("c")(inp=data)["c"]
        assert (out == (data + 1) // 2).all()

    def test_negative_floor_division_matches_python(self):
        """ifdiv must be floor division (Python semantics), not C trunc."""
        f = Function("f")
        with f:
            i = Var("i", 0, 8)
            c = Computation("c", [i], None, dtype=T.int32)
            c.set_expression((i - 4) / 3)
        out = f.compile("c")()["c"]
        ref = np.array([(v - 4) // 3 for v in range(8)])
        assert (out == ref).all()


class TestScheduledKernels:
    def test_tiled_parallel_blur(self):
        from repro.kernels import build_blur, schedule_blur_cpu
        bundle = build_blur()
        schedule_blur_cpu(bundle, tile=8)
        params = {"N": 40, "M": 36}
        rng = np.random.default_rng(1)
        inputs = bundle.make_inputs(params, rng)
        ref = bundle.reference({k: v.copy() for k, v in inputs.items()},
                               params)
        # each tile computes bx into its own window (a loop-local array,
        # private to the thread running the tile): the tiles run on a team
        kernel = bundle.function.compile("c")
        assert "#pragma omp parallel for" in kernel.source
        assert "float _bx_w[" in kernel.source
        out = kernel(**inputs, **params)
        assert np.allclose(out["by"], ref["by"], atol=1e-4)

    def test_sgemm_full_schedule(self):
        from repro.kernels import build_sgemm, schedule_sgemm_cpu
        bundle = build_sgemm()
        schedule_sgemm_cpu(bundle, 16, 8)
        n = 70
        rng = np.random.default_rng(2)
        a = rng.random((n, n)).astype(np.float32)
        b = rng.random((n, n)).astype(np.float32)
        c0 = rng.random((n, n)).astype(np.float32)
        c = c0.copy()
        bundle.function.compile("c")(A=a, B=b, C=c, N=n, M=n, K=n)
        assert np.allclose(c, 1.5 * (a @ b) + 0.5 * c0, atol=1e-2)

    def test_separated_sgemm(self):
        from repro.kernels import build_sgemm, schedule_sgemm_cpu
        bundle = build_sgemm()
        schedule_sgemm_cpu(bundle, 16, 8)
        bundle.computations["acc"].separate_all("i10", "j10")
        n = 50
        rng = np.random.default_rng(3)
        a = rng.random((n, n)).astype(np.float32)
        b = rng.random((n, n)).astype(np.float32)
        c0 = rng.random((n, n)).astype(np.float32)
        c = c0.copy()
        bundle.function.compile("c")(A=a, B=b, C=c, N=n, M=n, K=n)
        assert np.allclose(c, 1.5 * (a @ b) + 0.5 * c0, atol=1e-2)

    def test_clamped_and_select(self):
        N = Param("N")
        f = Function("f", params=[N])
        with f:
            inp = Input("inp", [Var("x", 0, N)])
            i = Var("i", 0, N)
            c = Computation("c", [i], None)
            c.set_expression(select(
                inp(clamp(i - 1, 0, N - 1)) > 0.5, 1.0, -1.0))
        data = np.linspace(0, 1, 12).astype(np.float32)
        out = f.compile("c")(inp=data, N=12)["c"]
        ref = np.where(data[np.clip(np.arange(12) - 1, 0, 11)] > 0.5,
                       1.0, -1.0)
        assert np.allclose(out, ref)

    def test_triangular_domain(self):
        f = Function("f")
        with f:
            i = Var("i", 0, 8)
            j = Var("j", 0, i + 1)
            c = Computation("c", [i, j], 1.0)
        out = f.compile("c")()["c"]
        for a in range(8):
            for b in range(8):
                assert out[a, b] == (1.0 if b <= a else 0.0)

    @pytest.mark.parametrize("bench", ["blur", "edgeDetector", "cvtColor",
                                       "conv2D", "warpAffine", "gaussian",
                                       "nb", "ticket2373"])
    def test_image_kernels_native(self, bench):
        from repro.evaluation import schedules as S
        from repro.evaluation.fig6 import BUILDERS
        bundle = BUILDERS[bench]()
        S.tiramisu_cpu(bundle)
        params = dict(bundle.test_params)
        rng = np.random.default_rng(4)
        inputs = bundle.make_inputs(params, rng)
        expected = bundle.reference(
            {k: np.copy(v) for k, v in inputs.items()}, params)
        kernel = bundle.function.compile("c")
        assert "#pragma omp parallel for" in kernel.source
        out = kernel(**inputs, **params)
        for name, ref in expected.items():
            assert np.allclose(out[name], ref, atol=1e-3), bench


def hand_scheduled(name):
    """A Fig. 6 kernel (or ``spmv``) under its hand CPU schedule."""
    from repro.evaluation.fig6 import BUILDERS
    from repro.evaluation.schedules import tiramisu_cpu
    from repro.kernels import build_spmv27, schedule_spmv_cpu
    if name == "spmv":
        bundle = build_spmv27()
        schedule_spmv_cpu(bundle)
    else:
        bundle = BUILDERS[name]()
        tiramisu_cpu(bundle)
    return bundle


def _simd_loops(source):
    """``(variable, header, body)`` of every loop under ``omp simd``."""
    lines = source.split("\n")
    for at, line in enumerate(lines):
        if line.strip() == "#pragma omp simd":
            header = lines[at + 1]
            close = header[:len(header) - len(header.lstrip())] + "}"
            end = lines.index(close, at + 2)
            yield (header.split()[2], header,
                   "\n".join(lines[at + 2:end]))


class TestLaneLowering:
    """What a ``vector`` tag becomes: static strides, a clamp-free
    interior, no ``simd`` over a register block (ISSUE 23)."""

    def test_strides_are_the_declared_extents(self):
        from .test_emit_budget import HAND
        for builder, schedule in HAND:
            bundle = builder()
            if schedule is not None:
                schedule(bundle)
            assert "_dim" not in emit_c_source(bundle.function), \
                builder.__name__

    @pytest.mark.parametrize("name", ["conv2D", "gaussian", "spmv"])
    def test_no_clamp_on_the_lane_inside_simd(self, name):
        import re
        source = emit_c_source(hand_scheduled(name).function)
        assert source.count("/* border of (") == 1
        loops = list(_simd_loops(source))
        assert loops
        for var, __, body in loops:
            for args in re.findall(r"iclamp\(([^()]*)\)", body):
                assert not re.search(rf"\b{var}\b", args), (name, args)
        # the border runs the whole range less the interior, clamps kept
        border = source.split("/* border of (")[1]
        assert "continue; }" in border and "iclamp(" in border

    def test_loop_invariant_clamps_stay_and_do_not_split(self):
        """gaussian's second stage clamps the row, not the lane."""
        stage = emit_c_source(hand_scheduled("gaussian").function).split(
            "#pragma omp parallel for")[2]
        assert "border of" not in stage and "iclamp(t0 " in stage
        assert "#pragma omp simd" in stage

    def test_a_register_block_is_not_the_simd_loop(self):
        """nb's channel loop (3 trips, ``vectorize(c, 3)``): no register
        has three lanes, the pragma would keep gcc off the pixel loop."""
        source = emit_c_source(hand_scheduled("nb").function)
        assert "#pragma omp simd" not in source and "<= 2;" in source

    @pytest.mark.parametrize("trips,simd", [(3, False), (6, False),
                                            (4, True), (8, True), (12, True)])
    def test_a_whole_tile_keeps_its_pragma(self, trips, simd):
        """A constant-trip lane loop that is one register (4 of 8, a
        separated full tile's 8 of 8) or more than the tag's width is
        still the simd loop; 3 or 6 of 8 is left to gcc's unroller."""
        f = Function("f")
        with f:
            inp = Input("inp", [Var("x", 0, 64), Var("y", 0, 64)])
            i, j = Var("i", 0, 64), Var("j", 0, trips)
            c = Computation("c", [i, j], None)
            c.set_expression(inp(i, j) * 2.0)
        c.vectorize("j", 8)
        source = emit_c_source(f)
        assert f"<= {trips - 1};" in source
        assert ("#pragma omp simd" in source) == simd
        data = np.random.default_rng(0).random((64, 64)).astype(np.float32)
        assert np.array_equal(f.compile("c")(inp=data)["c"],
                              data[:, :trips] * np.float32(2.0))

    @pytest.mark.parametrize("name", ["conv2D", "gaussian", "blur"])
    def test_the_channel_loop_runs_inside_the_simd_loop(self, name):
        """Unroll-and-jam: each lane runs the three channels (its stores
        side by side, not at stride 3), as a loop gcc unrolls; the
        border keeps its clamps, inside a channel loop of its own."""
        import re
        source = emit_c_source(hand_scheduled(name).function)
        loops = list(_simd_loops(source))
        assert loops
        for __, ___, body in loops:
            head = body.strip().split("\n")[:2]
            assert head[0] == "#pragma GCC unroll 3", (name, body)
            assert re.match(r"for \(int64_t (t\d) = 0; \1 <= 2; \1\+\+\)",
                            head[1].strip()), (name, head)
        for border in source.split("/* border of (")[1:]:
            channel, lanes = border.split("\n")[1:3]
            assert "<= 2;" in channel and "<= M - 1;" in lanes
            assert "iclamp(" in border and "continue; }" in border

    def test_a_channel_loop_that_carries_a_dependence_is_not_jammed(self):
        def build():
            f = Function("f")
            with f:
                x = Input("x", [Var("y", 0, 64)])
                c, j = Var("c", 1, 4), Var("j", 0, 64)
                a = Computation("a", [c, j], None)
                a.set_expression(a(c - 1, j) + x(j))
            a.vectorize("j", 8)
            return f
        source = emit_c_source(build())
        assert "#pragma omp simd" in source
        assert "#pragma GCC unroll" not in source
        data = np.random.default_rng(0).random(64).astype(np.float32)
        got, want = (build().compile(t, check_legality=True)(x=data)["a"]
                     for t in ("c", "cpu"))
        assert np.array_equal(got, want) and want[1:].any()

    def test_a_vector_loop_whose_bounds_move_with_it_is_not_jammed(self):
        def build():
            f = Function("f")
            with f:
                inp = Input("inp", [Var("x", 0, 3), Var("y", 0, 64)])
                c = Var("c", 0, 3)
                out = Computation("out", [c, Var("j", c, 64)],
                                  inp(c, c) * 2.0)
            out.vectorize("j", 8)
            return f
        source = emit_c_source(build())
        assert "#pragma omp simd" in source
        assert "#pragma GCC unroll" not in source
        data = np.random.default_rng(0).random((3, 64)).astype(np.float32)
        got, want = (build().compile(t)(inp=data)["out"]
                     for t in ("c", "cpu"))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", ["conv2D", "gaussian"])
    def test_a_jammed_interior_of_no_lane_or_one(self, name):
        """``M`` of 1 to 3: conv2D's interior ``1 .. M - 2`` and
        gaussian's ``2 .. M - 3`` are empty or one lane wide."""
        kernels = {t: hand_scheduled(name).function.compile(
            t, cache=False, check_legality=True, **o)
            for t, o in (("c", {}), ("cpu", {"parallel": False}))}
        bundle = hand_scheduled(name)
        for m in (1, 2, 3):
            params = {"N": 5, "M": m}
            inputs = bundle.make_inputs(params, np.random.default_rng(m))
            got, want = (kernels[t](**{k: v.copy() for k, v in
                                       inputs.items()}, **params)
                         for t in ("c", "cpu"))
            for out in want:
                assert np.array_equal(got[out], want[out]), (m, out)

    @pytest.mark.parametrize("name", ["warpAffine", "edgeDetector"])
    def test_what_cannot_be_split_is_not(self, name):
        """Non-affine clamp arguments, and no clamp at all: one ``for``
        per loop of the AST, every clamp where it was."""
        from repro.codegen.ast import loops_in
        bundle = hand_scheduled(name)
        source = emit_c_source(bundle.function)
        assert "border of" not in source
        assert source.count("for (") == len(loops_in(bundle.function.lower()))
        assert source.count("iclamp(") == \
            {"warpAffine": 8, "edgeDetector": 0}[name]


class TestCallContract:
    def test_a_mis_shaped_array_is_refused(self):
        """The emitted strides are the declared extents: a smaller array
        would be read and written out of bounds."""
        from repro.core.errors import ExecutionError
        bundle = hand_scheduled("cvtColor")
        kernel = bundle.function.compile("c")
        img = np.zeros((8, 6, 3), dtype=np.float32)
        assert kernel(img=img, N=8, M=6)["gray"].shape == (8, 6)
        with pytest.raises(ExecutionError) as err:
            kernel(img=img, N=8, M=8)
        assert all(part in str(err.value)
                   for part in ("'img'", "(8, 6, 3)", "(8, 8, 3)"))

    @pytest.mark.parametrize("target", ["c", "cpu"])
    def test_an_inout_array_that_needed_a_copy_is_written_back(self, target):
        """A non-contiguous or differently typed INOUT array is converted
        for the C kernel; the caller's own array gets the result and is
        what the call returns, as on cpu."""
        from repro.kernels import build_heat, schedule_heat_cpu
        bundle = build_heat()
        schedule_heat_cpu(bundle)
        params = dict(bundle.test_params)
        u0 = bundle.make_inputs(params, np.random.default_rng(0))["u"]
        kernel = bundle.function.compile(target, parallel=False) \
            if target == "cpu" else bundle.function.compile(target)
        want = kernel(u=u0.copy(), **params)["u"]
        assert not np.array_equal(want, u0)
        for given in (np.asfortranarray(u0), u0.astype(np.float64)):
            out = kernel(u=given, **params)["u"]
            assert out is given
            # (cpu computes a float64 array's update in float64)
            assert np.allclose(given, want, rtol=0, atol=1e-6)
        assert np.array_equal(kernel(u=np.asfortranarray(u0), **params)["u"],
                              want)


class TestUnsupported:
    def test_gpu_tags_rejected(self):
        f = Function("f")
        with f:
            c = Computation("c", [Var("i", 0, 32), Var("j", 0, 32)], 1.0)
        c.tile_gpu("i", "j", 8, 8)
        with pytest.raises(CodegenError):
            emit_c_source(f)

    def test_send_rejected(self):
        from repro import send
        Nodes = Param("Nodes")
        f = Function("f", params=[Nodes])
        with f:
            buf = Buffer("b", [4])
            s_it = Var("s", 0, Nodes)
            send([s_it], buf, 0, 1, s_it)
            c = Computation("c", [Var("i", 0, 4)], 0.0)
            c.store_in(buf, [Var("i", 0, 4)])
        with pytest.raises(CodegenError):
            emit_c_source(f)


class TestSharedObjectCache:
    SOURCE = "int tiramisu_so_cache_probe(void) { return X; }\n"

    def test_flags_are_part_of_the_address(self):
        from repro.backends.c import build_shared_object
        one = build_shared_object(self.SOURCE, ("-DX=1",))
        two = build_shared_object(self.SOURCE, ("-DX=2",))
        assert one != two
        assert build_shared_object(self.SOURCE, ("-DX=1",)) == one
        import ctypes
        assert ctypes.CDLL(one).tiramisu_so_cache_probe() == 1
        assert ctypes.CDLL(two).tiramisu_so_cache_probe() == 2

    def test_base_flags_are_part_of_the_address(self, monkeypatch):
        """Changing the compiler command line itself (as the move to
        -ffp-contract=off did) must not re-serve the old binary."""
        from repro.backends import c as cbackend
        one = cbackend.build_shared_object(self.SOURCE, ("-DX=4",))
        monkeypatch.setattr(cbackend, "GCC", tuple(
            flag for flag in cbackend.GCC if flag != "-ffp-contract=off"))
        two = cbackend.build_shared_object(self.SOURCE, ("-DX=4",))
        assert one != two

    def test_gcc_never_writes_the_published_path(self, monkeypatch,
                                                 tmp_path):
        import os
        import subprocess
        from repro.backends import c as cbackend
        monkeypatch.setattr(cbackend.tempfile, "gettempdir",
                            lambda: str(tmp_path))
        targets = []
        real_run = subprocess.run

        def spy(cmd, **kwargs):
            targets.append(cmd[cmd.index("-o") + 1])
            return real_run(cmd, **kwargs)

        monkeypatch.setattr(cbackend.subprocess, "run", spy)
        published = cbackend.build_shared_object(self.SOURCE, ("-DX=3",))
        assert len(targets) == 1 and targets[0] != published
        assert os.path.dirname(targets[0]) == os.path.dirname(published)
        # the rename left nothing behind but the published .so
        assert os.listdir(os.path.dirname(published)) \
            == [os.path.basename(published)]
        # ... and a failed build leaves nothing at all
        with pytest.raises(CodegenError):
            cbackend.build_shared_object("this is not C", ())
        assert os.listdir(os.path.dirname(published)) \
            == [os.path.basename(published)]
