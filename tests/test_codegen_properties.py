"""End-to-end property test: random compositions of scheduling commands
must preserve program semantics (the compiler's core guarantee)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Buffer, Computation, Function, Input, Var

COMMANDS = ["tile", "split_i", "split_j", "interchange", "shift", "skew",
            "parallel", "vector", "unroll"]


def build_stencil(n, m):
    """out(i,j) = in(i,j) + in(i+1,j) + in(i,j+1): a forward stencil with
    no loop-carried dependences, so every composition is legal."""
    f = Function("f")
    with f:
        inp = Input("inp", [Var("x", 0, n + 1), Var("y", 0, m + 1)])
        i, j = Var("i", 0, n), Var("j", 0, m)
        c = Computation("c", [i, j], None)
        c.set_expression(inp(i, j) + inp(i + 1, j) + inp(i, j + 1))
    return f, c


def reference(data, n, m):
    return data[:n, :m] + data[1:n+1, :m] + data[:n, 1:m+1]


def apply_command(c, op, k, t1, t2):
    """One of COMMANDS on computation ``c``; ``k`` keeps the loop names
    of successive commands apart."""
    names = c.time_names
    if op == "tile" and len(names) >= 2:
        c.tile(names[0], names[1], t1, t2,
               f"a{k}", f"b{k}", f"c{k}", f"d{k}")
    elif op == "split_i":
        c.split(names[0], t1, f"e{k}", f"f{k}")
    elif op == "split_j":
        c.split(names[-1], t2, f"g{k}", f"h{k}")
    elif op == "interchange" and len(names) >= 2:
        c.interchange(names[0], names[-1])
    elif op == "shift":
        c.shift(names[0], 3)
    elif op == "skew" and len(names) >= 2:
        c.skew(names[0], names[1], 2)
    elif op == "parallel":
        c.parallelize(names[0])
    elif op == "vector":
        c.vectorize(names[-1], 4)
    elif op == "unroll":
        c.unroll(names[-1], 2)


@given(st.lists(st.sampled_from(COMMANDS), min_size=0, max_size=5),
       st.integers(5, 12), st.integers(5, 12),
       st.integers(2, 4), st.integers(2, 4))
@settings(max_examples=40, deadline=None)
def test_random_schedule_composition(ops, n, m, t1, t2):
    f, c = build_stencil(n, m)
    for k, op in enumerate(ops):
        apply_command(c, op, k, t1, t2)
    kernel = f.compile("cpu")
    rng = np.random.default_rng(0)
    data = rng.random((n + 1, m + 1)).astype(np.float32)
    out = kernel(inp=data)["c"]
    assert np.allclose(out, reference(data, n, m), atol=1e-5)


@given(st.integers(4, 10), st.integers(2, 4), st.integers(2, 4))
@settings(max_examples=25, deadline=None)
def test_tile_then_separate_random(n, t1, t2):
    f = Function("f")
    with f:
        c = Computation("c", [Var("i", 0, n), Var("j", 0, n)], None)
        c.set_expression(c(Var("i", 0, n), Var("j", 0, n)) + 1.0)
    c.tile("i", "j", t1, t2)
    c.separate_all("i1", "j1")
    out = f.compile("cpu")()["c"]
    assert (out == 1).all()


@given(st.integers(2, 5), st.integers(6, 20))
@settings(max_examples=25, deadline=None)
def test_compute_at_window_random(radius, n):
    """compute_at with a random stencil radius: the overlapped-tiling
    windows must always yield the exact result."""
    f = Function("f")
    with f:
        size = n + radius
        inp = Input("inp", [Var("x", 0, size)])
        iw = Var("iw", 0, size)
        i = Var("i", 0, n)
        a = Computation("a", [iw], None)
        a.set_expression(inp(iw) * 2.0)
        b = Computation("b", [i], None)
        expr = None
        for d in range(radius + 1):
            term = a(i + d)
            expr = term if expr is None else expr + term
        b.set_expression(expr)
    b.split("i", 4, "i0", "i1")
    a.compute_at(b, "i0")
    kernel = f.compile("cpu")
    data = np.arange(n + radius, dtype=np.float32)
    out = kernel(inp=data)["b"]
    ref = sum(2.0 * data[d:d + n] for d in range(radius + 1))
    assert np.allclose(out, ref)


# -- vector lowering: a tagged loop computes what the untagged loop does -----

VECTOR_CASES = ["shifted_other", "other_row_of_stored", "self_update",
                "strided_store", "clamped_read", "lane_as_value",
                "diagonal", "two_fused", "inlined_producer"]


def build_vector_case(case, extents, lane, shift, tag):
    """A 1-3-deep affine nest over ``extents`` whose variable ``lane``
    appears in the accesses the way ``case`` says; with ``tag`` that
    variable's loop is moved innermost and vector-tagged.  Returns the
    function and its input arrays (small integers, so float arithmetic
    is exact on every backend)."""
    from repro.core.buffer import ArgKind
    from repro.ir import clamp
    d, n = len(extents), extents[lane]
    rng = np.random.default_rng(sum(extents) + lane)
    inputs = {}
    f = Function("f")
    with f:
        vs = [Var(f"i{k}", 1 if (case == "other_row_of_stored" and k == 0)
                  else 0, e) for k, e in enumerate(extents)]
        j = vs[lane]

        def at(idx):                     # the nest's index, lane replaced
            return [idx if k == lane else v for k, v in enumerate(vs)]

        shape = [e + 2 if k == lane else e for k, e in enumerate(extents)]
        inp = Input("inp", [Var(f"x{k}", 0, s) for k, s in enumerate(shape)])
        inputs["inp"] = rng.integers(0, 9, shape).astype(np.float32)
        c = Computation("c", vs, None)
        comps = [c]
        if case == "shifted_other":
            c.set_expression(inp(*at(j + shift)) * 2.0 + inp(*vs))
        elif case == "other_row_of_stored":
            ub = Buffer("u", shape, kind=ArgKind.INOUT)
            inputs["u"] = rng.integers(0, 9, shape).astype(np.float32)
            prev = [vs[0] - 1] + at(j + shift)[1:]
            c.set_expression(c(*prev) + c(*([vs[0] - 1] + vs[1:])) * 0.5)
            c.store_in(ub, vs)
        elif case == "self_update":
            c.set_expression(c(*vs) * 2.0 + inp(*vs))
        elif case == "strided_store":
            buf = Buffer("b", [2 * e if k == lane else e
                               for k, e in enumerate(extents)])
            c.set_expression(inp(*vs) + 1.0)
            c.store_in(buf, at(j * 2))
        elif case == "clamped_read":
            c.set_expression(inp(*at(clamp(j + shift - 1, 0, n - 1))) + 1.0)
        elif case == "lane_as_value":
            c.set_expression(inp(*vs) + j * 2)
        elif case == "diagonal":
            sq = Input("sq", [Var("p", 0, n), Var("q", 0, n)])
            inputs["sq"] = rng.integers(0, 9, (n, n)).astype(np.float32)
            c.set_expression(sq(j, j) + inp(*vs))
        elif case == "two_fused":
            c.set_expression(inp(*vs) + 1.0)
            ws = [Var(f"k{k}", 0, e) for k, e in enumerate(extents)]
            c2 = Computation("c2", ws, None)
            c2.set_expression(c(*ws) * 2.0 + inp(*ws))
            comps.append(c2)
        elif case == "inlined_producer":
            c.set_expression(inp(*vs) + 1.0)
            c.inline()
            ws = [Var(f"k{k}", 0, e) for k, e in enumerate(extents)]
            c2 = Computation("c2", ws, None)
            c2.set_expression(c(*[w + shift if k == lane else w
                                  for k, w in enumerate(ws)]) * 2.0 + c(*ws))
            comps = [c2]
    names = [[v.name for v in comp.vars] for comp in comps]
    for comp, nm in zip(comps, names):
        if lane != d - 1:
            comp.interchange(nm[lane], nm[-1])
    if len(comps) == 2:
        comps[1].after(comps[0], names[0][lane])
    if tag:
        for comp, nm in zip(comps, names):
            comp.vectorize(nm[lane], 4)
    return f, inputs


def vector_case_nest(case, extents, lane_pick):
    """``(extents, lane)`` that ``case`` can be built over."""
    lane = lane_pick % len(extents)
    if case == "other_row_of_stored":
        if len(extents) == 1:
            extents = [3] + extents
        lane = max(1, lane)           # dim 0 is the time loop
    return extents, lane


VECTOR_DRAWS = (st.sampled_from(VECTOR_CASES),
                st.lists(st.integers(2, 5), min_size=1, max_size=3),
                st.integers(0, 2), st.integers(0, 2))


@given(*VECTOR_DRAWS)
@settings(max_examples=60, deadline=None)
def test_resolved_reads_differential(case, extents, lane_pick, shift):
    """``resolve(comp).reads`` names the (buffer, index) multiset the
    reference enumeration names (``tests/deps_reference.py``: the rule
    one ``Access`` at a time)."""
    from collections import Counter
    from repro.core.access import resolve
    from tests import deps_reference
    extents, lane = vector_case_nest(case, extents, lane_pick)
    f, __ = build_vector_case(case, extents, lane, shift, True)
    for comp in f.active_computations():
        if comp.expr is not None:
            got = Counter((r.buffer.name, tuple(map(repr, r.indices)))
                          for r in resolve(comp).reads)
            want = Counter((buffer.name, tuple(map(repr, index)))
                           for buffer, index in deps_reference.reads(comp))
            assert got == want, comp.name


@given(*VECTOR_DRAWS)
@settings(max_examples=60, deadline=None)
def test_vector_tag_differential(case, extents, lane_pick, shift):
    from repro.backends.c import have_c_compiler
    extents, lane = vector_case_nest(case, extents, lane_pick)

    def run(tag, target):
        f, inputs = build_vector_case(case, extents, lane, shift, tag)
        kernel = f.compile(target, cache=False)
        out = kernel(**{k: v.copy() for k, v in inputs.items()})
        return kernel, out

    scalar, want = run(False, "cpu")
    vector, got = run(True, "cpu")
    assert vector.vector_loops >= 1 and not vector.vector_declines, \
        vector.source
    assert scalar.vector_loops == 0
    for name in want:
        assert np.array_equal(want[name], got[name]), (name, vector.source)
    if have_c_compiler():
        __, native = run(True, "c")
        for name in want:
            assert np.array_equal(want[name], native[name]), name


# -- edge windows and folded tile axes: bit for bit against scalar loops ------

@given(st.lists(st.integers(1, 9), min_size=1, max_size=3),
       st.lists(st.booleans(), min_size=3, max_size=3),
       st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                min_size=1, max_size=4),
       st.booleans(),
       st.none() | st.tuples(st.integers(2, 4), st.integers(2, 4)))
@settings(max_examples=40, deadline=None)
def test_windows_and_folded_tiles_differential(sizes, clamped, taps, inside,
                                               tile):
    """``inp(clamp(i_k + o_k, lo, hi), …)`` summed over taps on a 1-3-deep
    nest of extents 1..9 (offsets -3..3 on the clamped axes, the clamp
    over the whole axis or strictly inside it, ``clamp(i, 2, n - 3)``),
    the last loop ``vector``-tagged and the first ``parallel``, the last
    two optionally tiled (one loop: split) by sizes that need not divide
    them: sequential, on threads with one window per chunk, and on ``c``
    the kernel stores what the unscheduled scalar nest stores."""
    from unittest import mock
    from repro.backends.c import have_c_compiler
    from repro.ir import clamp
    d = len(sizes)
    clamped = [c or (k == 0 and not any(clamped[:d]))
               for k, c in enumerate(clamped[:d])]

    def build(tag):
        f = Function("f")
        with f:
            inp = Input("inp", [Var(f"x{k}", 0, n) for k, n in enumerate(sizes)])
            vs = [Var(f"i{k}", 0, n) for k, n in enumerate(sizes)]

            def index(k, offset):
                n = sizes[k]
                lo, hi = (2, n - 3) if inside and n >= 5 else (0, n - 1)
                return clamp(vs[k] + offset, lo, hi) if clamped[k] else vs[k]
            c = Computation("c", vs, None)
            c.set_expression(sum(
                (inp(*(index(k, tap[k]) for k in range(d))) * float(t + 1)
                 for t, tap in enumerate(taps)), start=inp(*vs)))
        names = [v.name for v in vs]
        if tag and tile:
            if d == 1:
                c.split(names[0], tile[0], "a0", "a1")
                names = ["a0", "a1"]
            else:
                c.tile(names[-2], names[-1], *tile, "a0", "b0", "a1", "b1")
                names = names[:-2] + ["a0", "b0", "a1", "b1"]
        if tag:
            c.vectorize(names[-1], 4)
            if len(names) > 1:
                c.parallelize(names[0])
        return f

    data = np.random.default_rng(sum(sizes)).integers(0, 9, sizes)
    data = data.astype(np.float32)
    want = build(False).compile("cpu", cache=False)(inp=data.copy())["c"]
    legs = [("cpu", {"parallel": False}), ("cpu", {"num_threads": 2})]
    if have_c_compiler():
        legs.append(("c", {}))
    with mock.patch("repro.backends.parallel.THREAD_FLOOR_BYTES", 0):
        for target, opts in legs:
            kernel = build(True).compile(target, cache=False, **opts)
            got = kernel(inp=data.copy())["c"]
            assert np.array_equal(got, want), (target, opts, kernel.source)
            if target == "cpu":
                assert kernel.vector_loops == 1, kernel.source
                assert "np.clip(" not in kernel.source, kernel.source


# -- a reduction moved out of its tile band: bit for bit ----------------------

@given(st.lists(st.integers(1, 9), min_size=3, max_size=3),
       st.tuples(st.integers(2, 6), st.integers(2, 6)),
       st.none() | st.tuples(st.integers(2, 4), st.integers(2, 4)))
@settings(max_examples=40, deadline=None)
def test_reduction_leaves_its_tile_band_differential(sizes, outer, inner):
    """``c(i, j) += A(i, r) * B(r, j)`` tiled like sgemm -- ``i0 j0 r i1
    j1``, optionally register-blocked again (``i10 j10 r i11 j11``), by
    sizes that need not divide the extents 1..9 -- with ``i0``
    ``parallel`` and the last loop ``vector``: sequential, on threads
    (floor 0) and on ``c`` the kernel stores what the unscheduled nest
    stores, and on ``cpu`` ``r`` is the one loop left around one slab.
    A loop region runs its whole range in one call, so a last leg runs
    it as consecutive chunks of its range: each chunk's slab must cover
    its own rows and no others.  The register tile divides the cache
    tile, as in ``schedule_sgemm_cpu`` (one that does not leaves a guard
    in the nest, and the ``vector`` loop scalar)."""
    from unittest import mock
    from repro.backends.c import have_c_compiler
    from repro.backends.parallel import ParallelRuntime, chunk_ranges
    n, m, k = sizes

    class Chunked(ParallelRuntime):
        """Runs each parallel region as three chunks, one after another."""
        def takes(self, arrays):
            return True

        def run(self, body, params, lo, hi, obs=None):
            for chunk in chunk_ranges(lo, hi, 3):
                body(self._arrays, params, *chunk)
    if inner:   # the cache tile: 1..3 register tiles a side
        outer = tuple(t * (q % 3 + 1) for t, q in zip(inner, outer))

    def build(tag):
        f = Function("f")
        with f:
            A = Input("A", [Var("x", 0, n), Var("y", 0, k)])
            B = Input("B", [Var("x2", 0, k), Var("y2", 0, m)])
            i, j, r = Var("i", 0, n), Var("j", 0, m), Var("r", 0, k)
            c = Computation("c", [i, j, r], None)
            c.set_expression(c(i, j, r) + A(i, r) * B(r, j))
            c.store_in(Buffer("C", [n, m]), [i, j])
        if tag:
            c.tile("i", "j", *outer, "i0", "j0", "i1", "j1")
            c.interchange("j1", "r")
            c.interchange("i1", "r")
            last = "j1"
            if inner:
                c.tile("i1", "j1", *inner, "i10", "j10", "i11", "j11")
                last = "j11"
            c.vectorize(last, 4)
            c.parallelize("i0")
        return f

    rng = np.random.default_rng(n * 100 + m * 10 + k)
    inputs = {"A": rng.random((n, k), np.float32),
              "B": rng.random((k, m), np.float32),
              "C": rng.random((n, m), np.float32)}

    def run(kernel):
        return kernel(**{name: a.copy() for name, a in inputs.items()})["C"]
    want = run(build(False).compile("cpu", cache=False))
    legs = [("cpu", {"parallel": False}), ("cpu", {"num_threads": 2})]
    if have_c_compiler():
        legs.append(("c", {}))
    with mock.patch("repro.backends.parallel.THREAD_FLOOR_BYTES", 0):
        for target, opts in legs:
            kernel = build(True).compile(target, cache=False, **opts)
            assert np.array_equal(run(kernel), want), (target, opts,
                                                       kernel.source)
            if target == "cpu":
                body = kernel.source.split("def _kernel")[
                    0 if "_par_body" in kernel.source else 1]
                assert body.count("for ") == 1, kernel.source
                assert "hoisted over (i0, j0)" in body, kernel.source
    kernel = build(True).compile("cpu", cache=False)
    got = kernel(_runtime=Chunked(kernel.source, 3),
                 **{name: a.copy() for name, a in inputs.items()})["C"]
    assert np.array_equal(got, want), kernel.source


# -- index-set splitting: where no clamped index clamps ----------------------

@given(st.lists(st.tuples(st.sampled_from([-3, -2, -1, 1, 2, 3]),
                          st.integers(-3, 3), st.integers(-6, 6)),
                min_size=1, max_size=4),
       st.integers(0, 3), st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_clamp_free_is_exactly_where_no_clamp_clamps(reads, first, trim):
    """``clamp_free`` of a lane loop ``j`` reading ``inp(clamp(a*j + b*i
    + k, 0, M - 1))``: at every ``(N, M, i)`` the range it returns lies
    inside the loop's (so it, what is before and what is after partition
    the loop's range), holds every ``j`` at which each clamp is the
    identity and no other, and the statement it returns has no clamp."""
    from repro import Param
    from repro.codegen.ast import loops_in
    from repro.codegen.lanes import clamp_free
    from repro.ir import clamp
    from repro.ir.expr import Call
    from repro.isl.linexpr import OUT, PARAM
    N, M = Param("N"), Param("M")
    f = Function("f", params=[N, M])
    with f:
        inp = Input("inp", [Var("x", 0, M)])
        i, j = Var("i", 0, N), Var("j", first, M - trim)
        c = Computation("c", [i, j], None)
        c.set_expression(sum(
            (inp(clamp(a * j + b * i + k, 0, M - 1)) for a, b, k in reads),
            start=inp(0)))
    c.vectorize("j", 8)
    outer, lane = loops_in(f.lower())
    lowers, uppers, (value,) = clamp_free(f, lane)
    assert not any(isinstance(e, Call) and e.fn == "clamp"
                   for e in value.walk())

    def bound(groups, is_lower, at):
        tight, loose = (max, min) if is_lower else (min, max)
        return loose(tight(-(-e.evaluate(at) // a) if is_lower
                           else e.evaluate(at) // a for a, e in group)
                     for group in groups)

    for n, m in [(n, m) for n in (1, 3) for m in range(1, 10)]:
        for row in range(n):
            at = {(PARAM, 0): n, (PARAM, 1): m, (OUT, outer.level): row}
            lo, hi = bound(lane.lowers, True, at), bound(lane.uppers, False, at)
            a, b = bound(lowers, True, at), bound(uppers, False, at)
            assert lo <= a and b <= hi
            for t in range(lo, hi + 1):
                assert (a <= t <= b) == all(
                    0 <= ca * t + cb * row + k <= m - 1
                    for ca, cb, k in reads), (n, m, row, t)


# -- typed lowering: c == scalar cpu == vector cpu, bit for bit --------------

READS = {"a32": "float32", "a64": "float64", "i32": "int32", "u8": "uint8"}
WEAK_FLOATS = [0.1, 0.5, 1.5, 0.0625, 3.0, -0.25]


def typed_recipes():
    """Nested tuples that :func:`build_typed` turns into a typed tree:
    strong reads of four dtypes (clamped, or row 0 sliced along either
    iterator: two slab axes may slice one buffer axis), weak constants,
    iterators as values,
    and every operator and intrinsic the C backend lowers bit-exactly
    (``exp``/``log``/``pow`` are libm-vs-NumPy, exempt by contract)."""
    leaf = st.one_of(
        st.tuples(st.just("read"), st.sampled_from(sorted(READS)),
                  st.integers(-1, 1)),
        st.tuples(st.just("row"), st.sampled_from(sorted(READS)),
                  st.sampled_from("ij")),
        st.tuples(st.just("int"), st.integers(0, 9)),
        st.tuples(st.just("float"), st.sampled_from(WEAK_FLOATS)),
        st.tuples(st.just("iter"), st.sampled_from("ij"),
                  st.integers(0, 9), st.sampled_from([1, 2, 0.1, 0.5])),
    )

    def grow(sub):
        return st.one_of(
            st.tuples(st.just("bin"), st.sampled_from("+-*/"), sub, sub),
            st.tuples(st.just("idiv"), st.sampled_from(["//", "%"]), sub,
                      st.integers(1, 7)),
            st.tuples(st.just("call"), st.sampled_from(["min", "max"]),
                      sub, sub),
            st.tuples(st.just("clamp"), sub, sub, sub),
            st.tuples(st.just("call"), st.sampled_from(
                ["abs", "sqrt", "floor", "neg"]), sub),
            st.tuples(st.just("select"), st.sampled_from(["<", ">=", "=="]),
                      sub, sub, sub, sub),
            st.tuples(st.just("cast"), st.sampled_from(
                ["float32", "float64", "int32", "uint8"]), sub),
        )
    return st.recursive(leaf, grow, max_leaves=8)


def build_typed(recipe, reads, i, j, m):
    """The expression of ``recipe``.  A node the reference itself would
    refuse or leave undefined is replaced by its first operand: a weak
    integer that is not a leaf (a Python int out of a ``uint8``'s range
    raises), a float ``//``, a float out of an integer cast's range, a
    type with no C counterpart (``sqrt(uint8)`` is ``float16``), a
    ``float32`` cast of a ``float64`` (a gcc bug, see below)."""
    from repro.ir import types as T
    from repro.ir.expr import (BinOp, Call, Const, UnOp, cast, clamp,
                               select)
    from repro.ir.fold import fold
    from repro.core.access import buffer_terms
    from repro.ir.typing import is_weak
    from repro.ir.typing import result_type as type_in_buffer_terms

    def result_type(e):         # every computation built here is float
        return type_in_buffer_terms(buffer_terms(e, True))

    def floating(e):
        t = result_type(e)
        return t is float or (not is_weak(t) and t.is_float)

    def make(r):
        kind = r[0]
        if kind == "read":
            return reads[r[1]](i, clamp(j + r[2], 0, m - 1))
        if kind == "row":
            return reads[r[1]](0, {"i": i, "j": j}[r[2]])
        if kind in ("int", "float"):
            return Const(r[1])
        if kind == "iter":
            it = {"i": i, "j": j}[r[1]]
            return (it if isinstance(it, Const) else it.expr()) * r[3] + r[2]
        kids = [make(k) for k in r[1:] if isinstance(k, tuple)]
        if kind == "bin":
            rhs = kids[1]
            if r[1] == "/":             # never zero, never a weak int
                rhs = Call("abs", [rhs]) + 1.5
            node = BinOp(r[1], kids[0], rhs)
        elif kind == "idiv":
            if floating(kids[0]):
                return kids[0]
            node = BinOp(r[1], kids[0], Const(r[3]))
        elif kind == "clamp":
            node = clamp(*kids)
        elif kind == "call" and r[1] == "neg":
            node = UnOp("-", kids[0])
        elif kind == "call":            # sqrt: never of a negative
            node = Call(r[1], [Call("abs", kids)] if r[1] == "sqrt" else kids)
        elif kind == "select":
            node = select(BinOp(r[1], kids[0], kids[1]), kids[2], kids[3])
        else:
            dtype, x = T.from_name(r[1]), kids[0]
            if r[1] == "float32" and result_type(x) in (float, T.float64):
                # gcc 12 drops this rounding when the value is widened
                # straight back in straight-line vector code (docs/
                # ir_layers.md, "Types"): not ours to fix
                return x
            if not dtype.is_float and (floating(x)
                                       or is_weak(result_type(x))):
                # only a strong integer wraps; keep the others in range
                lo, hi = (0, 255) if r[1] == "uint8" else (-9999, 9999)
                x = clamp(x, lo, hi)
            node = cast(dtype, x)
        node = fold(node)       # what the emitters type is the folded tree
        try:
            t = result_type(node)
        except (TypeError, ValueError):
            return kids[0]
        return kids[0] if t in (int, bool) else node

    return make(recipe)


#: The loops around the vector loop: a plane loop ``h`` and the row
#: loop ``i``, each absent (one row), untagged or unrolled, and whether
#: the outermost of them is ``parallel`` -- the slab takes them all.
NESTS = st.tuples(st.sampled_from([None, "plain", "unroll"]),
                  st.sampled_from([None, "plain", "unroll"]), st.booleans())


@given(typed_recipes(), st.sampled_from(["float32", "float64"]),
       st.integers(0, 2 ** 16), NESTS)
@example(("bin", "+", ("row", "a32", "i"), ("row", "a32", "j")), "float32", 3,
         ("plain", "plain", True))      # one buffer axis, two slab axes
@example(("select", "<", ("int", 0), ("clamp", ("read", "i32", 0),
                                       ("iter", "i", 2, 1), ("float", 1.5)),
          ("read", "a32", 0), ("read", "a32", 1)), "float32", 0,
         (None, None, False))   # clamp(x, 3, 1.5): gcc 12 stored zeros
@settings(max_examples=150, deadline=None)
def test_typed_tree_differential(recipe, out_dtype, seed, nest):
    """One program stores the same bits from the scalar loops, from the
    whole-range statement (sequential and on two workers) and from gcc:
    the emitters agree on the type every node evaluates in
    (:mod:`repro.ir.typing`), whatever loops the slab took along."""
    from repro.backends.c import have_c_compiler
    from repro.ir import types as T
    from repro.ir.expr import Const
    n, m = 2, 37            # full vectors and a remainder
    planes, rows, parallel = nest
    rng = np.random.default_rng(seed)
    data = {"a32": rng.uniform(-8, 8, (n, m)).astype(np.float32),
            "a64": rng.uniform(-8, 8, (n, m)),
            "i32": rng.integers(-50, 50, (n, m)).astype(np.int32),
            "u8": rng.integers(0, 256, (n, m)).astype(np.uint8)}

    def run(tag, target, **opts):
        f = Function("f")
        with f:
            reads = {nm: Input(nm, [Var(f"x{nm}", 0, n), Var(f"y{nm}", 0, m)],
                               dtype=T.from_name(dt))
                     for nm, dt in READS.items()}
            h, i, j = Var("h", 0, 3), Var("i", 0, n), Var("j", 0, m)
            around = [v for v, kind in ((h, planes), (i, rows)) if kind]
            out = Computation("out", around + [j], None,
                              dtype=T.from_name(out_dtype))
            out.set_expression(
                build_typed(recipe, reads, i if rows else Const(1), j, m)
                * (1.0 + 0.5 * h.expr() if planes else 1.0))
        if tag:
            out.vectorize("j", 4)
            for v, kind in ((h, planes), (i, rows)):
                if kind == "unroll":
                    out.unroll(v.name, 2)
            if parallel and around:
                out.parallelize(around[0].name)
        kernel = f.compile(target, cache=False, **opts)
        used = {b.name for b in kernel.buffers} if target == "c" else data
        with np.errstate(all="ignore"):     # integer wrap-around is meant
            return kernel, kernel(**{k: v.copy() for k, v in data.items()
                                     if k in used})["out"]

    __, want = run(False, "cpu")
    vector, got = run(True, "cpu", parallel=False)
    assert vector.vector_loops == 1, vector.source
    assert "for " not in vector.source, vector.source   # one slab
    assert np.array_equal(want, got, equal_nan=True), vector.source
    if parallel and planes:     # 3 planes: chunks for two workers
        # no size floor: the slab region really runs chunked, on threads
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("repro.backends.parallel.THREAD_FLOOR_BYTES", 0)
            pair, got = run(True, "cpu", num_threads=2)
        assert pair.runtime.stats.regions == 1, pair.source
        assert np.array_equal(want, got, equal_nan=True), pair.source
    if have_c_compiler():
        native, got = run(True, "c")
        assert np.array_equal(want, got, equal_nan=True), native.source
