"""End-to-end property test: random compositions of scheduling commands
must preserve program semantics (the compiler's core guarantee)."""

import numpy as np
import pytest
from hypothesis import given, settings
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
                "diagonal", "two_fused"]


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


@given(st.sampled_from(VECTOR_CASES),
       st.lists(st.integers(2, 5), min_size=1, max_size=3),
       st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_vector_tag_differential(case, extents, lane_pick, shift):
    from repro.backends.c import have_c_compiler
    lane = lane_pick % len(extents)
    if case == "other_row_of_stored":
        if len(extents) == 1:
            extents = [3] + extents
        lane = max(1, lane)           # dim 0 is the time loop

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
