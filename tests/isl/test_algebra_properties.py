"""Property-based tests of the set/map algebra: the semantic laws the
compiler relies on, checked against point enumeration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isl import Map, Set, count, parse_map, parse_set, points


@st.composite
def small_sets(draw):
    lo = draw(st.integers(-3, 2))
    hi = draw(st.integers(lo, lo + 6))
    stride = draw(st.sampled_from([None, 2, 3]))
    if stride is None:
        return parse_set(f"{{ [i] : {lo} <= i <= {hi} }}")
    return parse_set(f"{{ [i] : {lo} <= i <= {hi} and "
                     f"exists e : i = {stride}e }}")


@st.composite
def affine_maps(draw):
    a = draw(st.integers(-2, 2).filter(lambda v: v != 0))
    b = draw(st.integers(-4, 4))
    return parse_map(f"{{ [i] -> [{a}i + {b}] }}"), (a, b)


class TestSetLaws:
    @given(small_sets(), small_sets())
    @settings(max_examples=60, deadline=None)
    def test_union_commutes(self, s, t):
        assert sorted(points(s | t)) == sorted(points(t | s))

    @given(small_sets(), small_sets())
    @settings(max_examples=60, deadline=None)
    def test_intersect_is_pointwise(self, s, t):
        expected = sorted(set(points(s)) & set(points(t)))
        assert sorted(points(s & t)) == expected

    @given(small_sets(), small_sets())
    @settings(max_examples=40, deadline=None)
    def test_subtract_is_pointwise(self, s, t):
        if any(p.n_div for p in t.pieces):
            return  # subtract requires div-free subtrahend
        expected = sorted(set(points(s)) - set(points(t)))
        assert sorted(points(s - t)) == expected

    @given(small_sets(), small_sets())
    @settings(max_examples=40, deadline=None)
    def test_subset_iff_points_subset(self, s, t):
        if any(p.n_div for p in t.pieces):
            return
        expected = set(points(s)) <= set(points(t))
        assert s.is_subset(t) == expected

    @given(small_sets())
    @settings(max_examples=40, deadline=None)
    def test_emptiness_matches_enumeration(self, s):
        assert s.is_empty() == (count(s) == 0)


class TestMapLaws:
    @given(affine_maps(), small_sets())
    @settings(max_examples=60, deadline=None)
    def test_apply_is_pointwise_image(self, m_ab, s):
        m, (a, b) = m_ab
        image = sorted({(a * p[0] + b,) for p in points(s)})
        got = sorted(points(m.apply(s)))
        assert got == image

    @given(affine_maps(), affine_maps(), small_sets())
    @settings(max_examples=40, deadline=None)
    def test_composition_associates_with_apply(self, m1_ab, m2_ab, s):
        m1, __ = m1_ab
        m2, ___ = m2_ab
        via_compose = sorted(points(m1.apply_range(m2).apply(s)))
        via_seq = sorted(points(m2.apply(m1.apply(s))))
        assert via_compose == via_seq

    @given(affine_maps(), small_sets())
    @settings(max_examples=40, deadline=None)
    def test_reverse_roundtrip_superset(self, m_ab, s):
        """S ⊆ m⁻¹(m(S)) for any map."""
        m, __ = m_ab
        roundtrip = m.reverse().apply(m.apply(s))
        assert set(points(s)) <= set(points(roundtrip))

    @given(affine_maps())
    @settings(max_examples=30, deadline=None)
    def test_domain_range_of_restricted_map(self, m_ab):
        m, (a, b) = m_ab
        box = parse_set("{ [i] : 0 <= i <= 5 }")
        restricted = m.intersect_domain(box)
        assert sorted(points(restricted.domain())) == \
            [(i,) for i in range(6)]
        assert sorted(points(restricted.range())) == \
            sorted({(a * i + b,) for i in range(6)})


class TestUnimodularBijectivity:
    """Schedule transformations are bijections; verify the map forms the
    compiler uses (split/skew/shift patterns) against enumeration."""

    @given(st.integers(2, 5), st.integers(0, 20))
    @settings(max_examples=40, deadline=None)
    def test_split_map_bijective(self, factor, n):
        m = parse_map(f"{{ [i] -> [o, p] : o = floor(i/{factor}) and "
                      f"p = i - {factor}o }}")
        src = parse_set(f"{{ [i] : 0 <= i <= {n} }}")
        img = m.apply(src)
        assert count(img) == n + 1

    @given(st.integers(-3, 3), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_skew_map_bijective(self, f, n):
        m = parse_map(f"{{ [i,j] -> [i, j + {f}i] }}")
        src = parse_set(f"{{ [i,j] : 0 <= i < {n} and 0 <= j < {n} }}")
        assert count(m.apply(src)) == n * n


# -- schedule chains: relations at their true size -----------------------------


@st.composite
def schedule_chains(draw):
    """(command, level, argument) steps on a 2-d nest; a split adds a
    level, and interchange / skew pair ``level`` with the next one."""
    steps, n = [], 2
    for __ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["split", "interchange", "skew",
                                     "shift"]))
        arg = draw(st.integers(2, 3) if kind == "split" else
                   st.integers(-2, 2).filter(bool))
        steps.append((kind, draw(st.integers(0, n - 1)), arg))
        n += kind == "split"
    return steps


def _image(p, kind, l, arg):
    """One scheduling command on one time point."""
    q, l2 = list(p), (l + 1) % len(p)
    if kind == "split":
        return tuple(q[:l] + [p[l] // arg, p[l] % arg] + q[l + 1:])
    if kind == "interchange":
        q[l], q[l2] = p[l2], p[l]
    elif kind == "shift":
        q[l] += arg
    else:
        q[l2] += arg * p[l]
    return tuple(q)


class TestScheduleChains:
    """A chain of split / interchange / skew / shift commands on a small
    box: the instance set is the pointwise image, and no div that an
    equality defines is left behind."""

    @given(schedule_chains(), st.integers(1, 4), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_chain_is_pointwise_and_div_free(self, steps, hi_i, hi_j):
        from repro import Computation, Function, Var
        from repro.isl.constraint import EQ
        from repro.isl.linexpr import DIV
        with Function("chain"):
            comp = Computation("S", [Var("i", 0, hi_i + 1),
                                     Var("j", -1, hi_j + 1)], 0.0)
        want = set(points(comp.instances))
        for step, (kind, l, arg) in enumerate(steps):
            l2 = (l + 1) % len(comp.time_names)
            if kind == "split":
                comp.split(l, arg, f"o{step}", f"p{step}")
            elif kind == "interchange":
                comp.interchange(l, l2)
            elif kind == "shift":
                comp.shift(l, arg)
            else:
                comp.skew(l, l2, arg)
            want = {_image(p, kind, l, arg) for p in want}
        assert sorted(points(comp.instances)) == sorted(want)
        for piece in comp.instances.pieces:
            assert not any(c.kind == EQ and abs(c.expr.coeff((DIV, k))) == 1
                           for c in piece.constraints
                           for k in range(piece.n_div)), piece
            assert piece.n_div == 0, piece

    def test_strided_div_survives_and_codegen_refuses_it(self):
        from repro.codegen.domains import prepare_pieces
        from repro.core.errors import CodegenError
        s = parse_set("{ [i] : 0 <= i <= 9 and exists e : i = 2e }")
        piece = s.pieces[0].drop_defined_divs()
        assert piece.n_div == 1
        assert sorted(points(piece)) == [(i,) for i in range(0, 10, 2)]
        with pytest.raises(CodegenError):
            prepare_pieces(s)


# -- systems with divs, against brute force in a box ---------------------------


@st.composite
def strided_boxes(draw):
    """A box in (i, j) with one or two existentials: ``i = s*e``, and
    maybe ``j + a*i = t*f``; with the Python predicate of its points."""
    lo_i, lo_j = draw(st.integers(-3, 1)), draw(st.integers(-3, 1))
    hi_i, hi_j = lo_i + draw(st.integers(0, 6)), lo_j + draw(st.integers(0, 5))
    s, t = draw(st.sampled_from([2, 3])), draw(st.sampled_from([2, 3]))
    a = draw(st.integers(-2, 2))
    two = draw(st.booleans())
    text = (f"{{ [i, j] : {lo_i} <= i <= {hi_i} and {lo_j} <= j <= {hi_j}"
            f" and exists e : i = {s}e")
    text += f" and exists f : j + {a}i = {t}f }}" if two else " }"
    box = [(i, j) for i in range(lo_i - 2, hi_i + 3)
           for j in range(lo_j - 2, hi_j + 3)]
    want = {(i, j) for i, j in box if lo_i <= i <= hi_i
            and lo_j <= j <= hi_j and i % s == 0
            and (not two or (j + a * i) % t == 0)}
    return parse_set(text).pieces[0], want, box


class TestDivSystems:
    """Strided sets (divs no equality defines with a unit coefficient)
    and a split then a skew (floor divs), each operation checked point
    by point."""

    @given(strided_boxes())
    @settings(max_examples=60, deadline=None)
    def test_strided_points_emptiness_and_simplification(self, case):
        from repro.isl import isl_cache_disabled, remove_redundant
        piece, want, __ = case
        assert piece.n_div >= 1
        assert set(points(piece)) == want
        assert piece.is_empty() == (not want)
        with isl_cache_disabled():
            assert piece.is_empty() == (not want)
        kept = piece.drop_defined_divs()
        assert set(points(kept)) == want
        assert set(points(remove_redundant(kept))) == want

    @given(strided_boxes())
    @settings(max_examples=60, deadline=None)
    def test_eliminating_a_dim_keeps_every_point(self, case):
        """FM's rational shadow holds the projection of every point."""
        from repro.isl.fourier_motzkin import eliminate_dims
        from repro.isl.linexpr import DIV, OUT
        piece, want, box = case
        for dims in ([(DIV, k) for k in range(piece.n_div)],
                     [(OUT, 1)] + [(DIV, k) for k in range(piece.n_div)]):
            shadow = eliminate_dims(piece.constraints, dims)
            assert not any(c.involves(d) for c in shadow for d in dims)
            for i, j in want:
                assert all(c.satisfied_by({(OUT, 0): i, (OUT, 1): j})
                           for c in shadow), (i, j, shadow)

    @given(st.integers(2, 4), st.integers(-2, 2), st.integers(-4, 3),
           st.integers(0, 9))
    @settings(max_examples=60, deadline=None)
    def test_split_then_skew(self, k, f, lo, n):
        split = parse_map(f"{{ [i] -> [o, p] : o = floor(i/{k}) and "
                          f"p = i - {k}o }}")
        skew = parse_map(f"{{ [o, p] -> [o, p + {f}o] }}")
        box = parse_set(f"{{ [i] : {lo} <= i <= {lo + n} }}")
        want = {(i // k, i % k + f * (i // k))
                for i in range(lo, lo + n + 1)}
        both = split.apply_range(skew)
        assert set(points(both.apply(box))) == want
        assert set(points(skew.apply(split.apply(box)))) == want
        for piece in both.intersect_domain(box).pieces:
            assert not piece.is_empty()
            assert piece.drop_defined_divs() == piece
            pairs = {(i, q) for i in range(lo, lo + n + 1)
                     for q in want
                     if piece.contains_point((i,), q)}
            assert pairs == {(i, (i // k, i % k + f * (i // k)))
                             for i in range(lo, lo + n + 1)}
        # a point outside the box has an empty fibre
        outside = both.intersect_domain(
            parse_set(f"{{ [i] : i = {lo + n + 1} }}")).pieces[0]
        assert not outside.is_empty()
        assert outside.intersect_range(
            parse_set("{ [o, p] : o = 99 }").pieces[0]).is_empty()
