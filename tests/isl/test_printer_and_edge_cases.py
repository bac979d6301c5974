"""Printer output details and edge cases across the isl package."""

import pytest

from repro.isl import (BasicSet, Constraint, LinExpr, Map, Set, Space,
                       count, parse_map, parse_set, points)
from repro.isl.linexpr import OUT, PARAM
from repro.isl.printer import to_str, union_to_str


class TestPrinter:
    def test_universe(self):
        s = BasicSet.universe(Space.set_space(("i", "j"), "S"))
        assert to_str(s) == "{ S[i, j] }"

    def test_params_prefix(self):
        s = parse_set("[N, M] -> { [i] : 0 <= i < N + M }").pieces[0]
        assert to_str(s).startswith("[N, M] -> ")

    def test_negative_terms_move_sides(self):
        s = parse_set("{ [i] : i - 5 >= 0 }").pieces[0]
        text = to_str(s)
        assert ">= 5" in text or "i >= 5" in text

    def test_exists_rendered(self):
        s = parse_set("{ [i] : exists e : i = 2e }").pieces[0]
        assert "exists" in to_str(s)

    def test_map_arrow(self):
        m = parse_map("{ A[i] -> B[i + 1] }").pieces[0]
        text = to_str(m)
        assert "A[i] -> B[" in text

    def test_union_semicolons(self):
        u = parse_set("{ [i] : i = 0 or i = 5 }")
        assert ";" in union_to_str(u.pieces)

    def test_empty_union(self):
        assert union_to_str([]) == "{ }"

    def test_exact_text(self):
        """The compile fingerprint hashes this text: both sides carry
        only positive terms, in dim order, constants last."""
        s = parse_set("[N] -> { S[i, j] : 0 <= i < N and 2j - 3i >= 4 - N "
                      "and i - j = 0 }")
        assert repr(s) == ("[N] -> { S[i, j] : i >= 0 and N >= i + 1 and "
                           "2j + N >= 3i + 4 and i = j }")

    def test_printed_form_is_a_memo_not_content(self):
        import pickle
        s = parse_set("[N] -> { S[i, j] : 0 <= i < N and 0 <= j < i }")
        before = pickle.dumps(s)
        text = repr(s)
        assert repr(s) is text              # printed once
        assert pickle.dumps(s) == before    # and never shipped
        again = pickle.loads(before)
        assert again == s and repr(again) == text


class TestOmegaFallback:
    def test_budget_fallback_is_safe(self):
        """Past the inequality budget the test falls back to rational
        feasibility — never claiming nonempty sets empty."""
        import repro.isl.omega as omega
        old = omega._MAX_INEQS
        omega._MAX_INEQS = 2
        try:
            s = parse_set("{ [i,j,k] : 0 <= i < 5 and 0 <= j < 5 and "
                          "0 <= k < 5 and i + j + k >= 2 and "
                          "2i + 3j >= k }").pieces[0]
            assert not s.is_empty()   # nonempty must stay nonempty
        finally:
            omega._MAX_INEQS = old


class TestEnumerateEdges:
    def test_single_point(self):
        s = parse_set("{ [i,j] : i = 3 and j = -2 }")
        assert list(points(s)) == [(3, -2)]

    def test_equality_chain(self):
        s = parse_set("{ [i,j,k] : i = j and j = k and 0 <= i < 4 }")
        assert sorted(points(s)) == [(v, v, v) for v in range(4)]

    def test_zero_dim_set(self):
        # A 0-dim tuple: the set is either one empty-tuple point or none.
        s = parse_set("[N] -> { [] : N >= 0 }")
        assert count(s, {"N": 1}) == 1
        assert count(s, {"N": -1}) == 0

    def test_count_cross_piece_dedup(self):
        s = parse_set("{ [i] : 0 <= i < 4; [i] : 2 <= i < 6 }")
        assert count(s) == 6


class TestConstraintNormalizationEdges:
    def test_zero_expression_equality(self):
        c = Constraint.eq(LinExpr())
        assert c.is_trivially_true()

    def test_large_gcd(self):
        c = Constraint.ge(LinExpr.dim(OUT, 0, 1000) - 500)
        # 1000x >= 500 over integers -> x >= 1
        assert not c.satisfied_by({(OUT, 0): 0})
        assert c.satisfied_by({(OUT, 0): 1})

    def test_mixed_param_dim(self):
        c = Constraint.ge(LinExpr.dim(OUT, 0) - LinExpr.dim(PARAM, 0))
        assert c.satisfied_by({(OUT, 0): 5, (PARAM, 0): 5})
        assert not c.satisfied_by({(OUT, 0): 4, (PARAM, 0): 5})


class TestMapEdgeCases:
    def test_map_into_zero_dims(self):
        m = parse_map("{ [i] -> [] : 0 <= i < 3 }")
        assert not m.is_empty()
        assert count(m.domain()) == 3

    def test_identity_on_empty_domain(self):
        s = Set.empty(Space.set_space(("i",)))
        m = s.identity_map()
        assert m.is_empty()

    def test_intersect_incompatible_spaces_rejected(self):
        a = parse_set("{ [i] : i = 0 }")
        b = parse_set("{ [i, j] : i = 0 and j = 0 }")
        with pytest.raises(ValueError):
            a.pieces[0].intersect(b.pieces[0])
