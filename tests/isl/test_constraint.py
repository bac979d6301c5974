"""Unit tests for Constraint normalisation and queries."""

import pytest

from repro.isl.constraint import EQ, GE, Constraint
from repro.isl.linexpr import DIV, IN, OUT, PARAM, LinExpr


def d(kind, idx, coeff=1):
    return LinExpr.dim(kind, idx, coeff)


class TestNormalisation:
    def test_equality_gcd_divided(self):
        c = Constraint.eq(d(OUT, 0, 4) + 8)
        assert c.expr.coeff((OUT, 0)) == 1
        assert c.expr.const == 2

    def test_equality_sign_canonical(self):
        c1 = Constraint.eq(d(OUT, 0) - 3)
        c2 = Constraint.eq(3 - d(OUT, 0))
        assert c1 == c2

    def test_inequality_tightened(self):
        # 2x + 3 >= 0 over integers means x >= -1, i.e. x + 1 >= 0.
        c = Constraint.ge(d(OUT, 0, 2) + 3)
        assert c.expr.coeff((OUT, 0)) == 1
        assert c.expr.const == 1

    def test_inequality_positive_const_floor(self):
        # 2x + 4 >= 0 -> x + 2 >= 0.
        c = Constraint.ge(d(OUT, 0, 2) + 4)
        assert c.expr.const == 2

    def test_inconsistent_equality_kept(self):
        # 2x = 1 has no integer solution; must not be silently rescaled.
        c = Constraint.eq(d(OUT, 0, 2) - 1)
        assert c.is_trivially_false() or c.expr.coeff((OUT, 0)) == 2

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            Constraint("maybe", d(OUT, 0))


class TestTrivia:
    def test_trivially_true(self):
        assert Constraint.ge(LinExpr.constant(0)).is_trivially_true()
        assert Constraint.ge(LinExpr.constant(5)).is_trivially_true()
        assert Constraint.eq(LinExpr.constant(0)).is_trivially_true()

    def test_trivially_false(self):
        assert Constraint.ge(LinExpr.constant(-1)).is_trivially_false()
        assert Constraint.eq(LinExpr.constant(2)).is_trivially_false()

    def test_nontrivial(self):
        c = Constraint.ge(d(OUT, 0))
        assert not c.is_trivially_true()
        assert not c.is_trivially_false()


class TestOps:
    def test_le_constructor(self):
        # x - 5 <= 0  <=>  5 - x >= 0
        c = Constraint.le(d(OUT, 0) - 5)
        assert c.kind == GE
        assert c.satisfied_by({(OUT, 0): 5})
        assert not c.satisfied_by({(OUT, 0): 6})

    def test_satisfied_by(self):
        c = Constraint.eq(d(OUT, 0) - d(PARAM, 0))
        assert c.satisfied_by({(OUT, 0): 3, (PARAM, 0): 3})
        assert not c.satisfied_by({(OUT, 0): 3, (PARAM, 0): 4})

    def test_substitute(self):
        c = Constraint.ge(d(OUT, 0) - 1)
        r = c.substitute((OUT, 0), LinExpr.constant(0))
        assert r.is_trivially_false()


# The normal form as the dict-keyed constraints had it (gcd division,
# integer tightening, the sign of an equality's first dim in (kind,
# index) order, divs first), one row per case: rows must not move it.
NORMAL_FORMS = [
    (EQ, 4 * d(OUT, 0) - 6, "2*o0 + -3"),               # infeasible: 2i = 3
    (EQ, -4 * d(OUT, 0) + 6, "2*o0 + -3"),
    (EQ, 4 * d(OUT, 0) + 6 * d(OUT, 1) - 3, "4*o0 + 6*o1 + -3"),
    (GE, 2 * d(OUT, 0) + 3, "1*o0 + 1"),                # tightened
    (GE, -2 * d(OUT, 0) - 3, "-1*o0 + -2"),
    (GE, 3 * d(OUT, 0) + 6 * d(PARAM, 0) - 7, "1*o0 + 2*p0 + -3"),
    (EQ, -d(DIV, 0) + 2 * d(OUT, 0) + 1, "1*d0 + -2*o0 + -1"),
    (EQ, -2 * d(DIV, 0) + 4 * d(OUT, 0), "1*d0 + -2*o0 + 0"),
    (EQ, 6 * d(DIV, 0) - 4 * d(IN, 0) + 2, "3*d0 + -2*i0 + 1"),
    (EQ, -3 * d(DIV, 1) + 6 * d(DIV, 0) - 9 * d(PARAM, 0),
     "2*d0 + -1*d1 + -3*p0 + 0"),
    (GE, -4 * d(DIV, 0) + 2 * d(OUT, 1) - 1, "-2*d0 + 1*o1 + -1"),
    (EQ, LinExpr.constant(5), "5"),
]


@pytest.mark.parametrize("kind, expr, normal", NORMAL_FORMS)
def test_normal_form_is_pinned(kind, expr, normal):
    from repro.isl import BasicMap, Space
    c = Constraint(kind, expr)
    assert repr(c.expr) == normal
    # the same row over a basic map's columns (divs, in, out, params)
    space = Space.map_space(("a",), ("x", "y"), "S", "T", ("N",))
    read = BasicMap(space, [c], n_div=2).constraints[0]
    assert (read.kind, repr(read.expr)) == (kind, normal)
