"""Tests for Fourier-Motzkin elimination and integer linear algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isl import Constraint, LinExpr, parse_set
from repro.isl.constraint import constraints_of, system
from repro.isl.fourier_motzkin import (bounds_on_dim, eliminate_dim,
                                       eliminate_dims, prune,
                                       rational_feasible)
from repro.isl.intlinalg import column_hnf, solve_integer_system
from repro.isl.linexpr import OUT


def d(idx, coeff=1):
    return LinExpr.dim(OUT, idx, coeff)


class TestFourierMotzkin:
    def test_eliminate_middle_dim(self):
        # 0 <= i <= 4, i <= j <= i + 2; eliminating i: 0 <= j <= 6.
        cons = [Constraint.ge(d(0)), Constraint.ge(4 - d(0)),
                Constraint.ge(d(1) - d(0)), Constraint.ge(d(0) + 2 - d(1))]
        out = eliminate_dim(cons, (OUT, 0))
        lows, ups = bounds_on_dim(out, (OUT, 1))
        lo = max(-int(e.const) // a for a, e in lows) if lows else None
        # j >= 0 surviving; j <= 6 surviving.
        values = {v for v in range(-3, 10)
                  if all(c.satisfied_by({(OUT, 1): v}) for c in out)}
        assert values == set(range(0, 7))

    def test_equality_substitution(self):
        # j = 2i + 1, 0 <= i <= 3: eliminating i leaves odd j in 1..7
        # (rational shadow: 1 <= j <= 7 — parity is lost, as documented).
        cons = [Constraint.eq(d(1) - d(0) * 2 - 1),
                Constraint.ge(d(0)), Constraint.ge(3 - d(0))]
        out = eliminate_dim(cons, (OUT, 0))
        values = {v for v in range(-3, 12)
                  if all(c.satisfied_by({(OUT, 1): v}) for c in out)}
        assert values == set(range(1, 8))

    def test_rational_feasible(self):
        assert rational_feasible([Constraint.ge(d(0)),
                                  Constraint.ge(5 - d(0))])
        assert not rational_feasible([Constraint.ge(d(0) - 5),
                                      Constraint.ge(3 - d(0))])

    def test_rational_vs_integer_gap(self):
        # 1 <= 2x <= 1 is rationally feasible (x = 1/2), integrally empty.
        cons = [Constraint(("ge"), d(0, 2) - 1),
                Constraint(("ge"), 1 - d(0, 2))]
        # Constraint normalisation tightens these to x >= 1 and x <= 0.
        assert not rational_feasible(cons)

    def test_bounds_on_dim_with_equalities(self):
        cons = [Constraint.eq(d(0) - 7)]
        lows, ups = bounds_on_dim(cons, (OUT, 0))
        assert lows and ups

    def test_eliminate_all(self):
        s = parse_set("{ [i,j] : 0 <= i < 4 and i <= j < 6 }").pieces[0]
        out = eliminate_dims(s.constraints, [(OUT, 1), (OUT, 0)])
        assert all(not c.expr.coeffs for c in out)
        assert all(c.expr.const >= 0 for c in out)


def _prune(cons):
    """``fourier_motzkin.prune`` over the rows of ``cons``."""
    cols, rows = system(cons)
    return constraints_of(cols, prune(rows))


class TestPrune:
    """prune's clash detection: contradictory parallel constraints must
    collapse to the trivially-false system, not silently coexist."""

    def _is_false_system(self, cons):
        return any(c.is_trivially_false() for c in cons)

    def test_contradictory_parallel_equalities(self):
        # i = 1 and i = 2 share the coefficient key; the old keying by
        # (coeffs, const) let both survive and the system pass as
        # feasible through paths that only looked at one of them.
        cons = [Constraint.eq(d(0) - 1), Constraint.eq(d(0) - 2)]
        assert self._is_false_system(_prune(cons))
        assert not rational_feasible(cons)

    def test_duplicate_equalities_kept_once(self):
        cons = [Constraint.eq(d(0) - 1), Constraint.eq(d(0) - 1)]
        out = _prune(cons)
        assert len(out) == 1
        assert not self._is_false_system(out)

    def test_scaled_contradictory_equalities(self):
        # 2i = 2 and 3i = 6 normalise to i = 1 and i = 2.
        cons = [Constraint.eq(d(0, 2) - 2), Constraint.eq(d(0, 3) - 6)]
        assert self._is_false_system(_prune(cons))

    def test_opposed_inequalities_with_negative_gap(self):
        # i >= 4 and i <= 2: empty without any elimination round.
        cons = [Constraint.ge(d(0) - 4), Constraint.ge(2 - d(0))]
        assert self._is_false_system(_prune(cons))
        assert not rational_feasible(cons)

    def test_opposed_inequalities_with_empty_gap_kept(self):
        # i >= 2 and i <= 2 is the singleton {2}: must survive.
        cons = [Constraint.ge(d(0) - 2), Constraint.ge(2 - d(0))]
        out = _prune(cons)
        assert not self._is_false_system(out)
        assert rational_feasible(cons)

    def test_parallel_inequalities_keep_tightest(self):
        cons = [Constraint.ge(d(0) - 1), Constraint.ge(d(0) - 5)]
        out = _prune(cons)
        assert len(out) == 1
        assert int(out[0].expr.const) == -5

    @given(st.integers(-6, 6), st.integers(-6, 6))
    @settings(max_examples=60, deadline=None)
    def test_two_equalities_feasibility(self, c1, c2):
        cons = [Constraint.eq(d(0) + c1), Constraint.eq(d(0) + c2)]
        assert rational_feasible(cons) == (c1 == c2)


class TestHNF:
    def test_hnf_product_identity(self):
        a = [[4, 6, 2], [2, 8, 6]]
        h, u = column_hnf(a)
        prod = (np.array(a) @ np.array(u)).tolist()
        assert prod == h
        assert abs(round(float(np.linalg.det(np.array(u))))) == 1

    def test_solve_simple(self):
        # x + 2y = 5
        sol = solve_integer_system([[1, 2]], [5])
        assert sol is not None
        x0, basis = sol
        assert x0[0] + 2 * x0[1] == 5
        assert len(basis) == 1
        bx, by = basis[0]
        assert bx + 2 * by == 0

    def test_solve_infeasible_gcd(self):
        assert solve_integer_system([[2, 4]], [3]) is None

    def test_solve_inconsistent_rows(self):
        assert solve_integer_system([[1, 0], [1, 0]], [1, 2]) is None

    def test_solve_full_rank(self):
        sol = solve_integer_system([[1, 0], [0, 1]], [3, -4])
        x0, basis = sol
        assert x0 == [3, -4]
        assert basis == []

    @given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
                    min_size=1, max_size=3),
           st.lists(st.integers(-10, 10), min_size=3, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_solutions_actually_solve(self, a, b_seed):
        b = b_seed[:len(a)]
        sol = solve_integer_system(a, b)
        if sol is None:
            return
        x0, basis = sol
        arr = np.array(a)
        assert (arr @ np.array(x0) == np.array(b)).all()
        for vec in basis:
            assert (arr @ np.array(vec) == 0).all()

    @given(st.integers(-8, 8), st.integers(-8, 8), st.integers(-20, 20))
    @settings(max_examples=100, deadline=None)
    def test_two_var_diophantine(self, p, q, r):
        """p*x + q*y = r solvable over Z iff gcd(p, q) | r."""
        from math import gcd
        sol = solve_integer_system([[p, q]], [r])
        g = gcd(abs(p), abs(q))
        if g == 0:
            assert (sol is not None) == (r == 0)
        else:
            assert (sol is not None) == (r % g == 0)
