"""Unit tests for unions of sets/maps: subtract, subset, equality."""

import functools

import pytest

from repro.isl import Map, Set, parse_map, parse_set, simple_hull


class TestUnionAlgebra:
    def test_union_contains_both(self):
        a = parse_set("{ [i] : 0 <= i < 3 }")
        b = parse_set("{ [i] : 10 <= i < 13 }")
        u = a | b
        assert u.contains_point([1]) and u.contains_point([11])
        assert not u.contains_point([5])

    def test_intersect_distributes(self):
        u = parse_set("{ [i] : 0 <= i < 10 or 20 <= i < 30 }")
        w = parse_set("{ [i] : 5 <= i < 25 }")
        x = u & w
        assert x.contains_point([7]) and x.contains_point([22])
        assert not x.contains_point([15])

    def test_quick_empty_pieces_dropped(self):
        a = parse_set("{ [i] : 0 <= i < 3 }")
        b = parse_set("{ [i] : i > 5 and i < 2 }")
        x = a & b
        assert x.is_empty()


class TestSubtract:
    def test_basic_difference(self):
        a = parse_set("{ [i] : 0 <= i <= 9 }")
        b = parse_set("{ [i] : 3 <= i <= 5 }")
        d = a - b
        for v in (0, 2, 6, 9):
            assert d.contains_point([v])
        for v in (3, 4, 5, 10):
            assert not d.contains_point([v])

    def test_difference_with_equality(self):
        a = parse_set("{ [i] : 0 <= i <= 4 }")
        b = parse_set("{ [i] : i = 2 }")
        d = a - b
        assert d.contains_point([1]) and d.contains_point([3])
        assert not d.contains_point([2])

    def test_subtract_divs_rejected(self):
        a = parse_set("{ [i] : 0 <= i <= 9 }")
        b = parse_set("{ [i] : exists e : i = 2e }")
        with pytest.raises(NotImplementedError):
            a - b

    def test_pieces_disjoint(self):
        from repro.isl import count
        a = parse_set("{ [i] : 0 <= i <= 9 }")
        b = parse_set("{ [i] : 4 <= i <= 5 }")
        d = a - b
        assert count(d) == 8


class TestSubsetEqual:
    def test_subset(self):
        small = parse_set("{ [i,j] : 0 <= i < 5 and 0 <= j <= i }")
        big = parse_set("{ [i,j] : 0 <= i < 5 and 0 <= j < 5 }")
        assert small.is_subset(big)
        assert not big.is_subset(small)

    def test_equal_different_representations(self):
        a = parse_set("{ [i] : 0 <= i and i <= 9 }")
        b = parse_set("{ [i] : 0 <= i < 4 or 4 <= i <= 9 }")
        assert a.is_equal(b)

    def test_parametric_subset(self):
        a = parse_set("[N] -> { [i] : 1 <= i < N }")
        b = parse_set("[N] -> { [i] : 0 <= i < N }")
        assert a.is_subset(b)
        assert not b.is_subset(a)

    def test_empty_parts_dropped_after_each_subtrahend_piece(self,
                                                             monkeypatch):
        """Three shifted boxes, each with four diagonal bounds it holds
        but the box around them does not: negating a diagonal there
        gives an empty piece that no syntactic check catches.  Dropped at
        once, each subtrahend piece asks about at most one piece per
        constraint it negates (five); kept until the end, the next
        pieces split them again (58 questions)."""
        from repro.isl.basic import BasicMap
        diagonals = " and ".join(f"i + {d}j <= {100 + 10 * d}"
                                 for d in range(1, 5))
        union = functools.reduce(Set.union, (parse_set(
            f"{{ [i, j] : {k} <= i <= {9 + k} and 0 <= j <= 9 and "
            f"{diagonals} }}") for k in range(3)))
        box = parse_set("{ [i, j] : 0 <= i <= 11 and 0 <= j <= 9 }")
        asked = []
        is_empty = BasicMap.is_empty
        monkeypatch.setattr(BasicMap, "is_empty",
                            lambda piece: asked.append(piece)
                            or is_empty(piece))
        assert box.is_subset(union)
        assert len(asked) <= 3 * 5
        assert not union.subtract(box).pieces


class TestSimpleHull:
    """``simple_hull``: one basic set over the pieces' own constraint
    directions, equal to the union exactly when ``hull <= union``."""

    @staticmethod
    def hull_of(*texts):
        union = functools.reduce(Set.union, map(parse_set, texts))
        return union, simple_hull(union.pieces)

    def test_shifted_boxes_union_convexly(self):
        union, hull = self.hull_of(
            *(f"{{ [i, j] : {k} <= i <= {9 + k} and 0 <= j <= 4 }}"
              for k in range(3)))
        assert len(union.pieces) == 3
        assert hull.n_div == 0
        assert Set([hull]).is_equal(union)
        assert Set([hull]).is_equal(
            parse_set("{ [i, j] : 0 <= i <= 11 and 0 <= j <= 4 }"))

    def test_l_shape_is_not_its_hull(self):
        union, hull = self.hull_of("{ [i, j] : 0 <= i <= 9 and 0 <= j <= 2 }",
                                   "{ [i, j] : 0 <= i <= 2 and 0 <= j <= 9 }")
        assert union.is_subset(Set([hull]))
        assert not Set([hull]).is_subset(union)
        assert hull.contains_point([9, 9])

    def test_bounds_over_parameters_and_prefix_dims(self):
        # a tile t of four rows reads rows 4t + k .. 4t + 3 + k, k = 0..2,
        # each clamped to the rows k .. N - 3 + k the read can reach
        union, hull = self.hull_of(
            *(f"[N] -> {{ [t, i] : 4t + {k} <= i <= 4t + {3 + k} and "
              f"{k} <= i <= N - {3 - k} and 0 <= 4t <= N - 3 }}"
              for k in range(3)))
        assert Set([hull]).is_equal(parse_set(
            "[N] -> { [t, i] : 4t <= i <= 4t + 5 and 0 <= i <= N - 1 "
            "and 0 <= 4t <= N - 3 }"))
        assert Set([hull]).is_subset(union)
        # without the tile's own bound the hull is too big: at N = 5
        # tile 1 would compute row 4, which no access of that tile reads
        union, loose = self.hull_of(
            *(f"[N] -> {{ [t, i] : 4t + {k} <= i <= 4t + {3 + k} and "
              f"{k} <= i <= N - {3 - k} }}" for k in range(3)))
        assert loose.contains_point([1, 4], param_vals={"N": 5})
        assert not union.contains_point([1, 4], param_vals={"N": 5})
        assert not Set([loose]).is_subset(union)

    def test_unbounded_direction_dropped(self):
        union, hull = self.hull_of("{ [i] : i >= 0 }",
                                   "{ [i] : 3 <= i <= 5 }")
        assert Set([hull]).is_equal(parse_set("{ [i] : i >= 0 }"))

    def test_rationally_empty_piece_adds_nothing(self):
        union, hull = self.hull_of("{ [i] : 0 <= i <= 4 }",
                                   "{ [i] : 9 <= i and 2i <= 17 }")
        assert Set([hull]).is_equal(parse_set("{ [i] : 0 <= i <= 4 }"))

    def test_equality_is_two_directions(self):
        union, hull = self.hull_of("{ [i, j] : i = 0 and 0 <= j <= 3 }",
                                   "{ [i, j] : i = 1 and 0 <= j <= 3 }")
        assert Set([hull]).is_equal(union)

    def test_pieces_with_divs_have_none(self):
        union, hull = self.hull_of(
            "{ [i] : exists e : i = 2e and 0 <= i <= 8 }",
            "{ [i] : 10 <= i <= 12 }")
        assert union.pieces[0].n_div == 1 and hull is None


class TestMapUnions:
    def test_apply_union(self):
        m = parse_map("{ [i] -> [i + 1] : i >= 0; [i] -> [i - 1] : i < 0 }")
        s = parse_set("{ [i] : i = 3 or i = -3 }")
        img = m.apply(s)
        assert img.contains_point([4])
        assert img.contains_point([-4])
        assert not img.contains_point([2])

    def test_domain_range_union(self):
        m = parse_map("{ [i] -> [0] : 0 <= i < 2; [i] -> [1] : 5 <= i < 7 }")
        assert m.domain().contains_point([6])
        assert not m.domain().contains_point([3])
        assert m.range().contains_point([1])
        assert not m.range().contains_point([2])

    def test_coalesce_drops_duplicates(self):
        a = parse_set("{ [i] : 0 <= i < 5 }")
        u = (a | a).coalesce()
        assert len(u.pieces) == 1

    def test_empty_union_space(self):
        from repro.isl import Space
        s = Set.empty(Space.set_space(("i",)))
        assert s.is_empty()
        u = s.union(parse_set("{ [i] : i = 0 }"))
        assert not u.is_empty()


class TestStructuralEquality:
    """Union-level __eq__/__hash__, consistent with BasicMap's: same
    space plus the same *set* of pieces."""

    def test_parsed_twice_equal_and_hash_equal(self):
        a = parse_set("{ [i] : 0 <= i < 10 }")
        b = parse_set("{ [i] : 0 <= i < 10 }")
        assert a == b
        assert hash(a) == hash(b)
        m1 = parse_map("{ [i] -> [i + 1] : 0 <= i < 5 }")
        m2 = parse_map("{ [i] -> [i + 1] : 0 <= i < 5 }")
        assert m1 == m2
        assert hash(m1) == hash(m2)

    def test_piece_order_insensitive(self):
        a = parse_set("{ [i] : 0 <= i < 3; [i] : 10 <= i < 13 }")
        b = parse_set("{ [i] : 10 <= i < 13; [i] : 0 <= i < 3 }")
        assert a == b
        assert hash(a) == hash(b)

    def test_rescaled_constraints_equal(self):
        # Constraints normalise at construction, so scaled duplicates of
        # one conjunction are structurally identical.
        a = parse_set("{ [i] : 2i >= 0 and 3i <= 12 }")
        b = parse_set("{ [i] : i >= 0 and i <= 4 }")
        assert a == b
        assert hash(a) == hash(b)

    def test_structural_finer_than_is_equal(self):
        a = parse_set("{ [i] : 0 <= i <= 9 }")
        b = parse_set("{ [i] : 0 <= i < 4 or 4 <= i <= 9 }")
        assert a.is_equal(b)
        assert a != b  # different piece structure

    def test_usable_as_dict_key(self):
        table = {}
        table[parse_map("{ [i] -> [i] }")] = "identity"
        table[parse_map("{ [i] -> [i + 1] }")] = "shift"
        assert table[parse_map("{ [i] -> [i] }")] == "identity"
        assert table[parse_map("{ [i] -> [i + 1] }")] == "shift"
        assert len({parse_set("{ [i] : i = 0 }"),
                    parse_set("{ [i] : i = 0 }")}) == 1

    def test_not_equal_to_other_types(self):
        assert parse_set("{ [i] : i = 0 }") != "{ [i] : i = 0 }"
        assert parse_set("{ [i] : i = 0 }") != parse_set("{ [i] : i = 1 }")
