"""Closed-form counts pinned to the brute-force oracle and to hand-checked
values, plus the family recognizers feeding closed_count."""

import itertools

import pytest

from gluecount.closed_forms import (
    as_fan_line,
    as_line_marks,
    as_two_ended,
    closed_count,
    fan_line_count,
    line_count,
    line_s_count,
    two_ended_equal_count,
    two_ended_unequal_count,
)
from gluecount.oracle import count_subfree_brute
from gluecount.permutations import connected_count, s_connected_count
from gluecount.trees import (
    FanLine,
    Line,
    LineS,
    TwoEnded,
    build_family,
    from_nested,
    parse_tree,
)


class TestLineCount:
    def test_matches_connected_sequence(self):
        assert [line_count(k) for k in range(1, 9)] == [
            1, 1, 3, 13, 71, 461, 3447, 29093,
        ]

    @pytest.mark.parametrize("k", range(1, 7))
    def test_agrees_with_brute_force(self, k):
        t = build_family(Line(k))
        assert line_count(k) == count_subfree_brute(t, t)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            line_count(0)


class TestLineSCount:
    def test_worked_example(self):
        assert line_s_count(4, {1, 3}, {1, 2, 3}) == s_connected_count(4, {1, 3})
        assert line_s_count(4, {1, 3}, {1, 3}) == 14

    def test_extremes(self):
        # No shared marks leaves the count unconstrained; full marks on
        # both sides recover the plain chain count.
        assert line_s_count(5, {1, 2}, {3, 4}) == 120
        assert line_s_count(5, range(1, 5), range(1, 5)) == line_count(5)

    def test_symmetry(self):
        for s1, s2 in itertools.combinations([{1}, {2}, {1, 3}, {2, 3}], 2):
            assert line_s_count(4, s1, s2) == line_s_count(4, s2, s1)

    @pytest.mark.parametrize("k", range(1, 5))
    def test_agrees_with_brute_force(self, k):
        positions = list(range(1, k))
        subsets = [
            frozenset(c)
            for r in range(k)
            for c in itertools.combinations(positions, r)
        ]
        for s1 in subsets:
            t1 = build_family(LineS(k, s1))
            for s2 in subsets:
                t2 = build_family(LineS(k, s2))
                assert line_s_count(k, s1, s2) == count_subfree_brute(t1, t2), (
                    k, sorted(s1), sorted(s2),
                )

    def test_rejects_out_of_range_marks(self):
        with pytest.raises(ValueError):
            line_s_count(4, {4}, set())
        with pytest.raises(ValueError):
            line_s_count(4, set(), {0})


class TestTwoEndedEqual:
    def test_frozen_values(self):
        assert [two_ended_equal_count(k) for k in range(1, 5)] == [
            0, 2, 202, 17866,
        ]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_agrees_with_brute_force(self, k):
        t = build_family(TwoEnded(k, k))
        assert two_ended_equal_count(k) == count_subfree_brute(t, t)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            two_ended_equal_count(0)


class TestTwoEndedUnequal:
    def test_shortest_case_is_zero(self):
        assert two_ended_unequal_count(2, 1) == 0

    def test_symmetric_in_arguments(self):
        assert two_ended_unequal_count(1, 4) == two_ended_unequal_count(4, 1)
        assert two_ended_unequal_count(2, 3) == two_ended_unequal_count(3, 2)

    @pytest.mark.parametrize("k,l", [(2, 1), (3, 1), (3, 2), (4, 1)])
    def test_agrees_with_brute_force(self, k, l):
        t = build_family(TwoEnded(k, l))
        assert two_ended_unequal_count(k, l) == count_subfree_brute(t, t)

    def test_rejects_equal_or_nonpositive_arms(self):
        with pytest.raises(ValueError):
            two_ended_unequal_count(3, 3)
        with pytest.raises(ValueError):
            two_ended_unequal_count(0, 2)


class TestFanLine:
    def test_worked_examples(self):
        assert fan_line_count(4, 3, 1) == 3
        assert fan_line_count(4, 2, 1) == 4

    @pytest.mark.parametrize(
        "k,i,j", [(3, 2, 1), (4, 2, 1), (4, 3, 1), (5, 3, 1), (3, 2, 2)]
    )
    def test_agrees_with_brute_force(self, k, i, j):
        t = build_family(FanLine(k, i, j))
        assert fan_line_count(k, i, j) == count_subfree_brute(t, t)

    @pytest.mark.parametrize("k,i", [(k, i) for k in (3, 4, 5, 6) for i in range(2, k)])
    def test_single_leaf_fan_reduces_to_four_chain_terms(self, k, i):
        expected = (
            connected_count(k)
            - 2 * s_connected_count(k - 1, range(i - 1, k - 1))
            + s_connected_count(k - 2, range(i - 2, k - 2))
            - connected_count(k - 1)
        )
        assert fan_line_count(k, i, 1) == expected

    def test_nonnegative_on_grid(self):
        for k in range(3, 7):
            for i in range(2, k):
                for j in range(1, 4):
                    assert fan_line_count(k, i, j) >= 0

    def test_rejects_bad_parameters(self):
        for k, i, j in [(3, 1, 1), (3, 3, 1), (4, 2, 0)]:
            with pytest.raises(ValueError):
                fan_line_count(k, i, j)


class TestRecognizers:
    @pytest.mark.parametrize("k", range(1, 6))
    def test_line_round_trip(self, k):
        positions = list(range(1, k))
        for r in range(len(positions) + 1):
            for marks in itertools.combinations(positions, r):
                t = build_family(LineS(k, frozenset(marks)))
                assert as_line_marks(t) == frozenset(marks)

    def test_recognizes_any_single_colour(self):
        assert as_line_marks(parse_tree("((1),1)")) == frozenset({1})
        assert as_two_ended(parse_tree("((2),(2))")) == (1, 1)
        assert as_fan_line(parse_tree("((((3),3),(3)),3)")) == (4, 3, 1)

    def test_line_rejects_other_shapes(self):
        assert as_line_marks(parse_tree("((*),(*))")) is None
        assert as_line_marks(parse_tree("((*,*))")) is None
        assert as_line_marks(from_nested([[0, 0], [0, 0], 0])) is None
        assert as_line_marks(parse_tree("(1,2)")) is None

    @pytest.mark.parametrize("k,l", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)])
    def test_two_ended_round_trip(self, k, l):
        t = build_family(TwoEnded(k, l))
        assert as_two_ended(t) == (k, l)
        assert as_two_ended(build_family(TwoEnded(l, k))) == (k, l)

    def test_two_ended_rejects_other_shapes(self):
        assert as_two_ended(build_family(Line(3))) is None
        assert as_two_ended(from_nested([[0, 0], [0, 0], 0])) is None
        assert as_two_ended(parse_tree("*")) is None

    @pytest.mark.parametrize("k,i,j", [(3, 2, 1), (4, 2, 1), (4, 3, 1), (3, 2, 2)])
    def test_fan_line_round_trip(self, k, i, j):
        assert as_fan_line(build_family(FanLine(k, i, j))) == (k, i, j)

    def test_fan_line_rejects_other_shapes(self):
        assert as_fan_line(build_family(Line(4))) is None
        assert as_fan_line(build_family(TwoEnded(2, 2))) is None

    def test_families_have_exactly_one_kind(self):
        members = [build_family(LineS(4, frozenset({2})))]
        members.append(build_family(TwoEnded(2, 2)))
        members.append(build_family(FanLine(4, 3, 1)))
        for t in members:
            kinds = [
                rec(t) is not None
                for rec in (as_line_marks, as_two_ended, as_fan_line)
            ]
            assert sum(kinds) == 1, t.canon


class TestClosedCount:
    def test_caterpillar_pairs(self):
        t1 = build_family(LineS(4, frozenset({1, 3})))
        t2 = build_family(LineS(4, frozenset({1, 2, 3})))
        assert closed_count(t1, t2) == s_connected_count(4, {1, 3})
        assert closed_count(t1, t2) == count_subfree_brute(t1, t2)

    def test_mismatched_caterpillar_sizes_count_zero(self):
        assert closed_count(build_family(Line(2)), build_family(Line(3))) == 0

    def test_self_pairs(self):
        d = build_family(TwoEnded(2, 2))
        assert closed_count(d, d) == 2
        f = build_family(FanLine(4, 3, 1))
        assert closed_count(f, f) == 3

    def test_deep_line_self_pair(self):
        t = build_family(Line(600))
        assert closed_count(t, t) == connected_count(600)

    def test_normalizes_before_recognizing(self):
        stretched = parse_tree("((((*),*)),*)")
        assert closed_count(stretched, build_family(Line(3))) == 3

    def test_recognized_pairs_with_clashing_leaves_count_zero(self):
        d21 = build_family(TwoEnded(2, 1))
        d31 = build_family(TwoEnded(3, 1))
        assert closed_count(d21, d31) == 0
        assert closed_count(build_family(Line(3)), parse_tree("(1,1,1)")) == 0

    def test_unsupported_pairs_raise(self):
        d22 = build_family(TwoEnded(2, 2))
        d31 = build_family(TwoEnded(3, 1))
        with pytest.raises(ValueError):
            closed_count(d22, d31)
        with pytest.raises(ValueError):
            closed_count(build_family(TwoEnded(2, 1)), build_family(Line(3)))
        with pytest.raises(ValueError):
            closed_count(parse_tree("((*,*))"), parse_tree("((*,*))"))
