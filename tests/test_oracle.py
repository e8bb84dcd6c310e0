import itertools
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import (
    SubdivergenceKind,
    boundary_antichain_pair,
    has_fully_internal,
    has_fully_internal_literal,
    has_one_sided,
    has_one_sided_literal,
    iter_full_gluings,
    leaves_below,
)
from conftest import tree_pairs_same_leaves, trees
from gluecount.generate import all_normalized_trees
from gluecount.oracle import (
    BruteLimitError,
    PartialMode,
    brute_leaf_limit,
    count_partial_brute,
    count_subfree_brute,
)
from gluecount.trees import (
    Fan,
    Line,
    build_family,
    contract_edge,
    normalize,
    parse_tree,
    subdivide_edge,
)


def line_gluing(t1, t2, swap=False):
    """Pair off leaves by depth, shallowest first, optionally reversed."""
    depth1 = sorted(t1.leaves, key=lambda v: _depth(t1, v))
    depth2 = sorted(t2.leaves, key=lambda v: _depth(t2, v))
    if swap:
        depth2 = depth2[::-1]
    return dict(zip(depth1, depth2))


def _depth(t, v):
    d = 0
    while v != t.root:
        v = t.parent[v]
        d += 1
    return d


class TestFullyInternal:
    def test_matched_spurs_cut(self):
        t = build_family(Line(2))
        assert has_fully_internal(t, t, line_gluing(t, t)) is True
        assert has_fully_internal(t, t, line_gluing(t, t, swap=True)) is False

    def test_fan_never_cuts(self):
        fan = build_family(Fan(3))
        other = build_family(Line(3))
        for g in iter_full_gluings(fan, other):
            assert not has_fully_internal(fan, other, g)

    def test_rejects_bad_gluings(self):
        t = build_family(Line(2))
        x, y = sorted(t.leaves)
        with pytest.raises(ValueError):
            has_fully_internal(t, t, {x: y, y: y})
        with pytest.raises(ValueError):
            has_fully_internal(t, t, {t.root: x})


class TestOneSided:
    def test_stalk_with_everything_glued(self):
        t1 = parse_tree("((*,*))")
        t2 = parse_tree("(*,*)")
        for g in iter_full_gluings(t1, t2):
            assert has_one_sided(t1, t2, g, SubdivergenceKind.RIGHT_SIDED)
            assert has_one_sided_literal(t1, t2, g, SubdivergenceKind.RIGHT_SIDED)
            assert not has_one_sided(t1, t2, g, SubdivergenceKind.LEFT_SIDED)

    def test_unglued_target_leaf_blocks_right(self):
        t1 = parse_tree("((*,*))")
        t2 = parse_tree("(*,*)")
        a, b = sorted(t1.leaves)
        c, _ = sorted(t2.leaves)
        g = {a: c}
        assert not has_one_sided(t1, t2, g, SubdivergenceKind.RIGHT_SIDED)

    def test_fan_source_never_right(self):
        fan = build_family(Fan(3))
        t2 = build_family(Line(3))
        for g in iter_full_gluings(fan, t2):
            assert not has_one_sided(fan, t2, g, SubdivergenceKind.RIGHT_SIDED)

    def test_fully_internal_is_not_a_side(self):
        t = build_family(Line(2))
        with pytest.raises(ValueError):
            has_one_sided(t, t, line_gluing(t, t), SubdivergenceKind.FULLY_INTERNAL)


class TestCountSubfree:
    def test_fan_counts_factorial(self):
        for j in range(1, 5):
            fan = build_family(Fan(j))
            for other in all_normalized_trees(j)[:6]:
                assert count_subfree_brute(fan, other) == factorial(j)

    def test_known_values(self):
        line4 = build_family(Line(4))
        assert count_subfree_brute(line4, line4) == 13
        d11 = parse_tree("((*),(*))")
        assert count_subfree_brute(d11, d11) == 0

    def test_colour_mismatch_is_zero(self):
        assert count_subfree_brute(parse_tree("(1,2)"), parse_tree("(1,3)")) == 0
        assert count_subfree_brute(parse_tree("(*,*)"), parse_tree("(*,*,*)")) == 0

    def test_coloured_product_structure(self):
        # Two colour classes permute independently: 2! * 2!.
        t = parse_tree("(1,1,2,2)")
        assert count_subfree_brute(t, t) == 4

    @settings(max_examples=40)
    @given(tree_pairs_same_leaves(max_leaves=5))
    def test_symmetric(self, pair):
        t1, t2 = pair
        assert count_subfree_brute(t1, t2) == count_subfree_brute(t2, t1)

    def test_leaf_cap(self, monkeypatch):
        big = build_family(Fan(10))
        with pytest.raises(BruteLimitError):
            count_subfree_brute(big, big)
        monkeypatch.setenv("GLUECOUNT_BRUTE_LIMIT", "10")
        assert brute_leaf_limit() == 10
        assert count_subfree_brute(big, big) == factorial(10)
        monkeypatch.setenv("GLUECOUNT_BRUTE_LIMIT", "4")
        with pytest.raises(BruteLimitError):
            count_subfree_brute(build_family(Fan(5)), build_family(Fan(5)))


class TestCountPartial:
    def test_oversized_k_is_zero(self):
        t = build_family(Fan(3))
        assert count_partial_brute(t, t, 4) == 0
        leaves = sorted(t.leaves)
        assert count_partial_brute(t, t, 2, leaves[:1], None) == 0

    def test_fan_fan_product(self):
        f2, f3 = build_family(Fan(2)), build_family(Fan(3))
        for mode in PartialMode:
            assert count_partial_brute(f2, f3, 2, mode=mode) == 6

    def test_single_leaf_source(self):
        dot = parse_tree("*")
        # Without a spur in range both modes count every target.
        t2 = parse_tree("(*,(*,*))")
        for s2_size in (1, 2, 3):
            s2 = sorted(t2.leaves)[:s2_size]
            for mode in PartialMode:
                assert count_partial_brute(dot, t2, 1, None, s2, mode) == s2_size

    def test_single_leaf_source_spur_target(self):
        # A spur target is a one-sided cut for the strict mode only.
        dot = parse_tree("*")
        spur = parse_tree("((*),*)")
        strict = count_partial_brute(dot, spur, 1)
        relaxed = count_partial_brute(
            dot, spur, 1, mode=PartialMode.NO_INTERNAL_OR_RIGHT
        )
        assert (strict, relaxed) == (1, 2)

    def test_empty_gluing_counts_once(self):
        t = build_family(Line(3))
        for mode in PartialMode:
            assert count_partial_brute(t, t, 0, mode=mode) == 1

    def test_full_size_matches_subfree_on_unstalked_trees(self):
        for t1 in all_normalized_trees(3):
            if len(t1.children_of(t1.root)) == 1 and t1.internal_edge_list:
                continue
            for t2 in all_normalized_trees(3):
                if len(t2.children_of(t2.root)) == 1 and t2.internal_edge_list:
                    continue
                assert count_partial_brute(t1, t2, 3) == count_subfree_brute(t1, t2)

    @settings(max_examples=30, deadline=None)
    @given(
        tree_pairs_same_leaves(max_leaves=4),
        st.integers(min_value=0, max_value=4),
    )
    def test_modes_are_ordered(self, pair, k):
        t1, t2 = pair
        strict = count_partial_brute(t1, t2, k)
        relaxed = count_partial_brute(t1, t2, k, mode=PartialMode.NO_INTERNAL_OR_RIGHT)
        assert strict <= relaxed
        if k != t1.leaf_count:
            assert strict == relaxed

    def test_validation(self):
        t = build_family(Fan(2))
        with pytest.raises(ValueError):
            count_partial_brute(t, t, -1)
        with pytest.raises(ValueError):
            count_partial_brute(t, t, 1, [t.root], None)


def iter_partial_gluings(t1, t2):
    leaves1, leaves2 = sorted(t1.leaves), sorted(t2.leaves)
    for k in range(min(len(leaves1), len(leaves2)) + 1):
        for dom in itertools.combinations(leaves1, k):
            for img in itertools.permutations(leaves2, k):
                yield dict(zip(dom, img))


class TestLiteralAgreement:
    """The leafset characterizations against actual edge-cutting."""

    def test_exhaustive_small_pairs(self):
        pool = [(n, t) for n in range(1, 4) for t in all_normalized_trees(n)]
        sides = (SubdivergenceKind.LEFT_SIDED, SubdivergenceKind.RIGHT_SIDED)
        for (n1, t1), (n2, t2) in itertools.product(pool, repeat=2):
            if n1 + n2 > 5:
                continue
            for g in iter_partial_gluings(t1, t2):
                assert has_fully_internal(t1, t2, g) == has_fully_internal_literal(
                    t1, t2, g
                ), (t1, t2, g)
                for side in sides:
                    assert has_one_sided(t1, t2, g, side) == has_one_sided_literal(
                        t1, t2, g, side
                    ), (t1, t2, g, side)

    @settings(max_examples=60, deadline=None)
    @given(tree_pairs_same_leaves(max_leaves=5), st.randoms(use_true_random=False))
    def test_random_larger_pairs(self, pair, rng):
        t1, t2 = pair
        leaves1, leaves2 = sorted(t1.leaves), sorted(t2.leaves)
        k = rng.randint(0, len(leaves1))
        g = dict(zip(rng.sample(leaves1, k), rng.sample(leaves2, k)))
        assert has_fully_internal(t1, t2, g) == has_fully_internal_literal(t1, t2, g)
        for side in (SubdivergenceKind.LEFT_SIDED, SubdivergenceKind.RIGHT_SIDED):
            assert has_one_sided(t1, t2, g, side) == has_one_sided_literal(
                t1, t2, g, side
            )


class TestStructuralInvariants:
    def test_contraction_grows_count(self):
        for t1 in all_normalized_trees(3):
            for t2 in all_normalized_trees(3):
                base = count_subfree_brute(t1, t2)
                for e in t1.internal_edge_list:
                    assert count_subfree_brute(contract_edge(t1, e), t2) >= base

    def test_two_valent_insertion_invariance(self):
        for t1 in all_normalized_trees(3):
            for t2 in all_normalized_trees(3):
                base = count_subfree_brute(t1, t2)
                for e in t1.internal_edge_list:
                    assert count_subfree_brute(subdivide_edge(t1, e), t2) == base
                for e in t2.internal_edge_list:
                    assert count_subfree_brute(t1, subdivide_edge(t2, e)) == base


class TestGluingIteration:
    def test_counts_and_validity(self):
        t1 = parse_tree("((1,2),1)")
        t2 = parse_tree("(1,(1,2))")
        gluings = list(iter_full_gluings(t1, t2))
        assert len(gluings) == 2  # 2! for colour 1, 1! for colour 2
        for g in gluings:
            assert set(g) == t1.leaves and set(g.values()) == t2.leaves
            assert all(t1.colour_of(a) == t2.colour_of(b) for a, b in g.items())

    def test_mismatch_yields_nothing(self):
        assert list(iter_full_gluings(parse_tree("(1,1)"), parse_tree("(1,2)"))) == []


class TestBoundaryClassifier:
    def test_line2_identity_and_swap(self):
        t = build_family(Line(2))
        spur = t.internal_edge_list[0]
        assert boundary_antichain_pair(t, t, line_gluing(t, t)) == (
            frozenset((spur,)),
            frozenset((spur,)),
        )
        assert boundary_antichain_pair(t, t, line_gluing(t, t, swap=True)) is None

    def test_outermost_edge_wins(self):
        t = build_family(Line(3))
        g = line_gluing(t, t)  # depth-aligned: every edge matches
        s1, s2 = boundary_antichain_pair(t, t, g)
        (e1,) = s1
        assert len(leaves_below(t, e1)) == 2  # the outer edge, not the deep one
        assert len(s1) == len(s2) == 1

    def test_requires_full_gluing(self):
        t = build_family(Line(2))
        a = sorted(t.leaves)[0]
        with pytest.raises(ValueError):
            boundary_antichain_pair(t, t, {a: a})
