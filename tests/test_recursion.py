"""The recursive partial-gluing engine against the brute-force oracle,
plus the reduction identities it is built from."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from gluecount.generate import all_normalized_trees
from gluecount.oracle import PartialMode, count_partial_brute, count_subfree_brute
from gluecount.recursive_count import (
    cache_info,
    clear_cache,
    count_subfree_recursive,
    partial_gluing_count,
)
from gluecount.trees import (
    FanLine,
    Line,
    add_root,
    build_family,
    from_nested,
    parse_tree,
)

from _reference import leaves_below
from conftest import tree_pairs_same_leaves, trees

STRICT = PartialMode.NO_SUBDIVERGENCE
RELAXED = PartialMode.NO_INTERNAL_OR_RIGHT


def p(t1, t2, k, s1=None, s2=None):
    return partial_gluing_count(t1, t2, k, s1, s2, STRICT)


def p_bar(t1, t2, k, s1=None, s2=None):
    return partial_gluing_count(t1, t2, k, s1, s2, RELAXED)


class TestSpotValues:
    def test_two_chain_self_pair(self):
        t = build_family(Line(2))
        assert p(t, t, 2) == 1

    def test_fan_source_any_target(self):
        fan = parse_tree("(*,*,*)")
        chain = build_family(Line(3))
        for mode in PartialMode:
            assert partial_gluing_count(fan, chain, 2, mode=mode) == 18
        assert count_subfree_recursive(fan, chain) == 6

    def test_stalked_source_full_size_relaxed_is_zero(self):
        stalk = parse_tree("((*,*))")
        fan = parse_tree("(*,*)")
        assert p_bar(stalk, fan, 2) == 0
        # The headline count keeps those gluings: a cut below the root that
        # swallows the whole other tree is not a subdivergence.
        assert count_subfree_recursive(stalk, fan) == 2
        assert count_subfree_recursive(fan, stalk) == 2
        assert count_subfree_recursive(stalk, stalk) == 0

    def test_known_full_counts(self):
        l4 = build_family(Line(4))
        assert count_subfree_recursive(l4, l4) == 13
        f = build_family(FanLine(4, 3, 1))
        assert count_subfree_recursive(f, f) == 3
        assert count_subfree_recursive(parse_tree("((*),(*))"), parse_tree("((*),(*))")) == 0

    def test_leaf_count_mismatch_is_zero(self):
        assert count_subfree_recursive(parse_tree("(*,*)"), parse_tree("(*,*,*)")) == 0

    def test_single_colour_mismatch_is_zero(self):
        assert count_subfree_recursive(parse_tree("(1,1)"), parse_tree("(2,2)")) == 0
        assert partial_gluing_count(parse_tree("(1,1)"), parse_tree("(2,2)"), 1) == 0
        assert partial_gluing_count(parse_tree("(1,1)"), parse_tree("(2,2)"), 0) == 1

    def test_same_nonbase_colour_counts_normally(self):
        assert count_subfree_recursive(parse_tree("(7,7)"), parse_tree("(7,7)")) == 2


class TestValidation:
    def test_mixed_colours_rejected(self):
        with pytest.raises(ValueError):
            count_subfree_recursive(parse_tree("(1,2)"), parse_tree("(1,2)"))
        with pytest.raises(ValueError):
            partial_gluing_count(parse_tree("(*,*)"), parse_tree("(1,2)"), 1)

    def test_negative_k_rejected(self):
        t = parse_tree("(*,*)")
        with pytest.raises(ValueError):
            partial_gluing_count(t, t, -1)

    def test_non_leaf_subsets_rejected(self):
        t = parse_tree("((*,*),*)")
        internal = next(iter(t.internal_edge_list))
        with pytest.raises(ValueError):
            partial_gluing_count(t, t, 1, s1={internal})


class TestModeRelations:
    def test_empty_gluing_counts_once(self):
        t1, t2 = parse_tree("((*,*))"), parse_tree("(*,(*,*))")
        for mode in PartialMode:
            assert partial_gluing_count(t1, t2, 0, (), (), mode) == 1

    def test_relaxed_dominates_strict(self):
        rng = random.Random(20817)
        uni = [t for n in range(1, 5) for t in all_normalized_trees(n)]
        for _ in range(500):
            t1, t2 = rng.choice(uni), rng.choice(uni)
            k = rng.randint(0, min(t1.leaf_count, t2.leaf_count))
            s1 = rng.sample(sorted(t1.leaves), rng.randint(k, t1.leaf_count))
            s2 = rng.sample(sorted(t2.leaves), rng.randint(k, t2.leaf_count))
            assert p_bar(t1, t2, k, s1, s2) >= p(t1, t2, k, s1, s2)

    def test_modes_agree_below_full_left_size(self):
        for t1 in all_normalized_trees(3):
            for t2 in all_normalized_trees(2):
                for k in range(3):  # k < leaf count of t1
                    assert p(t1, t2, k) == p_bar(t1, t2, k)

    def test_strict_count_is_symmetric(self):
        uni = all_normalized_trees(3)
        for t1, t2 in itertools.product(uni, repeat=2):
            for k in range(4):
                assert p(t1, t2, k) == p(t2, t1, k)

    @given(tree_pairs_same_leaves(max_leaves=5))
    @settings(max_examples=150, deadline=None)
    def test_full_count_is_symmetric(self, pair):
        t1, t2 = pair
        assert count_subfree_recursive(t1, t2) == count_subfree_recursive(t2, t1)


class TestAgainstBrute:
    def test_full_counts_exhaustive_small(self):
        for n in range(1, 5):
            uni = all_normalized_trees(n)
            for t1, t2 in itertools.product(uni, repeat=2):
                assert count_subfree_recursive(t1, t2) == count_subfree_brute(
                    t1, t2
                ), (t1.canon, t2.canon)

    def test_partial_counts_exhaustive_small(self):
        for l1, l2 in [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (2, 3), (3, 2)]:
            for t1 in all_normalized_trees(l1):
                for t2 in all_normalized_trees(l2):
                    leaves1, leaves2 = sorted(t1.leaves), sorted(t2.leaves)
                    for r1, r2 in itertools.product(range(l1 + 1), range(l2 + 1)):
                        for s1 in itertools.combinations(leaves1, r1):
                            for s2 in itertools.combinations(leaves2, r2):
                                for k in range(min(r1, r2) + 1):
                                    for mode in PartialMode:
                                        assert partial_gluing_count(
                                            t1, t2, k, s1, s2, mode
                                        ) == count_partial_brute(
                                            t1, t2, k, s1, s2, mode
                                        ), (t1.canon, t2.canon, k, s1, s2, mode)

    @given(tree_pairs_same_leaves(max_leaves=6))
    @settings(max_examples=120, deadline=None)
    def test_full_counts_random(self, pair):
        t1, t2 = pair
        assert count_subfree_recursive(t1, t2) == count_subfree_brute(t1, t2)

    @given(
        trees(max_leaves=5),
        trees(max_leaves=4),
        st.integers(0, 4),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_partial_counts_random(self, t1, t2, k, rnd):
        take1 = rnd.randint(0, t1.leaf_count)
        take2 = rnd.randint(0, t2.leaf_count)
        s1 = rnd.sample(sorted(t1.leaves), take1)
        s2 = rnd.sample(sorted(t2.leaves), take2)
        mode = rnd.choice(list(PartialMode))
        assert partial_gluing_count(t1, t2, k, s1, s2, mode) == count_partial_brute(
            t1, t2, k, s1, s2, mode
        )

    def test_unnormalized_inputs(self):
        # Chains of single-child vertices are legal inputs for the partial
        # counts and must not be normalized away: the spur changes answers.
        t1 = parse_tree("(((*)),*)")
        t2 = parse_tree("((*),*)")
        for k in range(3):
            for mode in PartialMode:
                assert partial_gluing_count(t1, t2, k, mode=mode) == (
                    count_partial_brute(t1, t2, k, mode=mode)
                )


def _canonical_leaf_match(src, dst):
    """Map leaf ids of ``src`` to ids of the isomorphic ``dst``."""
    return dict(zip(src.canonical_leaf_order, dst.canonical_leaf_order))


class TestReductionIdentities:
    def test_one_child_reduction(self):
        # Wrapping a fresh root changes nothing while either side stays
        # below full size.
        for inner in all_normalized_trees(3):
            wrapped = add_root([inner])
            match = _canonical_leaf_match(wrapped, inner)
            for t2 in all_normalized_trees(3):
                for k in range(4):
                    for r in range(k, 4):
                        s1 = wrapped.canonical_leaf_order[:r]
                        inner_s1 = [match[v] for v in s1]
                        if k == 3 and t2.leaf_count == 3:
                            continue
                        assert p(wrapped, t2, k, s1) == p(inner, t2, k, inner_s1)

    def test_branch_convolution_matches_displayed_form(self):
        # Splitting the smallest branch off the root: the count factors
        # through the branch (under a fresh root) and the remainder, summed
        # over how much of the image the branch takes.  Fans are the base
        # case of the recursion, not split, and the strict first factor is
        # only right when the branch is internal; picking the smallest
        # serialization guarantees that for every non-fan source.
        for t1 in all_normalized_trees(4):
            kids = t1.children_of(t1.root)
            if len(kids) < 2 or all(t1.is_leaf(c) for c in kids):
                continue
            branch = min((t1.subtree(c) for c in kids), key=lambda s: s.canon)
            assert not branch.is_leaf(branch.root)
            rest = t1.without_branch(branch.root)
            wrapped = add_root([branch])
            match = _canonical_leaf_match(branch, wrapped)
            branch_leaves = set(branch.leaves)
            rest_leaves = [v for v in t1.leaves if v not in branch_leaves]
            for t2 in all_normalized_trees(3):
                leaves2 = sorted(t2.leaves)
                for k in range(4):
                    expected = 0
                    for j in range(k + 1):
                        s1a = [match[v] for v in branch.leaves]
                        for image in itertools.combinations(leaves2, j):
                            first = p(wrapped, t2, j, s1a, image)
                            if not first:
                                continue
                            left_over = [v for v in leaves2 if v not in image]
                            expected += first * p_bar(
                                rest, t2, k - j, rest_leaves, left_over
                            )
                    assert p_bar(t1, t2, k) == expected, (t1.canon, t2.canon, k)

    def test_full_image_indicator(self):
        # With a fan source glued at full size, the strict count is k! when
        # the image avoids every subtree leaf set of the target and 0 when
        # it hits one.
        fan = parse_tree("(*,*)")
        for t2 in all_normalized_trees(4):
            masks = {frozenset(leaves_below(t2, e)) for e in t2.internal_edge_list}
            for image in itertools.combinations(sorted(t2.leaves), 2):
                want = 0 if frozenset(image) in masks else 2
                assert p(fan, t2, 2, None, image) == want


class TestCaching:
    def test_cache_reuse_and_reset(self):
        clear_cache()
        t = build_family(Line(4))
        first = count_subfree_recursive(t, t)
        info = cache_info()
        assert info["entries"] > 0
        again = count_subfree_recursive(t, t)
        assert again == first
        assert cache_info()["hits"] > info["hits"]
        clear_cache()
        assert cache_info() == {"trees": 0, "entries": 0, "hits": 0, "misses": 0}
        assert count_subfree_recursive(t, t) == first
