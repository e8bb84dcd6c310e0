"""Tests for the cut-and-subtract counter on coloured trees."""

import random
import time
from collections import Counter
from math import factorial

import pytest

from gluecount import cut_count
from gluecount.cut_count import (
    CutDecomposition,
    colour_preserving_count,
    count_subfree_cutpre,
    count_with_subdivergences,
    cut_and_relabel,
)
from gluecount.generate import all_normalized_trees, random_coloured_pair, random_tree
from gluecount.oracle import (
    boundary_antichain_pair,
    count_subfree_brute,
    has_fully_internal,
    iter_full_gluings,
)
from gluecount.trees import (
    Colour,
    is_normalized,
    multiset_key,
    parse_tree,
    sibling_sets,
)


def counts(*numbers) -> Counter:
    return Counter(Colour.base(n) for n in numbers)


class TestColourPreserving:
    def test_worked_multiset(self):
        c = counts(1, 1, 1, 2, 2, 3)
        assert colour_preserving_count(c, c) == 12

    def test_mismatch(self):
        assert colour_preserving_count(counts(1, 2), counts(1, 3)) == 0

    def test_single_class(self):
        for n in range(7):
            c = counts(*([5] * n))
            assert colour_preserving_count(c, c) == factorial(n)

    def test_zero_multiplicities_ignored(self):
        padded = counts(1, 1, 2)
        padded[Colour.base(9)] = 0
        assert colour_preserving_count(padded, counts(1, 1, 2)) == 2


class TestCutAndRelabel:
    def test_single_cut_of_two_leaf_line(self):
        t = parse_tree("((*),*)")
        (edge,) = t.internal_edge_list
        d = cut_and_relabel(t, {edge})
        assert d.trunk.canon == "(#{*:1},*)"
        assert [c.canon for c in d.components] == ["(*)"]

    def test_equal_components_share_a_fresh_colour(self):
        t = parse_tree("((*,*),(*,*))")
        d = cut_and_relabel(t, set(t.internal_edge_list))
        assert d.trunk.canon == "(#{*:2},#{*:2})"
        assert len(d.components) == 2

    def test_component_count_matches_cut_size(self):
        t = parse_tree("((*,*),(*,*),*)")
        for cut in sibling_sets(t):
            d = cut_and_relabel(t, cut)
            assert len(d.components) == len(cut)

    def test_expansion_identity(self):
        rng = random.Random(4)
        for _ in range(30):
            t = random_tree(rng, rng.randint(2, 7))
            for cut in sibling_sets(t):
                d = cut_and_relabel(t, cut)
                expanded = Counter(d.trunk.colour_counts)
                for comp in d.components:
                    stump = Colour.fresh(multiset_key(comp.colour_counts))
                    assert expanded[stump] > 0
                    expanded[stump] -= 1
                    expanded += comp.colour_counts
                assert +expanded == +t.colour_counts

    def test_trunk_stays_normalized(self):
        rng = random.Random(5)
        for _ in range(30):
            t = random_tree(rng, rng.randint(2, 7))
            for cut in sibling_sets(t):
                assert is_normalized(cut_and_relabel(t, cut).trunk)

    def test_invalid_sibling_sets_raise(self):
        t = parse_tree("(((*),*),*)")
        outer, inner = sorted(t.internal_edge_list)
        with pytest.raises(ValueError):
            cut_and_relabel(t, set())
        with pytest.raises(ValueError):
            cut_and_relabel(t, {outer, inner})  # nested, not an antichain
        leaf = min(t.leaves)
        with pytest.raises(ValueError):
            cut_and_relabel(t, {leaf})

    def test_stump_colours_escape_existing_fresh_leaves(self):
        # cutting a tree that already carries a fresh leaf must not mint
        # the same colour again
        t = parse_tree("((#{*:1},*),*)")
        (edge,) = t.internal_edge_list
        d = cut_and_relabel(t, {edge})
        assert d.trunk.canon == "(##{*:1,#{*:1}:1},*)"
        assert parse_tree(d.trunk.canon) == d.trunk

    def test_double_cut_distinguishes_stump_generations(self):
        t = parse_tree("(((*),*),*)")
        inner = min(
            t.internal_edge_list, key=lambda v: len(t.leaves_below(v))
        )
        first = cut_and_relabel(t, {inner})
        (again,) = first.trunk.internal_edge_list
        second = cut_and_relabel(first.trunk, {again})
        assert second.trunk.canon == "(##{*:1,#{*:1}:1},*)"
        stumps = [c for c in second.trunk.colour_counts if c.is_fresh]
        assert len(stumps) == 1
        assert stumps[0].key.startswith("#")


class TestSubdivergenceCount:
    def test_fans_have_none(self):
        for k in range(2, 6):
            fan = parse_tree("(" + ",".join("*" * k) + ")")
            assert count_with_subdivergences(fan, fan) == 0

    def test_two_leaf_line_self(self):
        t = parse_tree("((*),*)")
        assert count_with_subdivergences(t, t) == 1

    def test_double_spur_self(self):
        t = parse_tree("((*),(*))")
        assert count_with_subdivergences(t, t) == 2
        assert count_subfree_cutpre(t, t) == 0

    def test_complements_colour_preserving_total(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(2, 6)
            t1, t2 = random_coloured_pair(rng, n, rng.randint(1, 3))
            total = colour_preserving_count(t1.colour_counts, t2.colour_counts)
            assert (
                count_with_subdivergences(t1, t2)
                + count_subfree_cutpre(t1, t2)
                == total
            )


class TestHeadlineCount:
    def test_four_leaf_line_self(self):
        t = parse_tree("((((*),*),*),*)")
        assert count_subfree_cutpre(t, t) == 13

    def test_mismatched_colour_multisets(self):
        assert count_subfree_cutpre(parse_tree("(1,2)"), parse_tree("(1,3)")) == 0

    def test_lone_colour_preserving_gluing_is_subdivergent(self):
        t = parse_tree("((1,2),3)")
        assert colour_preserving_count(t.colour_counts, t.colour_counts) == 1
        assert count_subfree_cutpre(t, t) == 0

    def test_stalked_pair(self):
        t = parse_tree("((*,*))")
        assert count_subfree_cutpre(t, t) == 0

    def test_normalizes_inputs(self):
        long = parse_tree("((((*)),*))")  # splices to ((( *),*)) shape
        short = parse_tree("(((*),*))")
        assert count_subfree_cutpre(long, short) == count_subfree_brute(
            short, short
        )

    def test_exhaustive_small_pairs_match_brute(self):
        univ = [t for n in range(1, 5) for t in all_normalized_trees(n)]
        for t1 in univ:
            for t2 in univ:
                assert count_subfree_cutpre(t1, t2) == count_subfree_brute(
                    t1, t2
                ), (t1.canon, t2.canon)

    def test_seeded_coloured_pairs_match_brute(self):
        rng = random.Random(8)
        for _ in range(60):
            n = rng.randint(2, 6)
            t1, t2 = random_coloured_pair(rng, n, rng.randint(1, 3))
            assert count_subfree_cutpre(t1, t2) == count_subfree_brute(t1, t2)

    def test_seeded_seven_leaf_pairs_match_brute(self):
        rng = random.Random(9)
        for _ in range(6):
            t1, t2 = random_tree(rng, 7), random_tree(rng, 7)
            assert count_subfree_cutpre(t1, t2) == count_subfree_brute(t1, t2)

    def test_symmetry(self):
        rng = random.Random(10)
        for _ in range(30):
            n = rng.randint(2, 6)
            t1, t2 = random_coloured_pair(rng, n, rng.randint(1, 3))
            assert count_subfree_cutpre(t1, t2) == count_subfree_cutpre(t2, t1)

    def test_spur_laden_pair_is_fast(self):
        t = parse_tree("((((((*),(*)),(*)),(*)),(*)),(*))")
        start = time.monotonic()
        assert count_subfree_cutpre(t, t) == 0
        assert time.monotonic() - start < 1.0
        assert count_subfree_brute(t, t) == 0

    def test_numbered_spurs_force_a_cut(self):
        # Two leaves of colour 1 hang alone on each side, more than the
        # class of three can keep apart: zero without any pair work.
        cut_count.clear_cache()
        t = parse_tree("((1),(1),1)")
        assert count_subfree_cutpre(t, t) == 0
        assert cut_count.cache_info()["pairs"] == 0
        assert count_subfree_brute(t, t) == 0


class TestPartitionProperty:
    """Each subdivergent gluing lands in exactly one sibling-set pair: the
    per-bucket tallies from classifying every gluing equal the per-pair
    products, and their total equals the subtraction term."""

    @pytest.mark.parametrize(
        "s1,s2",
        [
            ("((((*),*),*),*)", "((((*),*),*),*)"),
            ("((*,*),(*,*))", "((*,*),(*,*))"),
            ("((*),(*))", "((*),(*))"),
            ("((1,2),3)", "((1,2),3)"),
            ("((*,*),*)", "(((*),*),*)"),
        ],
    )
    def test_bucket_tallies_match_pair_terms(self, s1, s2):
        t1, t2 = parse_tree(s1), parse_tree(s2)
        buckets = Counter()
        for g in iter_full_gluings(t1, t2):
            pair = boundary_antichain_pair(t1, t2, g)
            assert (pair is None) == (not has_fully_internal(t1, t2, g))
            if pair is not None:
                buckets[pair] += 1
        expected = Counter()
        for cut1 in sibling_sets(t1):
            d1 = cut_and_relabel(t1, cut1)
            weight = 1
            for comp in d1.components:
                weight *= colour_preserving_count(
                    comp.colour_counts, comp.colour_counts
                )
            for cut2 in sibling_sets(t2):
                d2 = cut_and_relabel(t2, cut2)
                term = weight * count_subfree_cutpre(d1.trunk, d2.trunk)
                if term:
                    expected[(frozenset(cut1), frozenset(cut2))] = term
        assert buckets == expected
        assert sum(buckets.values()) == count_with_subdivergences(t1, t2)


class TestDecompositionReuse:
    def test_list_is_cached_and_complete(self):
        # The trimming rows of a tree are built once and account for
        # every sibling set, one multiplicity each.
        cut_count.clear_cache()
        t = parse_tree("(((*),*),*)")
        tid = cut_count._intern(t)
        rows = cut_count._rows_of(tid)
        assert rows is cut_count._rows_of(tid)
        assert sum(m for *_, m in rows) == sum(1 for _ in sibling_sets(t))
        d = cut_and_relabel(t, next(sibling_sets(t)))
        assert isinstance(d, CutDecomposition)

    def test_shared_left_tree_matches_fresh_runs(self):
        t1 = parse_tree("((*,*),*)")
        t2 = parse_tree("(((*),*),*)")
        t3 = parse_tree("(*,*,*)")
        warm = (count_subfree_cutpre(t1, t2), count_subfree_cutpre(t1, t3))
        cut_count.clear_cache()
        assert count_subfree_cutpre(t1, t2) == warm[0]
        cut_count.clear_cache()
        assert count_subfree_cutpre(t1, t3) == warm[1]


class TestCaches:
    def test_info_and_clear(self):
        cut_count.clear_cache()
        t = parse_tree("((((*),*),*),*)")
        count_subfree_cutpre(t, t)
        info = cut_count.cache_info()
        assert info["trees"] > 0 and info["pairs"] > 0
        cut_count.clear_cache()
        assert cut_count.cache_info() == {"trees": 0, "pairs": 0}
