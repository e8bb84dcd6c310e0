import random
from collections import Counter

import pytest

from gluecount.generate import (
    all_normalized_trees,
    random_coloured_pair,
    random_tree,
    recoloured,
)
from gluecount.trees import Colour, is_normalized, parse_tree


def test_one_leaf_universe_by_hand():
    got = {t.canon for t in all_normalized_trees(1)}
    assert got == {"*", "(*)", "((*))"}


def test_two_leaf_universe_by_hand():
    got = {t.canon for t in all_normalized_trees(2)}
    assert got == {
        "(*,*)",
        "((*),*)",
        "((*),(*))",
        "((*,*))",
        "(((*),*))",
        "(((*),(*)))",
    }


def test_counts_follow_doubling_rule():
    # Any normalized n-leaf tree is either one legal non-root subtree put
    # under a root, or a root over a >= 2 component forest; the latter set
    # equals the internal legal subtrees.  Hence #roots = 2 * #subtrees,
    # except n = 1 where the bare leaf is its own root shape.
    sizes = [len(all_normalized_trees(n)) for n in range(1, 7)]
    assert sizes == [3, 6, 20, 80, 340, 1570]


def test_universe_is_canonical_and_normalized():
    for n in range(1, 6):
        trees = all_normalized_trees(n)
        assert len({t.canon for t in trees}) == len(trees)
        for t in trees:
            assert t.leaf_count == n
            assert is_normalized(t)


def test_universe_closed_under_normalize_of_grown_trees():
    # Normalizing any stalk-grown variant lands back inside the universe.
    from gluecount.trees import normalize, subdivide_edge

    universe = {t.canon for t in all_normalized_trees(3)}
    for t in all_normalized_trees(3):
        for e in t.internal_edge_list:
            assert normalize(subdivide_edge(t, e)).canon in universe


def test_random_tree_deterministic_and_normalized():
    a = [random_tree(random.Random(7), n) for n in (1, 3, 5, 8)]
    b = [random_tree(random.Random(7), n) for n in (1, 3, 5, 8)]
    assert [t.canon for t in a] == [t.canon for t in b]
    for n, t in zip((1, 3, 5, 8), a):
        assert t.leaf_count == n
        assert is_normalized(t)


def test_random_tree_hits_varied_shapes():
    rng = random.Random(0)
    seen = {random_tree(rng, 3).canon for _ in range(200)}
    assert len(seen) > 10


def test_recoloured():
    t = parse_tree("((*,*),*)")
    c = recoloured(t, [Colour.base(1), Colour.base(2), Colour.base(1)])
    assert c.colour_counts == Counter(
        {Colour.base(1): 2, Colour.base(2): 1}
    )
    assert c.canon != t.canon
    with pytest.raises(ValueError):
        recoloured(t, [Colour.base(1)])


def test_random_coloured_pair_matches_multisets():
    rng = random.Random(11)
    for _ in range(20):
        t1, t2 = random_coloured_pair(rng, 5, 3)
        assert t1.leaf_count == t2.leaf_count == 5
        assert t1.colour_counts == t2.colour_counts
