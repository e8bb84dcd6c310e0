import itertools
import random

import pytest
from hypothesis import given

from _reference import colour_classes, is_normalized, leaves_below
from conftest import trees
from gluecount.generate import all_normalized_trees, random_coloured_pair
from gluecount.trees import (
    Colour,
    Fan,
    FanLine,
    Line,
    LineS,
    ParseError,
    RootedTree,
    TwoEnded,
    add_root,
    build_family,
    contract_edge,
    from_nested,
    is_sibling_set,
    multiset_key,
    normalize,
    parse_tree,
    sibling_sets,
    single_vertex,
    subdivide_edge,
)


class TestParse:
    def test_roundtrip_fixed_strings(self):
        for text in ["*", "(*)", "(*,*)", "((*),*)", "((1,2),*,3)", "(#{*:2},*)"]:
            assert parse_tree(text).canon == text

    def test_whitespace_ignored(self):
        assert parse_tree(" ( * , ( 1 ) ) ") == parse_tree("(*,(1))")

    def test_zero_is_star(self):
        assert parse_tree("0") == parse_tree("*")
        assert parse_tree("(0,0)").canon == "(*,*)"

    def test_fresh_colour_roundtrip(self):
        t = parse_tree("(#{*:1,2:3},#{*:1,2:3},*)")
        assert t.canon == "(#{*:1,2:3},#{*:1,2:3},*)"
        fresh = [c for c in t.colour_counts if c.is_fresh]
        assert len(fresh) == 1 and fresh[0].key == "{*:1,2:3}"

    def test_escaped_fresh_colour_roundtrip(self):
        # extra leading # marks stay part of the key
        t = parse_tree("(##{*:1},#{*:1})")
        assert t.canon == "(##{*:1},#{*:1})"
        keys = sorted(c.key for c in t.colour_counts if c.is_fresh)
        assert keys == ["#{*:1}", "{*:1}"]

    def test_escaped_fresh_colours_are_distinct(self):
        assert parse_tree("(##{*:1},*)") != parse_tree("(#{*:1},*)")

    @pytest.mark.parametrize(
        "bad", ["", "(", "(*", "(*,", "()", "*)", "(*))", "#x", "#{", "(,*)"]
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ParseError):
            parse_tree(bad)

    def test_error_position(self):
        with pytest.raises(ParseError) as info:
            parse_tree("(*,%)")
        assert info.value.position == 3


class TestIdentity:
    def test_child_order_is_irrelevant(self):
        assert parse_tree("(*,(*))") == parse_tree("((*),*)")
        assert hash(parse_tree("(*,(*))")) == hash(parse_tree("((*),*)"))
        assert parse_tree("((*),*)") != parse_tree("(*,*)")

    def test_from_nested_matches_parse(self):
        assert from_nested([0, [1, 1]]) == parse_tree("((1,1),*)")
        assert from_nested(Colour.base(4)) == parse_tree("4")

    @given(trees(max_leaves=6, n_colours=3))
    def test_parse_inverts_serialize(self, t):
        assert parse_tree(t.canon) == t


class TestFamilies:
    def test_lines(self):
        assert build_family(Line(1)).canon == "(*)"
        assert build_family(Line(2)).canon == "((*),*)"
        assert build_family(Line(4)).canon == "((((*),*),*),*)"

    def test_fans(self):
        assert build_family(Fan(1)).canon == "(*)"
        assert build_family(Fan(3)).canon == "(*,*,*)"

    def test_line_s_layout(self):
        t = build_family(LineS(8, {3, 5, 6}))
        assert t.canon == "((((*,*,*),*,*),*),*,*)"
        # Leaf counts below the chain edges are exactly the marks.
        sizes = sorted(len(leaves_below(t, e)) for e in t.internal_edge_list)
        assert sizes == [3, 5, 6]

    def test_line_s_extremes(self):
        assert build_family(LineS(5, range(1, 5))) == build_family(Line(5))
        assert build_family(LineS(5, ())) == build_family(Fan(5))

    def test_two_ended(self):
        t = build_family(TwoEnded(2, 1))
        assert t.canon == "(((*),*),(*))"
        assert build_family(TwoEnded(1, 3)) == build_family(TwoEnded(3, 1))

    def test_fan_line(self):
        t = build_family(FanLine(4, 3, 1))
        assert t.canon == "((((*),*),(*)),*)"
        assert build_family(FanLine(5, 2, 3)).leaf_count == 5 + 2 * (3 - 1)

    @pytest.mark.parametrize(
        "spec",
        [
            LineS(3, {0}),
            LineS(3, {3}),
            FanLine(3, 3, 1),
            FanLine(3, 1, 2),
            FanLine(4, 2, 0),
            TwoEnded(0, 1),
        ],
    )
    def test_rejects_bad_parameters(self, spec):
        with pytest.raises(ValueError):
            build_family(spec)


class TestStructure:
    def test_internal_edges_and_leafsets(self):
        t = build_family(Line(3))
        sizes = sorted(len(leaves_below(t, e)) for e in t.internal_edge_list)
        assert sizes == [1, 2]
        with pytest.raises(ValueError):
            leaves_below(t, t.root)

    def test_single_vertex(self):
        t = single_vertex()
        assert t.canon == "*"
        assert t.leaf_count == 1 and t.internal_edge_list == ()

    def test_subtree_keeps_ids(self):
        t = from_nested([[0, 0], [1], 2])
        child = next(
            c for c in t.children_of(t.root) if len(t.children_of(c)) == 2
        )
        sub = t.subtree(child)
        assert sub.leaves <= t.leaves
        assert all(sub.colour_of(v) == t.colour_of(v) for v in sub.leaves)

    def test_without_branch(self):
        t = from_nested([[0, 0], [1], 2])
        child = next(
            c for c in t.children_of(t.root) if len(t.children_of(c)) == 2
        )
        rest = t.without_branch(child)
        assert rest.leaf_count == t.leaf_count - 2
        assert rest.leaves == t.leaves - t.subtree(child).leaves
        with pytest.raises(ValueError):
            single_vertex().without_branch(0)

    def test_add_root(self):
        t = add_root([single_vertex(Colour.base(5)), build_family(Line(1))])
        assert t.canon == "((*),5)"

    def test_canonical_leaf_order_matches_canon(self):
        t = parse_tree("(3,(2,1),*)")
        tokens = [t.colour_of(v).token() for v in t.canonical_leaf_order]
        assert tokens == ["1", "2", "*", "3"]
        assert t.canon == "((1,2),*,3)"

    def test_leaf_masks_match_leaf_sets(self):
        rng = random.Random(11)
        sample = [t for n in range(1, 7) for t in all_normalized_trees(n)]
        sample += [
            t
            for _ in range(40)
            for t in random_coloured_pair(rng, rng.randint(1, 8), 3)
        ]
        for t in sample:
            idx = t.leaf_index
            assert len(t.edge_masks) == len(t.internal_edge_list)
            for e, mask in zip(t.internal_edge_list, t.edge_masks):
                assert mask == t.leaf_mask(e)
                assert mask == sum(1 << idx[v] for v in leaves_below(t, e))
            assert t.leaf_mask(t.root) == (1 << t.leaf_count) - 1
            for v in t.leaves:
                assert t.leaf_mask(v) == 1 << idx[v]

    def test_root_pieces_are_bit_ranges(self):
        # The recursive engine reads the pieces of a split as bit ranges of
        # the parent's positions instead of translating masks.
        sample = []
        for t in (t for n in range(1, 8) for t in all_normalized_trees(n)):
            children = {v: t.children_of(v) for v in t.vertices}
            sample.append(t)
            for colour in (Colour.base(3), Colour.fresh("{*:2}")):
                sample.append(
                    RootedTree(t.root, children, dict.fromkeys(t.leaves, colour))
                )
            if t.internal_edge_list:
                sample.append(subdivide_edge(t, t.internal_edge_list[0]))
        for t in sample:
            kids = t.children_of(t.root)
            masks = sorted(t.edge_masks)
            if len(kids) == 1 and not t.is_leaf(kids[0]):
                child = t.subtree(kids[0])
                full = (1 << t.leaf_count) - 1
                assert sorted([*child.edge_masks, full]) == masks
            if len(kids) < 2:
                continue
            first = next(c for c in kids if t.leaf_mask(c) & 1)
            assert t.subtree(first).canon == min(
                t.subtree(c).canon for c in kids
            )
            b = t.leaf_mask(first).bit_count()
            inside = [m for m in masks if m < 1 << b]
            outside = [m >> b for m in masks if m >= 1 << b]
            assert sorted(add_root([t.subtree(first)]).edge_masks) == inside
            assert sorted(t.without_branch(first).edge_masks) == outside

    def test_colour_groupings(self):
        t = parse_tree("((1,2),*,1)")
        classes = colour_classes(t)
        assert [c.token() for c in classes] == ["*", "1", "2"]
        assert len(classes[Colour.base(1)]) == 2
        assert t.colour_counts[Colour.base(1)] == 2
        assert multiset_key(t.colour_counts) == "{*:1,1:2,2:1}"


class TestEdits:
    def test_contract_line_to_fan(self):
        t = build_family(Line(2))
        (e,) = t.internal_edge_list
        assert contract_edge(t, e) == build_family(Fan(2))

    def test_contract_rejects_leaf_edge(self):
        t = build_family(Fan(2))
        leaf = next(iter(t.leaves))
        with pytest.raises(ValueError):
            contract_edge(t, leaf)

    def test_subdivide_internal_then_normalize_is_identity(self):
        t = parse_tree("((*,(*)),*,(*,*))")
        for e in t.internal_edge_list:
            grown = subdivide_edge(t, e)
            assert grown != t
            assert normalize(grown) == normalize(t)

    def test_subdivided_leaf_edge_becomes_a_spur(self):
        t = parse_tree("(*,*)")
        leaf = next(iter(t.leaves))
        grown = subdivide_edge(t, leaf)
        # A spur is not spliced out: it carries a new internal edge.
        assert normalize(grown) == grown == parse_tree("((*),*)")

    def test_normalize_splices_long_stalks(self):
        assert normalize(parse_tree("(((*,*)))")) == parse_tree("((*,*))")
        assert normalize(parse_tree("((((*),*)))")) == parse_tree("(((*),*))")

    def test_normalize_keeps_root_stalk_and_spurs(self):
        for text in ["((*,*))", "((*),*)", "(((*),*))"]:
            t = parse_tree(text)
            assert normalize(t) == t
            assert is_normalized(t)
        assert not is_normalized(parse_tree("(((*,*)))"))

    @given(trees(max_leaves=7, n_colours=2))
    def test_normalize_idempotent(self, t):
        once = normalize(t)
        assert is_normalized(once)
        assert normalize(once) == once
        assert once.leaf_count == t.leaf_count
        assert once.colour_counts == t.colour_counts


class TestSiblingSets:
    def test_known_count(self):
        # Internal edges a > d plus b; antichains: {a},{d},{b},{a,b},{d,b}.
        t = from_nested([[0, [0, 0]], [0, 0], 0])
        assert sum(1 for _ in sibling_sets(t)) == 5

    @given(trees(max_leaves=7))
    def test_matches_filtered_powerset(self, t):
        edges = t.internal_edge_list
        expected = {
            frozenset(s)
            for r in range(1, len(edges) + 1)
            for s in itertools.combinations(edges, r)
            if is_sibling_set(t, s)
        }
        assert set(sibling_sets(t)) == expected

    def test_is_sibling_set_rejects_chains_and_empty(self):
        t = build_family(Line(4))
        chain = t.internal_edge_list
        assert not is_sibling_set(t, ())
        assert not is_sibling_set(t, chain[:2])
        assert all(is_sibling_set(t, [e]) for e in chain)


class TestDeepTrees:
    DEPTH = 5000

    def deep(self):
        return parse_tree("(" * self.DEPTH + "*" + ")" * self.DEPTH)

    def test_parses(self):
        t = self.deep()
        assert t.leaf_count == 1
        assert len(t.internal_edge_list) == self.DEPTH - 1

    def test_normalizes_to_a_stalk(self):
        assert normalize(self.deep()).canon == "((*))"

    def test_sibling_sets(self):
        assert sum(1 for _ in sibling_sets(self.deep())) == self.DEPTH - 1

    def test_from_nested(self):
        spec = 0
        for _ in range(self.DEPTH):
            spec = [spec]
        assert from_nested(spec) == self.deep()


class TestValidation:
    def test_rejects_cycles_and_orphans(self):
        with pytest.raises(ValueError):
            RootedTree(0, {0: (1,), 1: (0,)}, {})
        with pytest.raises(ValueError):
            RootedTree(0, {0: (), 1: ()}, {0: Colour.base(0), 1: Colour.base(0)})
        with pytest.raises(ValueError):
            RootedTree(0, {0: ()}, {})
