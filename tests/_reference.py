"""Reference cut checkers for single gluings, used only by the tests.

The package counts gluings without ever looking at one gluing at a time.
The checkers here do look at one: given trees t1, t2 and a partial gluing
g (leaf id -> leaf id), they say whether g carries a cut pattern, so the
tests can hold the counters and the oracle's cut conditions against a
direct reading of the definitions.

The leafset checkers (``has_fully_internal``, ``has_one_sided``) test the
characterizations stated in :mod:`gluecount.oracle`.  The ``*_literal``
checkers re-derive the same answers by actually cutting edges of the glued
graph and inspecting components, and the test suite holds the two
implementations against each other.

Also here: the family recognizers on any tree (the package reads families
only through ``closed_forms._classify``), the leaf-id form of a leaf mask,
and small tree predicates the tests assert.
"""

import itertools
from enum import Enum
from typing import Iterator, Mapping, Optional

from gluecount.closed_forms import _as_fan_line, _as_line_marks, _as_two_ended, _shape
from gluecount.oracle import _check_limit, _colour_classes_by_index, _mask_data
from gluecount.trees import Colour, RootedTree


class SubdivergenceKind(Enum):
    FULLY_INTERNAL = "fully-internal"
    LEFT_SIDED = "left-sided"
    RIGHT_SIDED = "right-sided"


# -- trees --------------------------------------------------------------------


def leaves_below(t: RootedTree, edge: int) -> frozenset[int]:
    """All leaves in the subtree hanging below ``edge``."""
    if edge not in t.parent:
        raise ValueError(f"no edge with child vertex {edge}")
    mask = t.leaf_mask(edge)
    first = (mask & -mask).bit_length() - 1
    return frozenset(t.canonical_leaf_order[first : first + mask.bit_count()])


def is_normalized(t: RootedTree) -> bool:
    return all(
        not (len(t.children_of(v)) == 1 and not t.is_leaf(t.children_of(v)[0]))
        for v in t.vertices
        if v != t.root
    )


def colour_classes(t: RootedTree) -> dict[Colour, tuple[int, ...]]:
    """Leaves grouped by colour, each class in canonical leaf order."""
    out: dict[Colour, list[int]] = {}
    for v in t.canonical_leaf_order:
        out.setdefault(t.colour_of(v), []).append(v)
    return {c: tuple(vs) for c, vs in sorted(out.items())}


# -- family recognizers on any tree --------------------------------------------


def as_line_marks(t: RootedTree) -> Optional[frozenset]:
    """Mark set when ``t`` is a caterpillar (chain of internal vertices,
    leaves attached along it), else None."""
    shape = _shape(t)
    return None if shape is None else _as_line_marks(shape)


def as_two_ended(t: RootedTree) -> Optional[tuple[int, int]]:
    """Arm lengths (k, l) with k >= l when ``t`` is a two-chain tree."""
    shape = _shape(t)
    return None if shape is None else _as_two_ended(shape)


def as_fan_line(t: RootedTree) -> Optional[tuple[int, int, int]]:
    """Parameters (k, i, j) when ``t`` is a chain with a side fan."""
    shape = _shape(t)
    return None if shape is None else _as_fan_line(shape)


# -- single-gluing checks (characterization form) ------------------------------


def _as_index_map(t1: RootedTree, t2: RootedTree, g: Mapping[int, int]):
    if not set(g) <= t1.leaves or not set(g.values()) <= t2.leaves:
        raise ValueError("gluing must map leaves of t1 to leaves of t2")
    if len(set(g.values())) != len(g):
        raise ValueError("gluing must be injective")
    idx1, idx2 = t1.leaf_index, t2.leaf_index
    return {idx1[a]: idx2[b] for a, b in g.items()}


def has_fully_internal(t1: RootedTree, t2: RootedTree, g: Mapping[int, int]) -> bool:
    """Whether the partial gluing ``g`` (leaf id -> leaf id) admits a fully
    internal subdivergence, via the leafset characterization."""
    gi = _as_index_map(t1, t2, g)
    edges1, masks1, _ = _mask_data(t1)
    _, _, maskset2 = _mask_data(t2)
    dom_mask = 0
    for i in gi:
        dom_mask |= 1 << i
    for tup, mk in zip(edges1, masks1):
        if mk & ~dom_mask:
            continue
        img = 0
        for i in tup:
            img |= 1 << gi[i]
        if img in maskset2:
            return True
    return False


def has_one_sided(
    t1: RootedTree, t2: RootedTree, g: Mapping[int, int], side: SubdivergenceKind
) -> bool:
    """Whether ``g`` admits a one-sided subdivergence on the given side,
    via the bridge characterization."""
    if side is SubdivergenceKind.FULLY_INTERNAL:
        raise ValueError("side must be LEFT_SIDED or RIGHT_SIDED")
    gi = _as_index_map(t1, t2, g)
    if side is SubdivergenceKind.RIGHT_SIDED:
        if len(gi) != t2.leaf_count:
            return False
        dom_mask = 0
        for i in gi:
            dom_mask |= 1 << i
        return dom_mask in _mask_data(t1)[2]
    if len(gi) != t1.leaf_count:
        return False
    img_mask = 0
    for i in gi.values():
        img_mask |= 1 << i
    return img_mask in _mask_data(t2)[2]


# -- single-gluing checks (literal graph surgery) ------------------------------


def _glued_adjacency(t1: RootedTree, t2: RootedTree, g: Mapping[int, int]):
    """Adjacency of the glued graph.  Nodes are ('a', v) / ('b', v); a glued
    leaf of t2 is folded onto its partner so each glued pair is one node."""
    fold = {b: ("a", a) for a, b in g.items()}

    def node2(v: int):
        return fold.get(v, ("b", v))

    adj: dict = {}

    def link(x, y):
        adj.setdefault(x, []).append(y)
        adj.setdefault(y, []).append(x)

    for v in t1.vertices:
        adj.setdefault(("a", v), [])
        for c in t1.children_of(v):
            link(("a", v), ("a", c))
    for v in t2.vertices:
        adj.setdefault(node2(v), [])
        for c in t2.children_of(v):
            link(node2(v), node2(c))
    return adj


def _components(adj, banned: frozenset):
    seen = set()
    out = []
    for start in adj:
        if start in seen:
            continue
        comp = {start}
        seen.add(start)
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y in comp or frozenset((x, y)) in banned:
                    continue
                comp.add(y)
                seen.add(y)
                stack.append(y)
        out.append(comp)
    return out


def _externals(t1: RootedTree, t2: RootedTree, g: Mapping[int, int]):
    """Root nodes and unglued-leaf nodes of the glued graph."""
    fold = {b: ("a", a) for a, b in g.items()}
    root2 = fold.get(t2.root, ("b", t2.root))
    roots = {("a", t1.root), root2}
    unpaired = {("a", v) for v in t1.leaves - set(g)}
    unpaired |= {fold.get(v, ("b", v)) for v in t2.leaves - set(g.values())}
    return roots, unpaired


def _tree_edge(tag: str, t: RootedTree, e: int):
    return frozenset(((tag, t.parent[e]), (tag, e)))


def has_fully_internal_literal(
    t1: RootedTree, t2: RootedTree, g: Mapping[int, int]
) -> bool:
    """Fully internal check by removing one internal edge per tree and
    looking for a piece, touching both removed edges, that has no root and
    no unglued leaf."""
    _as_index_map(t1, t2, g)
    adj = _glued_adjacency(t1, t2, g)
    roots, unpaired = _externals(t1, t2, g)
    blocked = roots | unpaired
    for e1 in t1.internal_edge_list:
        cut1 = _tree_edge("a", t1, e1)
        for e2 in t2.internal_edge_list:
            cut2 = _tree_edge("b", t2, e2)
            for comp in _components(adj, frozenset((cut1, cut2))):
                if comp & blocked:
                    continue
                if not (comp & cut1 and comp & cut2):
                    continue
                return True
    return False


def has_one_sided_literal(
    t1: RootedTree, t2: RootedTree, g: Mapping[int, int], side: SubdivergenceKind
) -> bool:
    """One-sided check by removing a single internal edge: the piece on its
    child side must hold exactly the opposite root and no unglued leaf."""
    if side is SubdivergenceKind.FULLY_INTERNAL:
        raise ValueError("side must be LEFT_SIDED or RIGHT_SIDED")
    _as_index_map(t1, t2, g)
    adj = _glued_adjacency(t1, t2, g)
    roots, unpaired = _externals(t1, t2, g)
    fold = {b: ("a", a) for a, b in g.items()}
    if side is SubdivergenceKind.RIGHT_SIDED:
        own_root = ("a", t1.root)
        other_root = fold.get(t2.root, ("b", t2.root))
        probes = [("a", t1, e, ("a", e)) for e in t1.internal_edge_list]
    else:
        own_root = fold.get(t2.root, ("b", t2.root))
        other_root = ("a", t1.root)
        probes = [("b", t2, e, fold.get(e, ("b", e))) for e in t2.internal_edge_list]
    for tag, t, e, child_node in probes:
        banned = frozenset((_tree_edge(tag, t, e),))
        comp = {child_node}
        stack = [child_node]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y in comp or frozenset((x, y)) in banned:
                    continue
                comp.add(y)
                stack.append(y)
        if own_root in comp:
            continue
        if other_root in comp and not comp & unpaired:
            return True
    return False


# -- full-gluing iteration and classification ----------------------------------


def iter_full_gluings(t1: RootedTree, t2: RootedTree) -> Iterator[dict]:
    """All colour-preserving full gluings, as leaf-id maps."""
    _check_limit(t1, t2)
    if t1.colour_counts != t2.colour_counts:
        return
    order1 = {i: v for v, i in t1.leaf_index.items()}
    order2 = {i: v for v, i in t2.leaf_index.items()}
    classes1 = _colour_classes_by_index(t1)
    classes2 = _colour_classes_by_index(t2)
    colours = list(classes1)
    for choice in itertools.product(
        *(itertools.permutations(classes2[c]) for c in colours)
    ):
        g = {}
        for c, perm in zip(colours, choice):
            for a, b in zip(classes1[c], perm):
                g[order1[a]] = order2[b]
        yield g


def boundary_antichain_pair(
    t1: RootedTree, t2: RootedTree, g: Mapping[int, int]
) -> Optional[tuple[frozenset, frozenset]]:
    """For a full gluing, the outermost matched internal edges on each side.

    An edge e1 is *matched* when g(leaves_below(e1)) is leaves_below(e2) for
    some internal e2; each side's maximal matched edges form an antichain,
    and for normalized trees the match is a bijection between them.  Returns
    (edges of t1, edges of t2) or None when the gluing has no fully internal
    subdivergence.  This classifier assigns every subdivergent gluing to
    exactly one sibling-set pair, which is what makes summing over pairs
    count each gluing once.
    """
    gi = {a: g[a] for a in g}
    if set(gi) != t1.leaves or set(gi.values()) != t2.leaves:
        raise ValueError("classifier needs a full gluing")
    idx2 = t2.leaf_index
    mask_to_edge2 = dict(zip(t2.edge_masks, t2.internal_edge_list))
    matched: dict[int, int] = {}
    for e1 in t1.internal_edge_list:
        img = 0
        for v in leaves_below(t1, e1):
            img |= 1 << idx2[gi[v]]
        if img in mask_to_edge2:
            matched[e1] = mask_to_edge2[img]
    if not matched:
        return None
    tops = []
    for e1 in matched:
        v = t1.parent[e1]
        while v != t1.root and v not in matched:
            v = t1.parent[v]
        if v == t1.root:
            tops.append(e1)
    return frozenset(tops), frozenset(matched[e1] for e1 in tops)
