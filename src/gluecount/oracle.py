"""Brute-force ground truth for gluing counts.

A *gluing* of trees t1 and t2 pairs up leaves across the trees: a partial
gluing is any injective map from some leaves of t1 to leaves of t2, and a
full gluing is a bijection between the whole leaf sets.  Counting functions
here enumerate gluings directly and test each one for the excluded cut
patterns, so they are slow and size-capped, but they are the reference every
faster algorithm in this package is validated against.

Cut patterns on a glued pair, for a partial gluing g with domain D and
image I:

* fully internal: internal edges e1 of t1 and e2 of t2 with
  leaves_below(e1) contained in D and g(leaves_below(e1)) = leaves_below(e2);
  equivalently, cutting both edges isolates a piece with no root and no
  unglued leaf.
* right sided: I = L(t2) and some internal edge e1 of t1 has
  leaves_below(e1) = D; the piece below e1 swallows all of t2 including its
  root, and nothing unglued.
* left sided: the mirror image, D = L(t1) and some internal edge e2 of t2
  has leaves_below(e2) = I.

The leafset formulations are what the fast algorithms reason with; the
``*_literal`` checkers below re-derive the same answers by actually cutting
edges of the glued graph and inspecting components, and the test suite holds
the two implementations against each other.

Full gluings leave no leaf unglued on either side, so only the fully
internal pattern matters for the headline count ``count_subfree_brute``; a
one-sided pattern at full size needs a root-stalk edge whose cut piece
contains the opposite root, and such a piece is never counted as a
subdivergence of a gluing of two rooted trees.
"""

import itertools
import os
from enum import Enum
from functools import lru_cache
from math import factorial
from typing import Iterator, Mapping, Optional

from .trees import RootedTree


class SubdivergenceKind(Enum):
    FULLY_INTERNAL = "fully-internal"
    LEFT_SIDED = "left-sided"
    RIGHT_SIDED = "right-sided"


class PartialMode(Enum):
    """Which cut patterns a partial count excludes."""

    NO_SUBDIVERGENCE = "no-subdivergence"  # fully internal, left, and right
    NO_INTERNAL_OR_RIGHT = "no-internal-or-right"


class BruteLimitError(RuntimeError):
    """A brute-force call exceeded the configured leaf cap."""


_DEFAULT_LIMIT = 9


def brute_leaf_limit() -> int:
    """Per-tree leaf cap for brute-force enumeration.

    Overridable through the GLUECOUNT_BRUTE_LIMIT environment variable;
    the default keeps every call around a second.
    """
    raw = os.environ.get("GLUECOUNT_BRUTE_LIMIT")
    if raw is None:
        return _DEFAULT_LIMIT
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"GLUECOUNT_BRUTE_LIMIT must be an integer, got {raw!r}")


def _check_limit(*ts: RootedTree) -> None:
    limit = brute_leaf_limit()
    for t in ts:
        if t.leaf_count > limit:
            raise BruteLimitError(
                f"tree has {t.leaf_count} leaves, over the brute-force cap "
                f"of {limit} (set GLUECOUNT_BRUTE_LIMIT to raise it)"
            )


@lru_cache(maxsize=None)
def _mask_data(t: RootedTree):
    """Internal-edge leaf sets in canonical-index space.

    Returns (edge index tuples sorted by size, parallel masks, mask set).
    Canonical indexing makes this depend only on the isomorphism class.
    """
    masks = sorted(t.edge_masks, key=int.bit_count)
    edges = tuple(
        tuple(i for i in range(t.leaf_count) if m >> i & 1) for m in masks
    )
    return edges, tuple(masks), frozenset(masks)


@lru_cache(maxsize=None)
def _colour_classes_by_index(t: RootedTree):
    """Colour -> tuple of canonical leaf indices, keyed consistently for
    cross-tree alignment."""
    idx = t.leaf_index
    out: dict = {}
    for v in t.canonical_leaf_order:
        out.setdefault(t.colour_of(v), []).append(idx[v])
    return {c: tuple(vs) for c, vs in out.items()}


def _preserving_total(t1: RootedTree, t2: RootedTree) -> int:
    if t1.colour_counts != t2.colour_counts:
        return 0
    total = 1
    for m in t1.colour_counts.values():
        total *= factorial(m)
    return total


def count_subfree_brute(t1: RootedTree, t2: RootedTree) -> int:
    """Number of colour-preserving full gluings with no fully internal
    subdivergence, by enumerating every gluing."""
    _check_limit(t1, t2)
    if t1.colour_counts != t2.colour_counts:
        return 0
    edges1, _, _ = _mask_data(t1)
    _, _, maskset2 = _mask_data(t2)
    if not edges1 or not maskset2:
        # One side has no internal edge, so no cut pair can exist.
        return _preserving_total(t1, t2)
    classes1 = _colour_classes_by_index(t1)
    classes2 = _colour_classes_by_index(t2)
    colours = list(classes1)
    source = [classes1[c] for c in colours]
    bit = [1 << j for j in range(t2.leaf_count)]
    m = [0] * t1.leaf_count
    count = 0
    for choice in itertools.product(
        *(itertools.permutations(classes2[c]) for c in colours)
    ):
        for idxs, perm in zip(source, choice):
            for a, b in zip(idxs, perm):
                m[a] = b
        for tup in edges1:
            img = 0
            for i in tup:
                img |= bit[m[i]]
            if img in maskset2:
                break
        else:
            count += 1
    return count


def count_partial_brute(
    t1: RootedTree,
    t2: RootedTree,
    k: int,
    s1=None,
    s2=None,
    mode: PartialMode = PartialMode.NO_SUBDIVERGENCE,
) -> int:
    """Size-k colour-preserving partial gluings with domain inside ``s1`` and
    image inside ``s2`` that pass the mode's exclusions, by enumeration.

    ``s1`` and ``s2`` are leaf-id collections, defaulting to all leaves.
    """
    _check_limit(t1, t2)
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    set1 = t1.leaves if s1 is None else frozenset(s1)
    set2 = t2.leaves if s2 is None else frozenset(s2)
    if not set1 <= t1.leaves or not set2 <= t2.leaves:
        raise ValueError("subsets must consist of leaves of their trees")
    if k > len(set1) or k > len(set2):
        return 0

    idx1, idx2 = t1.leaf_index, t2.leaf_index
    edges1, masks1, maskset1 = _mask_data(t1)
    _, _, maskset2 = _mask_data(t2)
    all1 = (1 << t1.leaf_count) - 1
    all2 = (1 << t2.leaf_count) - 1
    bit2 = [1 << j for j in range(t2.leaf_count)]
    check_left = mode is PartialMode.NO_SUBDIVERGENCE

    by_colour2: dict = {}
    for v in set2:
        by_colour2.setdefault(t2.colour_of(v), []).append(idx2[v])

    count = 0
    m = [0] * t1.leaf_count
    for dom in itertools.combinations(sorted(set1), k):
        grouped: dict = {}
        for v in dom:
            grouped.setdefault(t1.colour_of(v), []).append(idx1[v])
        if any(
            c not in by_colour2 or len(vs) > len(by_colour2[c])
            for c, vs in grouped.items()
        ):
            continue
        dom_mask = 0
        for c in grouped:
            for i in grouped[c]:
                dom_mask |= 1 << i
        inner = ~dom_mask
        live = [tup for tup, mk in zip(edges1, masks1) if not mk & inner]
        for choice in itertools.product(
            *(itertools.permutations(by_colour2[c], len(grouped[c])) for c in grouped)
        ):
            img_mask = 0
            for idxs, perm in zip(grouped.values(), choice):
                for a, b in zip(idxs, perm):
                    m[a] = b
                    img_mask |= bit2[b]
            for tup in live:
                img = 0
                for i in tup:
                    img |= bit2[m[i]]
                if img in maskset2:
                    break
            else:
                if img_mask == all2 and dom_mask in maskset1:
                    continue
                if check_left and dom_mask == all1 and img_mask in maskset2:
                    continue
                count += 1
    return count


# -- single-gluing checks (characterization form) ----------------------------


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


# -- single-gluing checks (literal graph surgery) -----------------------------


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


# -- full-gluing iteration and classification --------------------------------


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
        for v in t1.leaves_below(e1):
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
