"""Exact gluing counts by recursive decomposition of the left tree.

The engine answers one question: how many partial gluings of a given size,
drawn from prescribed leaf subsets, avoid the excluded cut patterns.  It
peels the left tree apart one branch at a time:

* a fan (every root child a leaf) has no internal edges, so any injection
  of the right size works;
* a tree whose root carries a single internal child shifts the question to
  that child, with the stalk edge accounted for as a size-of-everything cut;
* otherwise one branch is split off, and the count is a convolution over
  how many glued leaves, and which image leaves, the branch consumes.

The right tree is never decomposed; only the set of its subtree leaf masks
matters.  Everything is memoized across calls on interned canonical trees,
with leaf subsets as bitmasks over canonical leaf positions, so sweeps over
many tree pairs share work.  This engine handles a single leaf colour only;
mixed-colour inputs belong to :mod:`gluecount.cut_count`, which reduces them
to monochrome pieces.
"""

import itertools
from dataclasses import dataclass
from math import comb, factorial
from typing import Iterable, Optional

from .oracle import PartialMode
from .trees import RootedTree, normalize

_FAN, _STALK, _SPLIT = "fan", "stalk", "split"


@dataclass
class _View:
    """Decomposition data for one interned tree."""

    leaf_count: int
    full_mask: int
    lbs: frozenset  # leaf masks below internal edges, canonical positions
    kind: str
    # stalk: the single child; split: the branch with the smallest
    # serialization (wrapped under a fresh root) and the remainder.
    part1_tid: int = -1
    part2_tid: int = -1
    map1: tuple = ()
    map2: tuple = ()
    branch_mask: int = 0


_trees: list[RootedTree] = []
_tids: dict[str, int] = {}
_views: dict[int, _View] = {}
_memo: dict[tuple, int] = {}
_hits = 0
_misses = 0


def _intern(t: RootedTree) -> int:
    tid = _tids.get(t.canon)
    if tid is None:
        tid = len(_trees)
        _tids[t.canon] = tid
        _trees.append(t)
    return tid


def _mask_of(t: RootedTree, leaves: Iterable[int]) -> int:
    index = t.leaf_index
    return sum(1 << index[v] for v in leaves)


def _position_map(t: RootedTree, piece: RootedTree) -> tuple:
    """Canonical position in ``t`` -> canonical position in ``piece`` for
    the leaves the piece keeps (-1 elsewhere); both share vertex ids."""
    piece_index = piece.leaf_index
    return tuple(
        piece_index.get(v, -1) for v in t.canonical_leaf_order
    )


def _with_stalk_root(t: RootedTree) -> RootedTree:
    """A fresh root holding ``t`` as its only branch, vertex ids kept."""
    new_root = max(t.vertices) + 1
    children = {v: t.children_of(v) for v in t.vertices}
    children[new_root] = (t.root,)
    return RootedTree(
        new_root, children, {v: t.colour_of(v) for v in t.leaves}
    )


def _build_view(tid: int) -> _View:
    t = _trees[tid]
    common = dict(
        leaf_count=t.leaf_count,
        full_mask=(1 << t.leaf_count) - 1,
        lbs=frozenset(t.edge_masks),
    )
    kids = t.children_of(t.root)
    internal = [c for c in kids if not t.is_leaf(c)]
    if not internal:
        return _View(kind=_FAN, **common)
    if len(kids) == 1:
        child = t.subtree(kids[0])
        return _View(
            kind=_STALK,
            part1_tid=_intern(child),
            map1=_position_map(t, child),
            **common,
        )
    branch = min(
        (t.subtree(c) for c in kids), key=lambda s: s.canon
    )
    rest = t.without_branch(branch.root)
    wrapped = _with_stalk_root(branch)
    return _View(
        kind=_SPLIT,
        part1_tid=_intern(wrapped),
        part2_tid=_intern(rest),
        map1=_position_map(t, wrapped),
        map2=_position_map(t, rest),
        branch_mask=t.leaf_mask(branch.root),
        **common,
    )


def _view(tid: int) -> _View:
    v = _views.get(tid)
    if v is None:
        v = _views[tid] = _build_view(tid)
    return v


def _translate(mask: int, table: tuple) -> int:
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << table[low.bit_length() - 1]
        mask ^= low
    return out


def _subsets(mask: int, size: int) -> Iterable[int]:
    positions = []
    while mask:
        low = mask & -mask
        positions.append(low)
        mask ^= low
    for combo in itertools.combinations(positions, size):
        out = 0
        for bit in combo:
            out |= bit
        yield out


def _count(tid1: int, tid2: int, k: int, m1: int, m2: int, strict: bool) -> int:
    global _hits, _misses
    if k > m1.bit_count() or k > m2.bit_count():
        return 0
    if k == 0:
        return 1
    v1 = _view(tid1)
    # Below full size the strict and relaxed counts coincide: a cut that
    # swallows one whole tree needs every left leaf glued.
    strict = strict and k == v1.leaf_count
    key = (tid1, tid2, k, m1, m2, strict)
    cached = _memo.get(key)
    if cached is not None:
        _hits += 1
        return cached
    _misses += 1
    if strict:
        lbs2 = _view(tid2).lbs
        total = sum(
            _count(tid1, tid2, k, m1, image, False)
            for image in _subsets(m2, k)
            if image not in lbs2
        )
    elif v1.kind == _FAN:
        total = comb(m1.bit_count(), k) * comb(m2.bit_count(), k) * factorial(k)
    elif v1.kind == _STALK:
        if k == v1.leaf_count == _view(tid2).leaf_count:
            total = 0  # the stalk cut swallows all of the right tree
        else:
            total = _count(
                v1.part1_tid, tid2, k, _translate(m1, v1.map1), m2, True
            )
    else:
        m1a = m1 & v1.branch_mask
        m1b = m1 & ~v1.branch_mask
        t1a = _translate(m1a, v1.map1)
        t1b = _translate(m1b, v1.map2)
        total = 0
        lo = max(0, k - m1b.bit_count())
        hi = min(k, m1a.bit_count())
        for j in range(lo, hi + 1):
            for image in _subsets(m2, j):
                first = _count(v1.part1_tid, tid2, j, t1a, image, False)
                if first:
                    total += first * _count(
                        v1.part2_tid, tid2, k - j, t1b, m2 & ~image, False
                    )
    _memo[key] = total
    return total


def _monochrome_colour(t: RootedTree):
    colours = set(t.colour_counts)
    if len(colours) != 1:
        raise ValueError(
            "recursive counting handles a single leaf colour; "
            "use the cut-based counter for mixed colours"
        )
    return colours.pop()


def partial_gluing_count(
    t1: RootedTree,
    t2: RootedTree,
    k: int,
    s1: Optional[Iterable[int]] = None,
    s2: Optional[Iterable[int]] = None,
    mode: PartialMode = PartialMode.NO_SUBDIVERGENCE,
) -> int:
    """Partial gluings of size ``k`` with domain inside ``s1`` (leaf ids of
    t1, default all) and image inside ``s2``, avoiding the cut patterns the
    mode excludes.  Matches ``count_partial_brute`` on monochrome inputs."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    c1, c2 = _monochrome_colour(t1), _monochrome_colour(t2)
    s1 = frozenset(s1) if s1 is not None else frozenset(t1.leaves)
    s2 = frozenset(s2) if s2 is not None else frozenset(t2.leaves)
    for s, t, name in ((s1, t1, "s1"), (s2, t2, "s2")):
        if not s <= set(t.leaves):
            raise ValueError(f"{name} contains non-leaf vertices")
    if c1 != c2:
        return 1 if k == 0 else 0
    return _count(
        _intern(t1),
        _intern(t2),
        k,
        _mask_of(t1, s1),
        _mask_of(t2, s2),
        mode is PartialMode.NO_SUBDIVERGENCE,
    )


def _stripped(t: RootedTree) -> tuple[RootedTree, bool]:
    kids = t.children_of(t.root)
    if len(kids) == 1 and not t.is_leaf(kids[0]):
        return t.subtree(kids[0]), True
    return t, False


def count_subfree_recursive(t1: RootedTree, t2: RootedTree) -> int:
    """Full gluings of t1 with t2 avoiding fully internal cuts.

    Agrees with ``count_subfree_brute`` everywhere the latter can run, with
    no size cap.  Only monochrome trees are accepted.
    """
    c1, c2 = _monochrome_colour(t1), _monochrome_colour(t2)
    if c1 != c2 or t1.leaf_count != t2.leaf_count:
        return 0
    t1, t2 = normalize(t1), normalize(t2)
    # A root stalk is an internal edge holding every leaf, so two stalks
    # facing each other cut the whole gluing; one alone changes nothing.
    t1, stalked1 = _stripped(t1)
    t2, stalked2 = _stripped(t2)
    if stalked1 and stalked2:
        return 0
    return _count(
        _intern(t1),
        _intern(t2),
        t1.leaf_count,
        (1 << t1.leaf_count) - 1,
        (1 << t2.leaf_count) - 1,
        True,
    )


def cache_info() -> dict:
    return {
        "trees": len(_trees),
        "entries": len(_memo),
        "hits": _hits,
        "misses": _misses,
    }


def clear_cache() -> None:
    global _hits, _misses
    _trees.clear()
    _tids.clear()
    _views.clear()
    _memo.clear()
    _hits = 0
    _misses = 0
