"""Coloured gluing counts by cutting away the subdivergent part.

The total number of colour-preserving gluings of two trees is a product of
factorials over the colour classes.  Every gluing carrying at least one
fully internal cut is charged to exactly one pair of edge antichains, the
maximal edges whose leaf sets match up; cutting those edges off and marking
each stump with a fresh colour (keyed by the severed component's colour
multiset, so stumps are glueable exactly when their components were) turns
the charge into a product: gluings of the trimmed trees that are themselves
subdivergence free, times the ways to glue each severed component onto its
partner.  Subtracting the charged total from the colour-preserving total
gives the headline count.  The recursion bottoms out because trimming
strictly shrinks both trees.

Sweeps over many pairs hit the same trimmed trees over and over, so trees
are interned to integer ids on first sight, keeping only their colour data
and trimming rows; the pair cache then stores plain integers.  A full
6-leaf all-pairs sweep stays within desktop memory this way.
"""

import sys
from collections import Counter
from dataclasses import dataclass
from math import factorial, prod

from .trees import (
    Colour,
    RootedTree,
    is_sibling_set,
    multiset_key,
    normalize,
    sibling_sets,
)


def colour_preserving_count(c1: Counter, c2: Counter) -> int:
    """Gluings that pair equal colours only: 0 on mismatched multisets,
    otherwise the product of factorials of the multiplicities."""
    if {c: m for c, m in c1.items() if m} != {c: m for c, m in c2.items() if m}:
        return 0
    return prod(factorial(m) for m in c1.values())


@dataclass(frozen=True)
class CutDecomposition:
    """A tree with some sibling branches severed: ``trunk`` keeps a fresh
    leaf where each branch was, ``components`` are the severed subtrees."""

    trunk: RootedTree
    components: tuple[RootedTree, ...]


def _escape_level(t: RootedTree) -> int:
    """Leading-# marks needed so a new fresh colour collides with nothing
    already in ``t``."""
    fresh = [c.key for c in t.colour_counts if c.is_fresh]
    return max(
        (len(k) - len(k.lstrip("#")) + 1 for k in fresh), default=0
    )


def cut_and_relabel(t: RootedTree, edges) -> CutDecomposition:
    """Cut each edge of a sibling set, replacing every severed subtree with
    a fresh-coloured leaf keyed by that subtree's colour multiset.

    Equal multisets give equal stump colours, so stumps are glueable
    exactly when their components were; the key is escaped with leading #
    marks to stay distinct from every colour the tree already carries,
    which matters when cutting a tree that was itself produced by a cut
    (a stump must never pair with an ordinary leaf).
    """
    cut = frozenset(edges)
    if not is_sibling_set(t, cut):
        raise ValueError(f"{sorted(cut)} is not a sibling set")
    order = sorted(cut)
    components = tuple(t.subtree(v) for v in order)
    removed = set().union(*(c.vertices for c in components))
    base = max(t.vertices) + 1
    stump = {v: base + i for i, v in enumerate(order)}
    children = {
        v: tuple(stump.get(c, c) for c in t.children_of(v))
        for v in t.vertices
        if v not in removed
    }
    children.update({f: () for f in stump.values()})
    colours = {v: t.colour_of(v) for v in t.leaves if v not in removed}
    escape = "#" * _escape_level(t)
    for comp, v in zip(components, order):
        colours[stump[v]] = Colour.fresh(
            escape + multiset_key(comp.colour_counts)
        )
    return CutDecomposition(RootedTree(t.root, children, colours), components)


_ID_BITS = 26  # pair keys pack two ids into one int

_ids: dict[str, int] = {}
_ckeys: list[str] = []  # colour multiset key per id
_totals: list[int] = []  # colour-preserving self count per id
_spurs: list[dict] = []  # colour -> (class size, single-leaf cuts)
_pending: list = []  # tree retained until its rows are built
_rows: list = []  # (n_cut, trunk id, weight sum, multiplicity), lazy
_memo: dict[int, int] = {}


def _self_count(c: Counter) -> int:
    return prod(factorial(m) for m in c.values())


def _spur_profile(t: RootedTree) -> dict:
    """Per colour: class size and how many of the class hang alone under
    an internal edge (their singleton is then a cuttable leaf set)."""
    order = t.canonical_leaf_order
    single = {m for m in t.edge_masks if not m & (m - 1)}
    hanging = Counter(t.colour_of(order[m.bit_length() - 1]) for m in single)
    return {c: (m, hanging[c]) for c, m in t.colour_counts.items()}


def _intern(t: RootedTree) -> int:
    """Id for ``t``.  Only colour data is extracted up front; the tree is
    kept just until its trimming rows are first needed, so pairs that are
    decided without cutting never pay for the cut enumeration."""
    tid = _ids.get(t.canon)
    if tid is not None:
        return tid
    tid = len(_ckeys)
    if tid >= 1 << _ID_BITS:
        raise RuntimeError("trimmed-tree table overflow")
    _ids[t.canon] = tid
    _ckeys.append(sys.intern(multiset_key(t.colour_counts)))
    _totals.append(_self_count(t.colour_counts))
    _spurs.append(_spur_profile(t))
    _pending.append(t)
    _rows.append(None)
    return tid


def _rows_of(tid: int) -> tuple:
    """Trimming rows for an interned tree, built on first use.

    Sibling sets with isomorphic trunks merge into one row carrying their
    summed weight and their multiplicity: when the tree sits on the left
    of a pair the weights add up, when it sits on the right each cut
    contributes a full term of its own.
    """
    rows = _rows[tid]
    if rows is not None:
        return rows
    t = _pending[tid]
    merged: dict[tuple, list] = {}
    for cut in sibling_sets(t):
        d = cut_and_relabel(t, cut)
        weight = prod(_self_count(c.colour_counts) for c in d.components)
        cell = merged.setdefault((len(d.components), _intern(d.trunk)), [0, 0])
        cell[0] += weight
        cell[1] += 1
    rows = tuple((n, u, w, m) for (n, u), (w, m) in merged.items())
    _rows[tid] = rows
    _pending[tid] = None
    return rows


def _forced_cut(a: int, b: int) -> bool:
    """True when every colour-preserving gluing of the pair must match two
    single-leaf cuts, i.e. some colour class has more singly hanging
    leaves on the two sides together than the class holds: any bijection
    then sends one singleton leaf set onto another, an internal cut on
    both sides.  Decides the spur-laden worst cases without recursing."""
    pa, pb = _spurs[a], _spurs[b]
    return any(
        s + pb.get(c, (0, 0))[1] > m for c, (m, s) in pa.items() if s
    )


def _subfree(a: int, b: int) -> int:
    if _ckeys[a] is not _ckeys[b] and _ckeys[a] != _ckeys[b]:
        return 0
    if _forced_cut(a, b):
        return 0
    key = (a << _ID_BITS) | b if a <= b else (b << _ID_BITS) | a
    cached = _memo.get(key)
    if cached is not None:
        return cached
    total = _totals[a]
    for n1, u1, w1, _ in _rows_of(a):
        for n2, u2, _, m2 in _rows_of(b):
            if n1 == n2:
                sub = _subfree(u1, u2)
                if sub:
                    total -= w1 * m2 * sub
    _memo[key] = total
    return total


def count_with_subdivergences(t1: RootedTree, t2: RootedTree) -> int:
    """Colour-preserving gluings containing at least one fully internal
    cut.  Antichain pairs that cut different numbers of branches always
    contribute zero and are skipped."""
    a, b = _intern(normalize(t1)), _intern(normalize(t2))
    if _ckeys[a] != _ckeys[b]:
        return 0
    total = 0
    for n1, u1, w1, _ in _rows_of(a):
        for n2, u2, _, m2 in _rows_of(b):
            if n1 == n2:
                total += w1 * m2 * _subfree(u1, u2)
    return total


def count_subfree_cutpre(t1: RootedTree, t2: RootedTree) -> int:
    """Full gluings of t1 with t2 that preserve colours and avoid fully
    internal cuts.  Handles arbitrary leaf colours; agrees with
    ``count_subfree_brute`` and, on monochrome inputs, with
    ``count_subfree_recursive``."""
    return _subfree(_intern(normalize(t1)), _intern(normalize(t2)))


def cache_info() -> dict:
    return {
        "trees": len(_ckeys),
        "pairs": len(_memo),
    }


def clear_cache() -> None:
    _ids.clear()
    _ckeys.clear()
    _totals.clear()
    _spurs.clear()
    _pending.clear()
    _rows.clear()
    _memo.clear()
