"""Rooted trees with coloured leaves: parsing, canonical forms, families, cuts.

The tree model used throughout the package:

* a tree is a finite rooted tree; vertices without children are *leaves*,
  every other vertex is *internal* (a root with no children is itself a leaf);
* every leaf carries a :class:`Colour`, either one of the base palette
  (``Colour.base(n)``) or a *fresh* colour minted while cutting trees apart
  (``Colour.fresh(key)``);
* an edge is identified by its child vertex, so edge sets are plain sets of
  vertex ids;
* an edge is *internal* when its child is an internal vertex, i.e. it is not
  incident to a leaf.

Canonical serialization (children sorted recursively by their own
serializations) defines tree identity: two ``RootedTree`` objects compare
equal exactly when they are isomorphic as rooted leaf-coloured trees.
Leaf sets are bitmasks over canonical leaf positions (the order in which
leaf tokens appear in the serialization): ``leaf_mask(v)`` below any
vertex and ``edge_masks`` below the internal edges are the one encoding
every counter uses.

Grammar accepted by :func:`parse_tree` (whitespace between tokens ignored)::

    tree     := node
    node     := leaf | internal
    leaf     := '*' | nonneg-integer | '#'+ balanced-braces
    internal := '(' node (',' node)* ')'

``*`` is shorthand for the base colour 0; ``#...#{...}`` is the serialized
form of a fresh colour (the key being everything after the first ``#``) and
round-trips through the parser.  Repeated ``#`` marks let fresh colours be
escaped past one another, which keeps machine-made colours out of the way
of colours already in use.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence, Union


@dataclass(frozen=True, order=True)
class Colour:
    """A leaf colour.

    Base colours are indexed by a non-negative integer.  Fresh colours are
    keyed by an opaque string (here: the canonical serialization of a colour
    multiset) and never collide with base colours.
    """

    is_fresh: bool = False
    number: int = 0
    key: str = ""

    @classmethod
    def base(cls, number: int) -> "Colour":
        if number < 0:
            raise ValueError(f"base colour index must be non-negative, got {number}")
        return cls(False, number, "")

    @classmethod
    def fresh(cls, key: str) -> "Colour":
        return cls(True, 0, key)

    def token(self) -> str:
        """Serialized form: ``*`` for base 0, the integer for other bases,
        ``#<key>`` for fresh colours."""
        if self.is_fresh:
            return "#" + self.key
        return "*" if self.number == 0 else str(self.number)


UNCOLOURED = Colour.base(0)


def multiset_key(counts: Mapping[Colour, int]) -> str:
    """Canonical string form of a colour multiset, e.g. ``{*:3,2:1}``.

    Entries are sorted by colour, so equal multisets always produce equal
    keys; fresh colours embed their own keys, so nesting is unambiguous.
    """
    parts = [f"{c.token()}:{m}" for c, m in sorted(counts.items()) if m > 0]
    return "{" + ",".join(parts) + "}"


class ParseError(ValueError):
    """Raised on malformed tree text; carries the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


NestedSpec = Union[int, Colour, Sequence["NestedSpec"]]


class RootedTree:
    """Immutable rooted tree with coloured leaves.

    ``children`` maps every vertex id to the tuple of its children (empty for
    leaves); ``leaf_colours`` maps exactly the leaves.  Instances are treated
    as immutable; all operations return new trees.  Equality and hashing use
    the canonical serialization, so isomorphic trees compare equal even when
    their vertex ids differ.
    """

    __slots__ = ("root", "_children", "_leaf_colours", "__dict__")

    def __init__(
        self,
        root: int,
        children: Mapping[int, Sequence[int]],
        leaf_colours: Mapping[int, Colour],
    ):
        self.root = root
        self._children = {v: tuple(cs) for v, cs in children.items()}
        self._leaf_colours = dict(leaf_colours)
        self._validate()

    def _validate(self) -> None:
        if self.root not in self._children:
            raise ValueError("root missing from children map")
        seen = set()
        stack = [self.root]
        while stack:
            v = stack.pop()
            if v in seen:
                raise ValueError(f"vertex {v} reached twice; not a tree")
            seen.add(v)
            if v not in self._children:
                raise ValueError(f"vertex {v} missing from children map")
            stack.extend(self._children[v])
        if seen != set(self._children):
            raise ValueError("children map lists unreachable vertices")
        leaves = {v for v, cs in self._children.items() if not cs}
        if leaves != set(self._leaf_colours):
            raise ValueError("leaf_colours must cover exactly the leaves")

    # -- basic structure ---------------------------------------------------

    def children_of(self, v: int) -> tuple[int, ...]:
        return self._children[v]

    def is_leaf(self, v: int) -> bool:
        return not self._children[v]

    def colour_of(self, leaf: int) -> Colour:
        return self._leaf_colours[leaf]

    @cached_property
    def parent(self) -> dict[int, int]:
        """Parent map; the root has no entry."""
        out = {}
        for v, cs in self._children.items():
            for c in cs:
                out[c] = v
        return out

    @cached_property
    def vertices(self) -> tuple[int, ...]:
        return tuple(self._children)

    @cached_property
    def leaves(self) -> frozenset[int]:
        return frozenset(v for v, cs in self._children.items() if not cs)

    @cached_property
    def leaf_count(self) -> int:
        return len(self.leaves)

    @cached_property
    def internal_edge_list(self) -> tuple[int, ...]:
        """Edges not incident to a leaf, identified by child vertex: every
        non-root internal vertex."""
        return tuple(
            v for v in self._children if v != self.root and self._children[v]
        )

    def _bottom_up(self) -> list[int]:
        """Every vertex after all of its descendants, children left to right
        (the post-order of a recursive walk), found without recursion."""
        order: list[int] = []
        stack = [self.root]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(self._children[v])
        order.reverse()
        return order

    @cached_property
    def _layout(self) -> tuple[str, tuple[int, ...], dict[int, int]]:
        """(canonical serialization, canonical leaf order, leaf mask per
        vertex) from one bottom-up and one top-down pass.

        The bottom-up pass serializes every subtree with its children sorted
        by their own serializations; children that serialize equally keep
        the reverse of their stored order, a fixed arbitrary choice that
        keeps subset encodings deterministic per instance.  The top-down
        pass numbers the leaves in that order, so the leaves below any
        vertex take consecutive positions.
        """
        children = self._children
        serial: dict[int, str] = {}
        size: dict[int, int] = {}
        ordered: dict[int, list[int]] = {}
        bottom_up = self._bottom_up()
        for v in bottom_up:
            cs = children[v]
            if not cs:
                serial[v] = self._leaf_colours[v].token()
                size[v] = 1
            else:
                kids = ordered[v] = sorted(reversed(cs), key=serial.__getitem__)
                serial[v] = "(" + ",".join([serial[c] for c in kids]) + ")"
                size[v] = sum([size[c] for c in kids])
        start = {self.root: 0}
        leaf_order: list[int] = [0] * size[self.root]
        for v in reversed(bottom_up):  # parents before children
            at = start[v]
            if v in ordered:
                for c in ordered[v]:
                    start[c] = at
                    at += size[c]
            else:
                leaf_order[at] = v
        masks = {v: ((1 << size[v]) - 1) << start[v] for v in bottom_up}
        return serial[self.root], tuple(leaf_order), masks

    def leaf_mask(self, v: int) -> int:
        """Leaves below vertex ``v`` as a bitmask over canonical leaf
        positions (bit i set for the leaf at ``canonical_leaf_order[i]``)."""
        return self._layout[2][v]

    @cached_property
    def edge_masks(self) -> tuple[int, ...]:
        """Leaf mask below each internal edge, parallel to
        ``internal_edge_list``."""
        masks = self._layout[2]
        return tuple(masks[e] for e in self.internal_edge_list)

    # -- canonical form ----------------------------------------------------

    @cached_property
    def canon(self) -> str:
        """Canonical serialization; identical for isomorphic trees."""
        return self._layout[0]

    @cached_property
    def canonical_leaf_order(self) -> tuple[int, ...]:
        """Leaf ids in the order their tokens appear in ``canon``."""
        return self._layout[1]

    @cached_property
    def leaf_index(self) -> dict[int, int]:
        """leaf id -> position in the canonical leaf order."""
        return {v: i for i, v in enumerate(self.canonical_leaf_order)}

    @cached_property
    def colour_counts(self) -> Counter:
        return Counter(self._leaf_colours.values())

    # -- derived trees (vertex ids preserved) -------------------------------

    def subtree(self, v: int) -> "RootedTree":
        """The subtree rooted at ``v``, keeping vertex ids."""
        children = {}
        stack = [v]
        while stack:
            u = stack.pop()
            children[u] = self._children[u]
            stack.extend(self._children[u])
        colours = {u: self._leaf_colours[u] for u in children if not children[u]}
        return RootedTree(v, children, colours)

    def without_branch(self, v: int) -> "RootedTree":
        """This tree with the branch rooted at child-of-root ``v`` removed.

        ``v`` must be a child of the root and not its only child.
        """
        if v not in self._children[self.root]:
            raise ValueError(f"{v} is not a child of the root")
        if len(self._children[self.root]) == 1:
            raise ValueError("cannot remove the only branch")
        drop = set()
        stack = [v]
        while stack:
            u = stack.pop()
            drop.add(u)
            stack.extend(self._children[u])
        children = {
            u: cs for u, cs in self._children.items() if u not in drop
        }
        children[self.root] = tuple(c for c in children[self.root] if c != v)
        colours = {u: c for u, c in self._leaf_colours.items() if u not in drop}
        return RootedTree(self.root, children, colours)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RootedTree):
            return NotImplemented
        return self.canon == other.canon

    def __hash__(self) -> int:
        return hash(self.canon)

    def __repr__(self) -> str:
        return f"RootedTree({self.canon!r})"


# -- construction ----------------------------------------------------------


def from_nested(spec: NestedSpec) -> RootedTree:
    """Build a tree from nested lists; ints/Colours are leaves.

    ``from_nested([0, [1, 1]])`` is a root with a colour-0 leaf and an
    internal child holding two colour-1 leaves.
    """
    # Vertices are numbered in pre-order, the root being 0.
    children: dict[int, list[int]] = {}
    colours: dict[int, Colour] = {}
    stack: list = [(None, spec)]
    while stack:
        parent, node = stack.pop()
        v = len(children)
        children[v] = []
        if parent is not None:
            children[parent].append(v)
        if isinstance(node, Colour):
            colours[v] = node
        elif isinstance(node, int):
            colours[v] = Colour.base(node)
        else:
            if len(node) == 0:
                raise ValueError("internal vertex needs at least one child")
            stack.extend((v, c) for c in reversed(node))
    return RootedTree(0, children, colours)


def single_vertex(colour: Colour = UNCOLOURED) -> RootedTree:
    """The one-vertex tree whose root is also its only leaf."""
    return RootedTree(0, {0: ()}, {0: colour})


def add_root(subtrees: Sequence[RootedTree]) -> RootedTree:
    """Attach a new root above the given trees (their roots become children).

    Vertex ids are renumbered to keep them disjoint.
    """
    if not subtrees:
        raise ValueError("need at least one subtree")
    children: dict[int, tuple[int, ...]] = {}
    colours: dict[int, Colour] = {}
    counter = itertools.count(1)
    tops = []
    for t in subtrees:
        remap = {v: next(counter) for v in t.vertices}
        for v in t.vertices:
            children[remap[v]] = tuple(remap[c] for c in t.children_of(v))
            if t.is_leaf(v):
                colours[remap[v]] = t.colour_of(v)
        tops.append(remap[t.root])
    children[0] = tuple(tops)
    return RootedTree(0, children, colours)


# -- parsing ---------------------------------------------------------------


def parse_tree(text: str) -> RootedTree:
    """Parse the grammar documented in the module docstring."""
    pos = 0
    n = len(text)

    def skip_ws() -> None:
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def parse_colour() -> Colour:
        nonlocal pos
        ch = text[pos]
        if ch == "*":
            pos += 1
            return UNCOLOURED
        if ch.isdigit():
            start = pos
            while pos < n and text[pos].isdigit():
                pos += 1
            return Colour.base(int(text[start:pos]))
        if ch == "#":
            pos += 1
            start = pos  # key begins after the first '#'
            while pos < n and text[pos] == "#":
                pos += 1
            if pos >= n or text[pos] != "{":
                raise ParseError("expected '{' after '#'", pos)
            depth = 0
            while pos < n:
                if text[pos] == "{":
                    depth += 1
                elif text[pos] == "}":
                    depth -= 1
                    if depth == 0:
                        pos += 1
                        return Colour.fresh(text[start:pos])
                pos += 1
            raise ParseError("unbalanced '{' in fresh colour", start)
        raise ParseError(f"unexpected character {ch!r}", pos)

    # Vertices are numbered in pre-order, the root being 0; ``open_`` holds
    # the internal vertices whose ')' is still to come.
    children: dict[int, list[int]] = {}
    colours: dict[int, Colour] = {}
    open_: list[int] = []
    while True:
        skip_ws()
        if pos >= n:
            raise ParseError("unexpected end of input", pos)
        v = len(children)
        children[v] = []
        if open_:
            children[open_[-1]].append(v)
        if text[pos] == "(":
            pos += 1
            open_.append(v)
            continue
        colours[v] = parse_colour()
        while open_:  # after a node: next sibling, or close its parents
            skip_ws()
            if pos < n and text[pos] == ",":
                pos += 1
                break
            if pos >= n or text[pos] != ")":
                raise ParseError("expected ')' or ','", pos)
            pos += 1
            open_.pop()
        else:
            break
    skip_ws()
    if pos != n:
        raise ParseError("trailing input after tree", pos)
    return RootedTree(0, children, colours)


# -- families ---------------------------------------------------------------


@dataclass(frozen=True)
class Line:
    """Chain of k internal vertices, one leaf each, root at one end."""

    k: int


@dataclass(frozen=True)
class LineS:
    """Chain shape with k leaves whose cumulative leaf counts below the
    non-root chain vertices are exactly ``marks`` (a subset of 1..k-1)."""

    k: int
    marks: frozenset[int]

    def __init__(self, k: int, marks: Iterable[int]):
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "marks", frozenset(marks))


@dataclass(frozen=True)
class TwoEnded:
    """Root with two chain children of k and l leaves."""

    k: int
    l: int


@dataclass(frozen=True)
class FanLine:
    """Chain of k vertices where the i-th deepest one trades its leaf for an
    extra internal vertex; that vertex and the deepest one hold j leaves."""

    k: int
    i: int
    j: int = 1


@dataclass(frozen=True)
class Fan:
    """Root with k leaves and nothing else."""

    k: int


FamilySpec = Union[Line, LineS, TwoEnded, FanLine, Fan]


def _chain_spec(leaf_counts_root_first: Sequence[int]) -> NestedSpec:
    # Chain of internal vertices, each holding the given number of leaves,
    # the next chain vertex attached below.
    spec: NestedSpec = [0] * leaf_counts_root_first[-1]
    for count in reversed(leaf_counts_root_first[:-1]):
        spec = [0] * count + [spec]
    return spec


def _line_s_counts(k: int, marks: frozenset[int]) -> list[int]:
    if k < 1:
        raise ValueError(f"need at least one leaf, got k={k}")
    if not all(1 <= s <= k - 1 for s in marks):
        raise ValueError(f"marks must lie in 1..{k - 1}, got {sorted(marks)}")
    asc = sorted(marks)
    below = [asc[0]] if asc else []
    below += [b - a for a, b in zip(asc, asc[1:])]
    root_count = k - (asc[-1] if asc else 0)
    return [root_count] + list(reversed(below))


def build_family(spec: FamilySpec) -> RootedTree:
    """Construct the tree a family spec describes (uncoloured leaves)."""
    if isinstance(spec, Line):
        return build_family(LineS(spec.k, range(1, spec.k)))
    if isinstance(spec, Fan):
        return build_family(LineS(spec.k, ()))
    if isinstance(spec, LineS):
        return from_nested(_chain_spec(_line_s_counts(spec.k, spec.marks)))
    if isinstance(spec, TwoEnded):
        if spec.k < 1 or spec.l < 1:
            raise ValueError("both ends need at least one leaf")
        left = build_family(Line(spec.k))
        right = build_family(Line(spec.l))
        return add_root([left, right])
    if isinstance(spec, FanLine):
        k, i, j = spec.k, spec.i, spec.j
        if not 1 < i < k:
            raise ValueError(f"need 1 < i < k, got i={i}, k={k}")
        if j < 1:
            raise ValueError(f"need j >= 1, got j={j}")
        # Chain of k vertices, root first; the deepest holds j leaves,
        # position k+1-i from the root holds the extra vertex instead of
        # its leaf.
        deepest: NestedSpec = [0] * j
        spec_node = deepest
        for depth in range(k - 1, 0, -1):  # positions k-1 .. 1 from root
            if depth == k + 1 - i:
                spec_node = [[0] * j, spec_node]
            else:
                spec_node = [0, spec_node]
        return from_nested(spec_node)
    raise TypeError(f"not a family spec: {spec!r}")


# -- structural operations ---------------------------------------------------


def contract_edge(t: RootedTree, edge: int) -> RootedTree:
    """Contract an internal edge, merging its child into its parent."""
    if edge not in t.internal_edge_list:
        raise ValueError(f"{edge} is not an internal edge")
    p = t.parent[edge]
    children = {v: t.children_of(v) for v in t.vertices if v != edge}
    merged = []
    for c in t.children_of(p):
        if c == edge:
            merged.extend(t.children_of(edge))
        else:
            merged.append(c)
    children[p] = tuple(merged)
    colours = {v: t.colour_of(v) for v in t.leaves}
    return RootedTree(t.root, children, colours)


def subdivide_edge(t: RootedTree, edge: int) -> RootedTree:
    """Insert a 2-valent vertex in the middle of ``edge``."""
    if edge == t.root or edge not in t.parent:
        raise ValueError(f"no edge with child vertex {edge}")
    w = max(t.vertices) + 1
    p = t.parent[edge]
    children = {v: t.children_of(v) for v in t.vertices}
    children[p] = tuple(w if c == edge else c for c in children[p])
    children[w] = (edge,)
    colours = {v: t.colour_of(v) for v in t.leaves}
    return RootedTree(t.root, children, colours)


def normalize(t: RootedTree) -> RootedTree:
    """Contract every non-root 2-valent vertex not incident to a leaf.

    Such a vertex has exactly one child, and that child is internal; the
    vertex is spliced out.  Leaves, colours and the root are untouched, and
    the operation is idempotent.
    """
    children: dict[int, tuple[int, ...]] = {}
    kept: dict[int, int] = {}  # vertex -> the vertex standing in for it
    for v in t._bottom_up():
        kids = tuple(kept[c] for c in t.children_of(v))
        if v != t.root and len(kids) == 1 and children[kids[0]]:
            kept[v] = kids[0]
        else:
            children[v] = kids
            kept[v] = v
    colours = {v: t.colour_of(v) for v in t.leaves}
    return RootedTree(t.root, children, colours)


def is_sibling_set(t: RootedTree, edges: Iterable[int]) -> bool:
    """True when ``edges`` is a nonempty antichain of internal edges."""
    es = set(edges)
    if not es or not es.issubset(t.internal_edge_list):
        return False
    for e in es:
        v = t.parent[e]
        while v != t.root:
            if v in es:
                return False
            v = t.parent[v]
    return True


def sibling_sets(t: RootedTree) -> Iterator[frozenset[int]]:
    """Yield every nonempty antichain of internal edges exactly once.

    Internal edges are exactly the non-root internal vertices, and the
    ancestor relation among them is inherited from the tree, so antichains
    compose independently across sibling branches.
    """

    # options[v]: all antichains (the empty one included) of internal
    # edges in the subtree at internal non-root vertex v, v among them.
    options: dict[int, list[frozenset[int]]] = {}
    for v in t._bottom_up():
        if t.is_leaf(v):
            continue
        combos = None
        for c in t.children_of(v):
            below = options.pop(c, None)
            if below is not None:
                combos = below if combos is None else [
                    a | b for a in combos for b in below
                ]
        if combos is None:
            combos = [frozenset()]
        if v != t.root:
            combos.append(frozenset((v,)))
            options[v] = combos
        else:
            yield from (s for s in combos if s)

