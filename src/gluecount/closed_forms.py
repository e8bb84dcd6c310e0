"""Closed-form gluing counts for the caterpillar, two-ended and fan-line
families, expressed through (constrained) connected permutation counts.

Gluing two caterpillars whose cumulative leaf counts sit at marks S1 and S2
amounts to choosing a permutation of the leaf line that fixes no prefix with
size in S1 and S2 at once, so those counts reduce directly to
``s_connected_count``.  The two-ended and fan-line counts are
inclusion-exclusion expressions over the same quantities; out-of-range
constraint positions follow the conventions documented in
:mod:`gluecount.permutations`, and every branch here is pinned to the
brute-force oracle by the test suite.
"""

from math import factorial
from typing import Iterable, Optional

from .permutations import connected_count, s_connected_count
from .trees import (
    UNCOLOURED,
    FanLine,
    LineS,
    RootedTree,
    TwoEnded,
    build_family,
    normalize,
)


def line_count(k: int) -> int:
    """Self-gluing count for the k-leaf chain with one leaf per vertex."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return connected_count(k)


def line_s_count(k: int, s1: Iterable[int], s2: Iterable[int]) -> int:
    """Gluing count for two k-leaf caterpillars with mark sets s1 and s2."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    a, b = set(s1), set(s2)
    for s in (a, b):
        if not all(1 <= x <= k - 1 for x in s):
            raise ValueError(f"marks must lie in 1..{k - 1}, got {sorted(s)}")
    return s_connected_count(k, a & b)


def two_ended_equal_count(k: int) -> int:
    """Self-gluing count for the tree with two k-leaf chains under one root."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    cut_both = factorial(k) ** 2
    cut_both += sum(
        factorial(i) * factorial(j) * connected_count(2 * k - i - j)
        for i in range(1, k)
        for j in range(1, k)
    )
    # Cutting only one chain can happen on either side of the gluing, and
    # every pattern also occurs with the two branches swapped.
    cut_one = 2 * sum(factorial(i) * connected_count(2 * k - i) for i in range(1, k))
    return factorial(2 * k) - 2 * (cut_both + cut_one)


def two_ended_unequal_count(k: int, l: int) -> int:
    """Self-gluing count for the two-chain tree with arm lengths k != l."""
    if k == l:
        raise ValueError("equal arms are handled by two_ended_equal_count")
    if k < 1 or l < 1:
        raise ValueError(f"need k, l >= 1, got {k}, {l}")
    k, l = max(k, l), min(k, l)
    a = l
    same_arms = factorial(k) * factorial(l)
    same_arms += sum(
        factorial(i) * factorial(j) * connected_count(k + l - i - j)
        for i in range(1, k)
        for j in range(1, l)
    )
    same_arms += sum(factorial(i) * connected_count(k + l - i) for i in range(1, k))
    same_arms += sum(factorial(j) * connected_count(k + l - j) for j in range(1, l))

    crossed_arms = 0
    for i in range(1, a + 1):
        for j in range(1, a + 1):
            marks = set(range(1, a - i + 1))
            marks |= set(range(k + l - i - j - (a - j), k + l - i - j))
            crossed_arms += (
                factorial(i)
                * factorial(j)
                * s_connected_count(k + l - i - j, marks)
            )
        marks = set(range(1, a - i + 1))
        marks |= set(range(k + l - i - a, k + l - i))
        crossed_arms += 2 * factorial(i) * s_connected_count(k + l - i, marks)
    return factorial(k + l) - same_arms - crossed_arms


def fan_line_count(k: int, i: int, j: int = 1) -> int:
    """Self-gluing count for the k-chain carrying a j-leaf side fan i steps
    up from its j-leaf tip."""
    if not 1 < i < k:
        raise ValueError(f"need 1 < i < k, got i={i}, k={k}")
    if j < 1:
        raise ValueError(f"need j >= 1, got {j}")
    n = k + 2 * (j - 1)
    merged = set(range(j, i + j - 1)) | set(range(i + 2 * (j - 1), n))
    total = s_connected_count(n, merged)
    fan_to_tip = factorial(j) * s_connected_count(
        k + j - 2, range(i + j - 2, k + j - 2)
    )
    both_tips = factorial(j) ** 2 * s_connected_count(k - 2, range(i - 2, k - 2))
    fan_to_fan = factorial(j) * s_connected_count(k + j - 2, range(j, k + j - 2))
    return total - 2 * fan_to_tip + both_tips - fan_to_fan


# -- recognizing family members ----------------------------------------------


def _shape(t: RootedTree) -> Optional[RootedTree]:
    """Uncoloured copy of a monochrome tree, None when colours are mixed."""
    if len(t.colour_counts) != 1:
        return None
    if UNCOLOURED in t.colour_counts:
        return t
    return RootedTree(
        t.root,
        {v: t.children_of(v) for v in t.vertices},
        {v: UNCOLOURED for v in t.leaves},
    )


# Each recogniser reads the family parameters off the uncoloured shape's
# leaf counts, builds that one candidate and compares.


def _as_line_marks(t: RootedTree) -> Optional[frozenset]:
    """Mark set when ``t`` is a caterpillar (chain of internal vertices,
    leaves attached along it), else None."""
    marks = frozenset(m.bit_count() for m in t.edge_masks)
    if any(not 1 <= m <= t.leaf_count - 1 for m in marks):
        return None
    if t == build_family(LineS(t.leaf_count, marks)):
        return marks
    return None


def _as_two_ended(t: RootedTree) -> Optional[tuple[int, int]]:
    """Arm lengths (k, l) with k >= l when ``t`` is a two-chain tree."""
    if len(kids := t.children_of(t.root)) != 2:
        return None
    l, k = sorted(t.leaf_mask(c).bit_count() for c in kids)
    if t == build_family(TwoEnded(k, l)):
        return k, l
    return None


def _as_fan_line(t: RootedTree) -> Optional[tuple[int, int, int]]:
    """Parameters (k, i, j) when ``t`` is a chain with a side fan."""
    # The side fan and the chain's tip are the edges with the fewest (j)
    # leaves; the fan's parent, the higher of their parents, has 2j + i - 2.
    if not t.edge_masks:
        return None
    j = min(m.bit_count() for m in t.edge_masks)
    parent = t.parent
    above = max(
        t.leaf_mask(parent[e]).bit_count()
        for e, m in zip(t.internal_edge_list, t.edge_masks)
        if m.bit_count() == j
    )
    k, i = t.leaf_count - 2 * (j - 1), above - 2 * j + 2
    if 1 < i < k and t == build_family(FanLine(k, i, j)):
        return k, i, j
    return None


def closed_count(t1: RootedTree, t2: RootedTree) -> int:
    """Count a pair of recognized family trees through the closed forms.

    Raises ValueError when no formula covers the (normalized) pair; a pair
    of caterpillars with any mark sets is covered, the other families only
    when both sides carry equal parameters.
    """
    t1, t2 = normalize(t1), normalize(t2)
    c1, c2 = _classify(t1), _classify(t2)
    if c1 is None or c2 is None:
        raise ValueError("no closed form covers this pair")
    if t1.colour_counts != t2.colour_counts:
        # Recognized on both sides, but leaf counts or colours clash, so
        # there are no colour-preserving gluings at all.
        return 0
    kind1, params1 = c1
    kind2, params2 = c2
    if kind1 == kind2 == "line":
        return line_s_count(t1.leaf_count, params1, params2)
    if kind1 != kind2 or params1 != params2:
        raise ValueError(
            "closed forms cover caterpillar pairs and identical-parameter "
            "two-ended or fan-line pairs only"
        )
    if kind1 == "two-ended":
        k, l = params1
        return two_ended_equal_count(k) if k == l else two_ended_unequal_count(k, l)
    return fan_line_count(*params1)


def _classify(t: RootedTree):
    shape = _shape(t)
    if shape is None:
        return None
    marks = _as_line_marks(shape)
    if marks is not None:
        return "line", marks
    arms = _as_two_ended(shape)
    if arms is not None:
        return "two-ended", arms
    params = _as_fan_line(shape)
    if params is not None:
        return "fan-line", params
    return None
