"""Counting connected permutations, plain and with prescribed non-cuts.

A permutation pi of {1..n} has a *cut* at position s (1 <= s <= n-1) when
pi({1..s}) = {1..s}.  Connected (indecomposable) permutations have no cut at
all; their count c_n satisfies

    c_n = n! - sum_{i=1}^{n-1} i! * c_{n-i}

by splitting off the largest cut.  More generally, for a set S of forbidden
cut positions, ``s_connected_count(n, S)`` counts permutations with no cut at
any position in S (cuts elsewhere are fine), so S = {1..n-1} recovers c_n and
S = {} gives n!.

Convention for out-of-range positions, chosen so the closed-form counters can
shift constraint sets freely: 0 in S (the empty prefix is always fixed) or any
s >= n (the full prefix is always fixed) forces the count to 0, while
negative positions are dropped.
"""

import itertools
from collections import Counter
from functools import cache
from typing import Iterable

_factorials = [1]  # _factorials[i] == i!
_connected = [0, 1]  # c_0 = 0 by convention, c_1 = 1


def _factorial_table(n: int) -> list[int]:
    """The module's factorial list, grown to hold 0! .. n!."""
    while len(_factorials) <= n:
        _factorials.append(_factorials[-1] * len(_factorials))
    return _factorials


def connected_count(n: int) -> int:
    """Number of connected permutations of n elements."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    while len(_connected) <= n:
        m = len(_connected)
        fact = _factorial_table(m)
        _connected.append(
            fact[m] - sum(fact[i] * _connected[m - i] for i in range(1, m))
        )
    return _connected[n]


def s_connected_count(n: int, constraints: Iterable[int] = ()) -> int:
    """Permutations of n elements with no cut at any position in
    ``constraints``.

    Splitting off the largest forbidden cut gives

        c^S_n = n! - sum_{i in S} i! * c^(shift)_{n-i},

    where the shifted set is {s - i : s in S, s > i}.  Every set reachable
    this way is S clipped above a threshold and shifted down by it, so the
    whole computation is a single pass over thresholds in decreasing order.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    wanted = set(constraints)
    if 0 in wanted or any(s >= n for s in wanted):
        return 0
    marks = sorted(s for s in wanted if s > 0)
    fact = _factorial_table(n)
    best: dict[int, int] = {}
    for d in sorted({0, *marks}, reverse=True):
        best[d] = fact[n - d] - sum(
            fact[s - d] * best[s] for s in marks if s > d
        )
    return best[0]


_BRUTE_LIMIT = 9


@cache
def _cut_mask_census(n: int) -> Counter:
    """How many permutations of n elements have each exact set of cuts,
    encoded as a bitmask with bit s for a cut at position s."""
    counts: Counter = Counter()
    for perm in itertools.permutations(range(n)):
        mask = 0
        top = -1
        for s in range(1, n):
            if perm[s - 1] > top:
                top = perm[s - 1]
            if top == s - 1:
                mask |= 1 << s
        counts[mask] += 1
    return counts


def brute_s_connected_count(n: int, constraints: Iterable[int] = ()) -> int:
    """Direct enumeration over all n! permutations; test oracle for
    :func:`s_connected_count`, capped at n = 9."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > _BRUTE_LIMIT:
        raise ValueError(f"brute force capped at n = {_BRUTE_LIMIT}, got {n}")
    wanted = set(constraints)
    if 0 in wanted or any(s >= n for s in wanted):
        return 0
    forbidden = 0
    for s in wanted:
        if s > 0:
            forbidden |= 1 << s
    return sum(
        m for mask, m in _cut_mask_census(n).items() if not mask & forbidden
    )
