"""Vectorized brute-force counting for the big acceptance sweeps.

Counts the same thing as ``oracle.count_subfree_brute`` on uncoloured
trees, but batches the bijection loop with numpy so the exhaustive
6-leaf grid stays inside the acceptance time budget.  For every
permutation of leaf positions, a tree-level table answers "does some
internal leaf set of t1 land on an internal leaf set of t2"; the count
is the number of permutations where none does.  The acceptance suite
cross-checks this helper against the plain oracle on a seeded sample
before trusting it.
"""

from itertools import permutations

import numpy as np

_perms: dict[int, np.ndarray] = {}
_tables: dict[tuple[int, str], np.ndarray] = {}


def _perm_matrix(n: int) -> np.ndarray:
    if n not in _perms:
        _perms[n] = np.array(list(permutations(range(n))), dtype=np.int64)
    return _perms[n]


def _image_table(t) -> np.ndarray:
    """Boolean (n!, 2^n) table: entry [p, m] says whether permutation p
    sends some internal leaf set of ``t`` onto the position set m."""
    key = (t.leaf_count, t.canon)
    cached = _tables.get(key)
    if cached is not None:
        return cached
    n = t.leaf_count
    perms = _perm_matrix(n)
    table = np.zeros((len(perms), 1 << n), dtype=bool)
    rows = np.arange(len(perms))
    for mask in t.edge_masks:
        image = np.zeros(len(perms), dtype=np.int64)
        for i in range(n):
            if mask >> i & 1:
                image |= np.int64(1) << perms[:, i]
        table[rows, image] = True
    _tables[key] = table
    return table


def subfree_count(t1, t2) -> int:
    """Subdivergence-free full gluings of two uncoloured trees."""
    n = t1.leaf_count
    if t2.leaf_count != n:
        return 0
    masks2 = list(t2.edge_masks)
    table = _image_table(t1)
    if not masks2:
        return table.shape[0]
    hit = table[:, masks2].any(axis=1)
    return int(table.shape[0] - hit.sum())


def clear_tables() -> None:
    _tables.clear()
