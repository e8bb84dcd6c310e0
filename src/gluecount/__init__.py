"""Exact counting of subdivergence-free gluings of rooted leaf-coloured trees.

A gluing matches up the leaves of two rooted trees; it is subdivergence
free when no internal edge of one tree is carried onto an internal edge of
the other.  This package counts such gluings four ways: a brute-force
oracle, closed forms for the caterpillar-like families, a partial-gluing
recursion, and a cut-and-subtract method that also handles coloured
leaves.  All counts are exact integers.
"""

from .closed_forms import (
    closed_count,
    fan_line_count,
    line_count,
    line_s_count,
    two_ended_equal_count,
    two_ended_unequal_count,
)
from .cut_count import (
    CutDecomposition,
    colour_preserving_count,
    count_subfree_cutpre,
    count_with_subdivergences,
    cut_and_relabel,
)
from .generate import all_normalized_trees, random_coloured_pair, random_tree
from .oracle import (
    BruteLimitError,
    PartialMode,
    brute_leaf_limit,
    count_partial_brute,
    count_subfree_brute,
)
from .permutations import (
    brute_s_connected_count,
    connected_count,
    s_connected_count,
)
from .recursive_count import count_subfree_recursive, partial_gluing_count
from .trees import (
    Colour,
    Fan,
    FanLine,
    Line,
    LineS,
    ParseError,
    RootedTree,
    TwoEnded,
    build_family,
    contract_edge,
    normalize,
    parse_tree,
    subdivide_edge,
)

__version__ = "0.1.0"

__all__ = [
    "BruteLimitError",
    "Colour",
    "CutDecomposition",
    "Fan",
    "FanLine",
    "Line",
    "LineS",
    "ParseError",
    "PartialMode",
    "RootedTree",
    "TwoEnded",
    "all_normalized_trees",
    "brute_leaf_limit",
    "brute_s_connected_count",
    "build_family",
    "closed_count",
    "colour_preserving_count",
    "connected_count",
    "contract_edge",
    "count_partial_brute",
    "count_subfree_brute",
    "count_subfree_cutpre",
    "count_subfree_recursive",
    "count_with_subdivergences",
    "cut_and_relabel",
    "fan_line_count",
    "line_count",
    "line_s_count",
    "normalize",
    "parse_tree",
    "partial_gluing_count",
    "random_coloured_pair",
    "random_tree",
    "s_connected_count",
    "subdivide_edge",
    "two_ended_equal_count",
    "two_ended_unequal_count",
]
