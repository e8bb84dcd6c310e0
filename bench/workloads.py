"""The four benchmark workloads: their inputs, one pass, and its checks.

A workload is a list of operations.  Each operation takes tree text to a
count, the way a user of the package would: through ``gluecount count
--json`` in-process (``cli``), through ``count_subfree_recursive`` on
parsed trees (``recursive``), or both on one family member (``family``).
An operation that opens a group starts from empty engine caches.

Per-pair cost is heavy-tailed on ``random_mono`` (coefficient of variation
0.7 at 13 leaves) and ``coloured`` (one 7-leaf 3-colour pair in 14 takes
5.8 s, the other 13 together 0.2 s), so a pool drawn from ``--seed`` would
move a pass by more than any usable bound.  Their pools therefore come from
fixed generator seeds, and ``--seed`` varies what leaves the work
unchanged: child order in the text, the order of the operations and which
pairs the contraction check samples.  Colour names are kept as generated,
because the cut-and-subtract engine's work depends on them today (see the
README).  ``sweep`` pairs are cheap and alike, so its slice is drawn from
``--seed`` itself.
"""

import contextlib
import gc
import io
import itertools
import random
import time
from collections import Counter
from dataclasses import dataclass

from gluecount import cli, cut_count, generate, recursive_count, trees
from gluecount.closed_forms import (
    fan_line_count,
    two_ended_equal_count,
    two_ended_unequal_count,
)
from gluecount.cut_count import colour_preserving_count
from gluecount.oracle import count_subfree_brute

import checks
import spans

SWEEP_LEAVES = 5
SWEEP_SLICE = 500
FAMILY_MEMBERS = (
    trees.Line(12),
    trees.Line(14),
    trees.TwoEnded(7, 7),
    trees.TwoEnded(8, 8),
    trees.FanLine(10, 5, 3),
)
# (leaves, counts): pairs drawn from random.Random(leaves), with their
# subdivergence-free counts.  count_subfree_cutpre confirms all but the
# 15-leaf count, where it outgrows 1.6 GB; that one is
# count_subfree_recursive's, the same in both orientations.
MONO_POOL = (
    (13, (0, 0, 1153232640, 251112960, 0, 0)),
    (14, (2438553600, 863654400)),
    (15, (1618444800,)),
)
MONO_CONTRACTION_CHECKS = 3
# (leaves, colours, pairs) drawn from random.Random(100 * leaves + colours).
COLOURED_POOL = ((7, 2, 6), (7, 3, 6), (8, 2, 6), (8, 3, 6))


@dataclass(frozen=True)
class Op:
    kind: str  # "cli", "recursive" or "family"
    t1: str
    t2: str
    fresh: bool  # clear the engine caches before this operation
    pinned: int | None = None  # the known count, where one is kept


def tree_text(t: trees.RootedTree, rng: random.Random) -> str:
    """Tree text with children in shuffled order."""

    def node(v: int) -> str:
        if t.is_leaf(v):
            return t.colour_of(v).token()
        kids = [node(c) for c in t.children_of(v)]
        rng.shuffle(kids)
        return "(" + ",".join(kids) + ")"

    return node(t.root)


def sweep_inputs(seed: int) -> list[Op]:
    rng = random.Random(seed)
    shapes = generate.all_normalized_trees(SWEEP_LEAVES)
    pairs = list(itertools.combinations_with_replacement(shapes, 2))
    return [
        Op("cli", tree_text(a, rng), tree_text(b, rng), fresh=False)
        for a, b in rng.sample(pairs, SWEEP_SLICE)
    ]


def family_inputs(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for spec in FAMILY_MEMBERS:
        text = tree_text(trees.build_family(spec), rng)
        ops.append(Op("family", text, text, fresh=True))
    rng.shuffle(ops)
    return ops


def mono_inputs(seed: int) -> list[Op]:
    rng = random.Random(seed)
    pairs = []
    for leaves, counts in MONO_POOL:
        pool = random.Random(leaves)
        for count in counts:
            a = generate.random_tree(pool, leaves)
            b = generate.random_tree(pool, leaves)
            pairs.append((tree_text(a, rng), tree_text(b, rng), count))
    rng.shuffle(pairs)
    return [
        op
        for a, b, count in pairs
        for op in (
            Op("recursive", a, b, fresh=True, pinned=count),
            Op("recursive", b, a, fresh=False, pinned=count),
        )
    ]


def coloured_inputs(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for leaves, colours, count in COLOURED_POOL:
        pool = random.Random(100 * leaves + colours)
        for _ in range(count):
            a, b = generate.random_coloured_pair(pool, leaves, colours)
            ops.append(Op("cli", tree_text(a, rng), tree_text(b, rng), fresh=True))
    rng.shuffle(ops)
    return ops


INPUTS = {
    "sweep": sweep_inputs,
    "families": family_inputs,
    "random_mono": mono_inputs,
    "coloured": coloured_inputs,
}

# -- running a pass -----------------------------------------------------------


def fold_and_clear(counters: dict) -> None:
    """Add the engine caches' sizes and hit counts to ``counters``, then
    empty both caches."""
    rec = recursive_count.cache_info()
    cut = cut_count.cache_info()
    counters["recursive_count.memo_entries"] += rec["entries"]
    counters["recursive_count.memo_hits"] += rec["hits"]
    counters["recursive_count.memo_misses"] += rec["misses"]
    counters["recursive_count.trees"] += rec["trees"]
    counters["cut_count.trees"] += cut["trees"]
    counters["cut_count.pairs"] += cut["pairs"]
    recursive_count.clear_cache()
    cut_count.clear_cache()


def run_cli(t1: str, t2: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["count", "--t1", t1, "--t2", t2, "--json"])
    return out.getvalue()


def run_recursive(t1: str, t2: str) -> int:
    return recursive_count.count_subfree_recursive(
        trees.parse_tree(t1), trees.parse_tree(t2)
    )


def run_op(op: Op):
    """The operation's raw output: CLI stdout, a count, or both."""
    if op.kind == "cli":
        return run_cli(op.t1, op.t2)
    if op.kind == "recursive":
        return run_recursive(op.t1, op.t2)
    return run_recursive(op.t1, op.t2), run_cli(op.t1, op.t2)


class Pass:
    """One timed pass: wall time, per-operation times and outputs, the
    engine counters folded from the caches, and the tracer if any."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.counters: Counter = Counter()
        self.outputs: list = []
        self.call_s: list[float] = []
        self.duration = 0.0


def run_pass(ops: list[Op], tracer=None) -> Pass:
    """Run every operation once, from empty caches after a collection."""
    record = Pass(tracer)
    fold_and_clear(Counter())
    gc.collect()
    with spans.installed(tracer) if tracer else contextlib.nullcontext():
        start = time.perf_counter()
        for op in ops:
            if op.fresh:
                fold_and_clear(record.counters)
            began = time.perf_counter()
            try:
                output = run_op(op)
            except Exception as err:  # a failed operation, checked later
                output = err
            record.call_s.append(time.perf_counter() - began)
            record.outputs.append(output)
        fold_and_clear(record.counters)
        record.duration = time.perf_counter() - start
    return record


def timed_passes(ops: list[Op], seconds: float, min_passes: int, trace: bool):
    """Whole passes until ``seconds`` have gone by and at least
    ``min_passes`` have run.  With ``trace``, every other pass is traced,
    so traced and untraced passes see the same machine conditions."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(ops, spans.Tracer() if traced else None))
    return passes


# -- checking -----------------------------------------------------------------


def family_value(spec) -> int:
    """The family's closed form, or the published value for lines."""
    if isinstance(spec, trees.Line):
        return checks.A003319[spec.k - 1]
    if isinstance(spec, trees.TwoEnded):
        if spec.k == spec.l:
            return two_ended_equal_count(spec.k)
        return two_ended_unequal_count(spec.k, spec.l)
    return fan_line_count(spec.k, spec.i, spec.j)


def _resolved(op: Op, output) -> str | None:
    if op.kind == "cli":
        return checks.parse_record(output)[1]
    if op.kind == "family":
        return checks.parse_record(output[1])[1]
    return None


def resolved_counts(ops: list[Op], outputs: list) -> dict:
    """How many CLI records each engine resolved, for well-formed ones."""
    counts = dict.fromkeys(checks.RESOLVED, 0)
    for op, output in zip(ops, outputs):
        if isinstance(output, BaseException):
            continue
        try:
            resolved = _resolved(op, output)
        except checks.MalformedRecord:
            continue
        if resolved is not None:
            counts[resolved] += 1
    return counts


def expected_values(workload: str, ops: list[Op], seed: int) -> list:
    """Per operation, what a correct output must satisfy, computed apart
    from the engine under test.  Used by :func:`problems`."""
    if workload == "sweep":
        return [
            count_subfree_brute(trees.parse_tree(o.t1), trees.parse_tree(o.t2))
            for o in ops
        ]
    if workload == "families":
        spec_of = {trees.build_family(s): s for s in FAMILY_MEMBERS}
        return [family_value(spec_of[trees.parse_tree(o.t1)]) for o in ops]
    if workload == "coloured":
        out = []
        for o in ops:
            a, b = trees.parse_tree(o.t1), trees.parse_tree(o.t2)
            out.append(
                (
                    count_subfree_brute(a, b),
                    colour_preserving_count(a.colour_counts, b.colour_counts),
                )
            )
        return out
    return _contraction_counts(ops, seed)


def _contraction_counts(ops: list[Op], seed: int) -> list:
    """For a seeded sample of random_mono pairs, the count after
    contracting one seeded internal edge of each tree (None elsewhere)."""
    rng = random.Random(seed)
    out: list = [None] * len(ops)
    for i in rng.sample(range(0, len(ops), 2), MONO_CONTRACTION_CHECKS):
        a, b = trees.parse_tree(ops[i].t1), trees.parse_tree(ops[i].t2)
        contracted = []
        for t in (a, b):
            if not t.internal_edge_list:
                continue
            edge = rng.choice(sorted(t.internal_edge_list))
            smaller = trees.contract_edge(t, edge)
            pair = (smaller, b) if t is a else (a, smaller)
            recursive_count.clear_cache()
            contracted.append(recursive_count.count_subfree_recursive(*pair))
        out[i] = contracted
    recursive_count.clear_cache()
    return out


def problems(workload: str, ops: list[Op], outputs: list, expected: list) -> list:
    """Per operation, None when its output is right, else the problem."""
    out: list = [None] * len(ops)
    for i, (op, output) in enumerate(zip(ops, outputs)):
        if isinstance(output, BaseException):
            out[i] = f"raised {output!r}"
            continue
        try:
            if workload == "sweep":
                out[i] = checks.check_count(
                    checks.parse_record(output)[0], expected[i]
                )
            elif workload == "families":
                got_rec, text = output
                out[i] = checks.check_count(got_rec, expected[i]) or (
                    checks.check_count(checks.parse_record(text)[0], expected[i])
                )
            elif workload == "coloured":
                brute, preserving = expected[i]
                out[i] = checks.check_coloured(
                    checks.parse_record(output)[0], brute, preserving
                )
        except checks.MalformedRecord as err:
            out[i] = f"malformed record: {err}"
    if workload == "random_mono":
        for i in range(0, len(ops), 2):
            forward, backward = outputs[i], outputs[i + 1]
            if isinstance(forward, BaseException) or isinstance(
                backward, BaseException
            ):
                continue
            n = trees.parse_tree(ops[i].t1).leaf_count
            bad = checks.check_orientations(forward, backward, n)
            if ops[i].pinned is not None:
                bad = bad or checks.check_count(forward, ops[i].pinned)
            for contracted in expected[i] or ():
                bad = bad or checks.check_monotone(forward, contracted)
            if bad:
                out[i] = out[i + 1] = bad
    return out
