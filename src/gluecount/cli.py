"""Command-line surface for the gluing counters.

Subcommands: ``count`` a single pair by any algorithm, ``verify`` that the
algorithms agree on exhaustive and sampled inputs, ``sequence`` a family's
self-gluing counts, ``bench`` algorithm wall times, and ``gen`` a family
member's serialization.  Counts always print as exact decimal integers;
``--json`` switches to one structured record per line.

Exit codes: 0 success, 1 algorithm disagreement, 2 usage or parse error,
3 brute-force size limit exceeded.
"""

import argparse
import functools
import itertools
import json
import random
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

from . import cut_count, recursive_count
from .closed_forms import closed_count
from .cut_count import count_subfree_cutpre
from .generate import all_normalized_trees, random_tree
from .oracle import BruteLimitError, brute_leaf_limit, count_subfree_brute
from .recursive_count import count_subfree_recursive
from .trees import (
    Fan,
    FanLine,
    Line,
    LineS,
    ParseError,
    RootedTree,
    TwoEnded,
    build_family,
    parse_tree,
)

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3

ALGORITHMS = ("brute", "recursive", "cutpre", "closed", "auto")


class UsageError(Exception):
    """Bad command input; maps to exit code 2."""


@dataclass
class RunReport:
    """One counting run: what was counted, how, and what came out."""

    inputs: tuple[str, str]
    algorithm: str
    count: Optional[int]
    elapsed: float
    metadata: dict = field(default_factory=dict)

    def record(self) -> str:
        return json.dumps(
            {
                "t1": self.inputs[0],
                "t2": self.inputs[1],
                "algorithm": self.algorithm,
                "count": self.count,
                "elapsed": self.elapsed,
                "metadata": self.metadata,
            }
        )


def _count_once(algo: str, t1: RootedTree, t2: RootedTree) -> tuple[int, str]:
    """Count with the requested algorithm; returns (count, resolved name).

    ``auto`` uses the closed form when one covers the pair and the general
    cut-based counter otherwise.
    """
    if algo == "auto":
        try:
            return closed_count(t1, t2), "closed"
        except ValueError:
            return count_subfree_cutpre(t1, t2), "cutpre"
    if algo == "brute":
        return count_subfree_brute(t1, t2), algo
    if algo == "recursive":
        return count_subfree_recursive(t1, t2), algo
    if algo == "cutpre":
        return count_subfree_cutpre(t1, t2), algo
    if algo == "closed":
        try:
            return closed_count(t1, t2), algo
        except ValueError as err:
            raise UsageError(str(err)) from err
    raise UsageError(f"unknown algorithm {algo!r}")


def _zero_reason(t1: RootedTree, t2: RootedTree) -> str:
    if t1.leaf_count != t2.leaf_count:
        return "leaf-mismatch"
    if t1.colour_counts != t2.colour_counts:
        return "colour-mismatch"
    return "all-subdivergent"


def _parse_cli_tree(text: str, flag: str) -> RootedTree:
    try:
        return parse_tree(text)
    except ParseError as err:
        raise UsageError(f"{flag}: {err}") from err


def cmd_count(args) -> int:
    t1 = _parse_cli_tree(args.t1, "--t1")
    t2 = _parse_cli_tree(args.t2, "--t2")
    start = time.perf_counter()
    count, resolved = _count_once(args.algo, t1, t2)
    elapsed = time.perf_counter() - start
    metadata: dict = {"resolved": resolved}
    if count == 0:
        metadata["zero_reason"] = _zero_reason(t1, t2)
    if resolved == "recursive":
        metadata["cache"] = recursive_count.cache_info()
    elif resolved == "cutpre":
        metadata["cache"] = cut_count.cache_info()
    report = RunReport(
        (t1.canon, t2.canon),
        args.algo,
        count,
        elapsed,
        metadata,
    )
    if args.json:
        print(report.record())
    else:
        print(f"t1 {report.inputs[0]}")
        print(f"t2 {report.inputs[1]}")
        print(f"algorithm {args.algo}" + (
            f" ({resolved})" if resolved != args.algo else ""
        ))
        print(f"count {count}")
        print(f"elapsed {elapsed:.4g}s")
        if "zero_reason" in metadata:
            print(f"zero-reason {metadata['zero_reason']}")
    return EXIT_OK


def _agreement(t1: RootedTree, t2: RootedTree) -> Optional[str]:
    """None when all three algorithms agree, else a counterexample line."""
    brute = count_subfree_brute(t1, t2)
    rec = count_subfree_recursive(t1, t2)
    cut = count_subfree_cutpre(t1, t2)
    if brute == rec == cut:
        return None
    return (
        f"counterexample: t1={t1.canon} t2={t2.canon} "
        f"brute={brute} recursive={rec} cutpre={cut}"
    )


def cmd_verify(args) -> int:
    limit = brute_leaf_limit()
    if args.max_leaves < 1:
        raise UsageError("--max-leaves must be at least 1")
    if args.max_leaves > limit:
        raise UsageError(
            f"--max-leaves {args.max_leaves} exceeds the brute limit {limit}"
        )
    if args.samples and args.max_leaves + 1 > limit:
        raise UsageError(
            "sampled pairs would exceed the brute limit; "
            "lower --max-leaves or raise GLUECOUNT_BRUTE_LIMIT"
        )
    universe = [
        t
        for n in range(1, args.max_leaves + 1)
        for t in all_normalized_trees(n)
    ]
    checked = 0
    for t1, t2 in itertools.combinations_with_replacement(universe, 2):
        bad = _agreement(t1, t2)
        if bad is not None:
            print(bad)
            return EXIT_DISAGREE
        checked += 1
    print(f"exhaustive: {checked} pairs up to {args.max_leaves} leaves agree")
    rng = random.Random(args.seed)
    for _ in range(args.samples):
        size = args.max_leaves + 1
        bad = _agreement(random_tree(rng, size), random_tree(rng, size))
        if bad is not None:
            print(bad)
            return EXIT_DISAGREE
    if args.samples:
        print(
            f"sampled: {args.samples} pairs with {args.max_leaves + 1} "
            f"leaves agree (seed {args.seed})"
        )
    return EXIT_OK


def _parse_fields(text: str, family: str, sweep: bool) -> list:
    """Split a --params list into ints, mark sets, and the '?' sweeps."""
    fields = [f.strip() for f in text.split(",")]
    out: list = []
    for pos, raw in enumerate(fields):
        if raw == "?":
            if not sweep:
                raise UsageError("'?' is only meaningful with a sweep")
            out.append("?")
        elif family == "line-s" and pos == 1:
            if "?" in raw:
                raise UsageError("the marks field cannot be swept")
            try:
                out.append(frozenset(int(m) for m in raw.split("-")))
            except ValueError as err:
                raise UsageError(
                    f"bad marks {raw!r}; use dash-joined integers like 1-3"
                ) from err
        else:
            try:
                out.append(int(raw))
            except ValueError as err:
                raise UsageError(f"bad parameter {raw!r}") from err
    if sweep and "?" not in out:
        raise UsageError("sweep parameters need exactly one '?' value")
    return out


_ARITY = {
    "line": (1,),
    "fan": (1,),
    "line-s": (2,),
    "two-ended": (2,),
    "fan-line": (2, 3),
}


def _make_spec(family: str, values: list):
    if family not in _ARITY:
        raise UsageError(f"unknown family {family!r}")
    if len(values) not in _ARITY[family]:
        raise UsageError(
            f"{family} takes {' or '.join(map(str, _ARITY[family]))} "
            f"parameters, got {len(values)}"
        )
    if family == "line":
        return Line(*values)
    if family == "fan":
        return Fan(*values)
    if family == "line-s":
        return LineS(values[0], values[1])
    if family == "two-ended":
        return TwoEnded(*values)
    return FanLine(*values)


def _swept_members(family, fields, upto):
    """(value, tree) rows for each valid substitution of the '?' fields."""
    rows = []
    for value in range(1, upto + 1):
        values = [value if f == "?" else f for f in fields]
        try:
            rows.append((value, build_family(_make_spec(family, values))))
        except ValueError:
            continue  # parameter combination invalid at this value
    if not rows:
        raise UsageError(
            f"no valid {family} member for any value up to {upto}"
        )
    return rows


def cmd_sequence(args) -> int:
    fields = _parse_fields(args.params, args.family, sweep=True)
    rows = _swept_members(args.family, fields, args.upto)
    if not args.json:
        print("value count method elapsed")
    for value, tree in rows:
        start = time.perf_counter()
        count, resolved = _count_once(args.algo, tree, tree)
        elapsed = time.perf_counter() - start
        if args.json:
            print(
                RunReport(
                    (tree.canon, tree.canon),
                    args.algo,
                    count,
                    elapsed,
                    {"resolved": resolved, "value": value},
                ).record()
            )
        else:
            print(f"{value} {count} {resolved} {elapsed:.4g}s")
    return EXIT_OK


def cmd_bench(args) -> int:
    fields = _parse_fields(args.params, args.family, sweep=True)
    rows = _swept_members(args.family, fields, args.upto)
    limit = brute_leaf_limit()
    reps = max(1, args.reps)
    if not args.json:
        print("value algorithm count min median")
    for value, tree in rows:
        counts: dict[str, int] = {}
        for algo in ("brute", "recursive", "cutpre"):
            if algo == "brute" and tree.leaf_count > limit:
                continue
            times = []
            for _ in range(reps):
                recursive_count.clear_cache()
                cut_count.clear_cache()
                start = time.perf_counter()
                counts[algo], _ = _count_once(algo, tree, tree)
                times.append(time.perf_counter() - start)
            low, mid = min(times), statistics.median(times)
            if args.json:
                print(
                    json.dumps(
                        {
                            "value": value,
                            "algorithm": algo,
                            "count": counts[algo],
                            "min": low,
                            "median": mid,
                        }
                    )
                )
            else:
                print(
                    f"{value} {algo} {counts[algo]} {low:.4g}s {mid:.4g}s"
                )
        if len(set(counts.values())) > 1:
            print(
                f"counterexample: {args.family} value {value} "
                + " ".join(f"{a}={c}" for a, c in sorted(counts.items()))
            )
            return EXIT_DISAGREE
    return EXIT_OK


def cmd_gen(args) -> int:
    fields = _parse_fields(args.params, args.family, sweep=False)
    try:
        tree = build_family(_make_spec(args.family, fields))
    except ValueError as err:
        raise UsageError(str(err)) from err
    print(tree.canon)
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it
    unchanged, so every ``main`` call can share it."""
    parser = argparse.ArgumentParser(
        prog="gluecount",
        description="Count subdivergence-free gluings of leaf-coloured "
        "rooted trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="count one pair of trees")
    count.add_argument("--t1", required=True, help="first tree")
    count.add_argument("--t2", required=True, help="second tree")
    count.add_argument("--algo", choices=ALGORITHMS, default="auto")
    count.add_argument("--json", action="store_true")
    count.set_defaults(handler=cmd_count)

    verify = sub.add_parser(
        "verify", help="check that all algorithms agree"
    )
    verify.add_argument("--max-leaves", type=int, required=True)
    verify.add_argument(
        "--samples",
        type=int,
        default=0,
        help="extra random pairs one leaf larger than --max-leaves",
    )
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(handler=cmd_verify)

    sequence = sub.add_parser(
        "sequence", help="self-gluing counts along a family"
    )
    sequence.add_argument(
        "--family", required=True, choices=sorted(_ARITY)
    )
    sequence.add_argument(
        "--params",
        required=True,
        help="comma list with '?' for the swept value, e.g. '?,2,1'; "
        "marks are dash-joined like '1-3'",
    )
    sequence.add_argument("--upto", type=int, required=True)
    sequence.add_argument("--algo", choices=ALGORITHMS, default="auto")
    sequence.add_argument("--json", action="store_true")
    sequence.set_defaults(handler=cmd_sequence)

    bench = sub.add_parser("bench", help="time the algorithms on a family")
    bench.add_argument("--family", required=True, choices=sorted(_ARITY))
    bench.add_argument(
        "--params",
        default="?",
        help="comma list with '?' for the swept value",
    )
    bench.add_argument("--upto", type=int, required=True)
    bench.add_argument("--reps", type=int, default=3)
    bench.add_argument("--json", action="store_true")
    bench.set_defaults(handler=cmd_bench)

    gen = sub.add_parser("gen", help="print a family member")
    gen.add_argument("--family", required=True, choices=sorted(_ARITY))
    gen.add_argument("--params", required=True)
    gen.set_defaults(handler=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except BruteLimitError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_LIMIT


if __name__ == "__main__":
    sys.exit(main())
