"""Benchmark of the gluecount counting engines.

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Runs from the root of a checkout, against the package in ``src/``.  One
process, one thread: it generates the workload's inputs as tree text from
the seed, runs one untimed warm-up pass, then times whole passes over the
same inputs until ``--seconds`` have gone by (at least three of each
kind).  Before each pass both engine caches are cleared and
``gc.collect()`` runs, so every pass does the same work.  Every output is checked against a computation
made apart from the engine under test; a wrong or malformed output counts
as a failed operation.

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1``
the per-layer ones: every other pass then runs with spans around each
module's public functions, and the tracing overhead is the median traced
pass minus the median untraced one.  Each metric is printed as one
``name value unit`` line, then the result as one JSON object on the last
line.  The result and the spans of the last traced pass are also written
to ``bench/out/``.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("sweep", "families", "random_mono", "coloured")
MIN_PASSES = 3
HASH_SEED = "0"
START_ENV = "GLUECOUNT_BENCH_START"


def pin_hash_seed() -> None:
    """Re-execute this process with a fixed string-hash seed, passing on
    the time it started so set-up is timed from the first start."""
    if os.environ.get("PYTHONHASHSEED") == HASH_SEED:
        return
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    env[START_ENV] = repr(START)
    os.execve(sys.executable, [sys.executable, *sys.argv], env)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def layer_metrics(untraced, traced, resolved, generate_s, check_s) -> dict:
    """Self time per layer (median over the traced passes), the work
    counts of the last traced pass, and the times outside the passes."""
    median = statistics.median
    metrics = {
        f"{layer}_s": (median([p.tracer.self_s[layer] for p in traced]), "s")
        for layer in spans.LAYERS
    }
    last = traced[-1]
    metrics["closed_forms.fallthrough"] = (
        last.tracer.errors["closed_forms.closed_count"],
        "count",
    )
    metrics["cut_count.cut_and_relabel_calls"] = (
        last.tracer.calls["cut_count.cut_and_relabel"],
        "count",
    )
    for engine, count in resolved.items():
        metrics[f"cli.resolved_{engine}"] = (count, "count")
    for name, count in last.counters.items():
        metrics[name] = (count, "count")
    metrics["generate.inputs_s"] = (generate_s, "s")
    metrics["oracle.check_s"] = (check_s, "s")
    metrics["trace.overhead_s"] = (
        median([p.duration for p in traced]) - median([p.duration for p in untraced]),
        "s",
    )
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    started = float(os.environ.get(START_ENV, START))
    if not (SRC / "gluecount" / "__init__.py").is_file():
        print(f"error: no gluecount package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    began = time.perf_counter()
    ops = workloads.INPUTS[args.workload](args.seed)
    generate_s = time.perf_counter() - began
    workloads.run_pass(ops)  # warm-up
    setup_s = time.perf_counter() - started

    passes = workloads.timed_passes(
        ops, args.seconds, MIN_PASSES * (1 + args.trace), bool(args.trace)
    )
    untraced = [p for p in passes if p.tracer is None]
    traced = [p for p in passes if p.tracer is not None]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    began = time.perf_counter()
    expected = workloads.expected_values(args.workload, ops, args.seed)
    failed = 0
    for p in passes:
        bad = workloads.problems(args.workload, ops, p.outputs, expected)
        failed += sum(b is not None for b in bad)
        for op, problem in zip(ops, bad):
            if problem is not None:
                print(f"FAILED {op.t1} {op.t2}: {problem}", file=sys.stderr)
    check_s = time.perf_counter() - began
    steady = len({tuple(sorted(p.counters.items())) for p in passes}) == 1
    if not steady:
        print("engine counters differ between passes", file=sys.stderr)

    if args.trace:
        resolved = workloads.resolved_counts(ops, traced[-1].outputs)
        metrics = layer_metrics(untraced, traced, resolved, generate_s, check_s)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "count_s": (statistics.median(p.duration for p in passes), "s"),
            "pair_p50_ms": (
                1000 * statistics.median(t for p in passes for t in p.call_s),
                "ms",
            ),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": failed == 0 and steady,
        "attempted": len(ops) * len(passes),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if traced:
        spans.write_jsonl(traced[-1].tracer.spans, OUT / f"{stem}.spans.jsonl")
    line = json.dumps(result)
    (OUT / f"{stem}.json").write_text(line + "\n")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(line)
    return 0


if __name__ == "__main__":
    pin_hash_seed()
    sys.exit(main())
