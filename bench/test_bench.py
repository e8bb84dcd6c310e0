"""Tests of the benchmark's checkers, spans and output format.

    python3 -m pytest bench -q
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from gluecount import cut_count, trees  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def record(count, resolved="cutpre") -> str:
    return json.dumps(
        {
            "t1": "(*,*)",
            "t2": "(*,*)",
            "algorithm": "auto",
            "count": count,
            "elapsed": 0.001,
            "metadata": {"resolved": resolved},
        }
    ) + "\n"


def test_count_off_by_one_is_rejected():
    op = workloads.Op("cli", "((*),(*),*)", "(((*),*),*)", fresh=False)
    truth = workloads.expected_values("sweep", [op], seed=0)
    for got, ok in ((truth[0], True), (truth[0] + 1, False), (truth[0] - 1, False)):
        (problem,) = workloads.problems("sweep", [op], [record(got)], truth)
        assert (problem is None) == ok


def test_family_count_off_by_one_is_rejected():
    text = workloads.tree_text(trees.build_family(trees.Line(5)), random.Random(0))
    op = workloads.Op("family", text, text, fresh=True)
    expected = [workloads.family_value(trees.Line(5))]
    assert expected == [71]
    assert workloads.problems("families", [op], [(71, record(71, "closed"))], expected) == [None]
    for output in ((72, record(71, "closed")), (71, record(70, "closed"))):
        (problem,) = workloads.problems("families", [op], [output], expected)
        assert problem is not None


def test_orientations_that_disagree_are_rejected():
    ops = [
        workloads.Op("recursive", "((*),*,*)", "((*,*),*)", fresh=True),
        workloads.Op("recursive", "((*,*),*)", "((*),*,*)", fresh=False),
    ]
    assert workloads.problems("random_mono", ops, [4, 4], [None, None]) == [None, None]
    bad = workloads.problems("random_mono", ops, [4, 5], [None, None])
    assert all(b is not None for b in bad)
    pinned = [workloads.Op(o.kind, o.t1, o.t2, o.fresh, pinned=4) for o in ops]
    bad = workloads.problems("random_mono", pinned, [5, 5], [None, None])
    assert all(b is not None for b in bad)
    assert checks.check_orientations(7, 7, 3) is not None  # above 3!
    assert checks.check_monotone(4, 3) is not None
    assert checks.check_monotone(4, 4) is None


def test_count_above_colour_preserving_total_is_rejected():
    op = workloads.Op("cli", "((*),(1),1)", "((1),*,(1))", fresh=True)
    ((brute, preserving),) = workloads.expected_values("coloured", [op], seed=0)
    assert preserving == 2
    (problem,) = workloads.problems(
        "coloured", [op], [record(preserving + 1)], [(preserving + 1, preserving)]
    )
    assert "colour-preserving" in problem
    (problem,) = workloads.problems("coloured", [op], [record(brute)], [(brute, preserving)])
    assert problem is None


@pytest.mark.parametrize(
    "text",
    [
        "",
        "not json\n",
        record(3) + record(3),
        json.dumps([3]) + "\n",
        record("3"),
        record(-1),
        record(True),
        record(3, resolved="magic"),
        json.dumps({"count": 3}) + "\n",
    ],
)
def test_malformed_cli_record_is_rejected(text):
    with pytest.raises(checks.MalformedRecord):
        checks.parse_record(text)
    op = workloads.Op("cli", "(*,*)", "(*,*)", fresh=False)
    (problem,) = workloads.problems("sweep", [op], [text], [2])
    assert problem.startswith("malformed record")


def test_raised_operation_is_a_failure():
    op = workloads.Op("cli", "(*,*)", "(*,*)", fresh=False)
    (problem,) = workloads.problems("sweep", [op], [RuntimeError("boom")], [2])
    assert "boom" in problem


def test_a003319_matches_the_recurrence():
    from math import factorial

    c = [0, 1]
    for m in range(2, len(checks.A003319) + 1):
        c.append(factorial(m) - sum(factorial(i) * c[m - i] for i in range(1, m)))
    assert tuple(c[1:]) == checks.A003319


def test_self_time_subtracts_child_spans():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", "layer.inner", lambda: sum(range(10000)))

    def outer_fn():
        inner()
        inner()
        raise ValueError("fall through")

    outer = tracer.wrap("outer", "layer.outer", outer_fn)
    with pytest.raises(ValueError):
        outer()
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "inner", "inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    outer_span = tracer.spans[0]
    total = outer_span[2] - outer_span[1]
    both = tracer.self_s["layer.outer"] + tracer.self_s["layer.inner"]
    assert both == pytest.approx(total)
    assert tracer.errors == {"outer": 1}
    assert tracer.calls == {"outer": 1, "inner": 2}


def test_wrappers_cover_every_import_name_and_are_removed():
    original = trees.normalize
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert cut_count.normalize is not original
        assert cut_count.normalize is trees.normalize
        list(cut_count.sibling_sets(trees.parse_tree("((*,(*)),(*))")))
        cut_count.count_subfree_cutpre(
            trees.parse_tree("((*),(*))"), trees.parse_tree("((*),(*))")
        )
    assert trees.normalize is original and cut_count.normalize is original
    assert tracer.calls["trees.sibling_sets"] >= 1
    assert tracer.calls["trees.normalize"] == 2
    assert tracer.self_s["cut_count.sibling_sets"] > 0


def run_bench(trace: int, cwd=ROOT, workload="families"):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_line_parses_as_name_value_unit(trace, section):
    done = run_bench(trace)
    assert done.returncode == 0, done.stderr
    *lines, last = done.stdout.strip().splitlines()
    wanted = {m["name"]: m["unit"] for m in SPEC[section]}
    seen = {}
    for line in lines:
        name, value, unit = line.split(" ")
        seen[name] = unit
        float(value)
    assert seen == wanted
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] % len(workloads.FAMILY_MEMBERS) == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench(0, cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout
