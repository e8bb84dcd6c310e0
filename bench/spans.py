"""Spans around the public functions of each gluecount module.

A traced pass replaces selected public functions with timing wrappers.
Each wrapper is installed under every name by which the package's modules
hold the function (``normalize`` lives in ``trees`` but is also imported
into ``closed_forms``, ``recursive_count`` and ``cut_count``), so calls
made inside the package are seen as well as the benchmark's own.  Spans
stay in memory; a layer's self time is the time of its spans minus the
time their child spans cover.  Nothing here touches the package's source.
"""

import contextlib
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

# (module, function, layer): every span of ``function`` is charged to
# ``layer``.  ``sibling_sets`` is a ``trees`` function, but only the
# cut-and-subtract engine calls it, so it gets a layer of its own there.
TARGETS = (
    ("cli", "main", "cli.self"),
    ("trees", "parse_tree", "trees.parse"),
    ("trees", "normalize", "trees.normalize"),
    ("closed_forms", "closed_count", "closed_forms.closed_count"),
    ("permutations", "s_connected_count", "permutations.s_connected"),
    ("permutations", "connected_count", "permutations.s_connected"),
    ("recursive_count", "count_subfree_recursive", "recursive_count.self"),
    ("cut_count", "count_subfree_cutpre", "cut_count.self"),
    ("cut_count", "count_with_subdivergences", "cut_count.self"),
    ("trees", "sibling_sets", "cut_count.sibling_sets"),
    ("cut_count", "cut_and_relabel", "cut_count.cut_and_relabel"),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer in TARGETS))


class Tracer:
    """Records one span per wrapped call: (name, start, end, parent).

    ``parent`` is the index of the enclosing span in ``spans``, or -1.
    Self time per layer, calls per function and ``ValueError`` raises per
    function are summed as spans close, so the totals need no second pass
    over the spans.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self._stack: list[int] = []
        self._child_s: list[float] = []

    def wrap(self, name: str, layer: str, fn):
        generator = inspect.isgeneratorfunction(fn)

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            span = [name, time.perf_counter(), 0.0, parent]
            self.spans.append(span)
            self._stack.append(index)
            self._child_s.append(0.0)
            try:
                result = fn(*args, **kwargs)
                if generator:
                    # Drain inside the span, or it would time only the
                    # creation of the generator.
                    result = iter(list(result))
                return result
            except ValueError:
                self.errors[name] += 1
                raise
            finally:
                span[2] = end = time.perf_counter()
                self._stack.pop()
                child = self._child_s.pop()
                duration = end - span[1]
                self.self_s[layer] += duration - child
                self.calls[name] += 1
                if self._child_s:
                    self._child_s[-1] += duration

        return traced


def _package_modules() -> list:
    return [
        m
        for n, m in list(sys.modules.items())
        if n == "gluecount" or n.startswith("gluecount.")
    ]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap every target for its traced wrapper, under every module name
    that holds it, and put the originals back on exit."""
    swapped = []
    try:
        modules = _package_modules()
        for module_name, attr, layer in TARGETS:
            home = importlib.import_module(f"gluecount.{module_name}")
            original = getattr(home, attr)
            wrapper = tracer.wrap(f"{module_name}.{attr}", layer, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        swapped.append((module, key, original))
        yield tracer
    finally:
        for module, key, original in reversed(swapped):
            setattr(module, key, original)


def write_jsonl(spans: list, path) -> None:
    """One JSON object per span: id, name, start, end, parent (-1: none)."""
    with open(path, "w") as out:
        for index, (name, start, end, parent) in enumerate(spans):
            out.write(
                json.dumps(
                    {
                        "id": index,
                        "name": name,
                        "start": start,
                        "end": end,
                        "parent": parent,
                    }
                )
                + "\n"
            )
