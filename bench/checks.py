"""Correctness checks on the counts a benchmark pass produced.

Every checker returns ``None`` when the output is right and a one-line
problem otherwise.  The expected values come from computations made apart
from the engine under test: the brute-force oracle, the family closed forms
and the published connected-permutation numbers.
"""

import json
from math import factorial

RESOLVED = ("closed", "cutpre", "recursive")

# OEIS A003319, connected (indecomposable) permutations of [n], n = 1..18:
# the self-gluing count of the n-leaf line.
A003319 = (
    1,
    1,
    3,
    13,
    71,
    461,
    3447,
    29093,
    273343,
    2829325,
    31998903,
    392743957,
    5201061455,
    73943424413,
    1123596277863,
    18176728317413,
    311951144828863,
    5661698774848621,
)


class MalformedRecord(ValueError):
    """CLI output that is not one well-formed ``count --json`` record."""


def parse_record(text: str) -> tuple[int, str]:
    """(count, resolved engine) from the stdout of ``count ... --json``."""
    lines = text.splitlines()
    if len(lines) != 1:
        raise MalformedRecord(f"expected one line, got {len(lines)}")
    try:
        record = json.loads(lines[0])
    except json.JSONDecodeError as err:
        raise MalformedRecord(f"not JSON: {err}") from err
    if not isinstance(record, dict):
        raise MalformedRecord("record is not an object")
    count = record.get("count")
    if type(count) is not int or count < 0:
        raise MalformedRecord(f"count {count!r} is not a nonnegative int")
    metadata = record.get("metadata")
    resolved = metadata.get("resolved") if isinstance(metadata, dict) else None
    if resolved not in RESOLVED:
        raise MalformedRecord(f"metadata.resolved {resolved!r} is unknown")
    return count, resolved


def check_count(got: int, expected: int) -> str | None:
    if got != expected:
        return f"count {got}, expected {expected}"
    return None


def check_orientations(forward: int, backward: int, n_leaves: int) -> str | None:
    """Both orientations of a pair agree and lie in 0..n!."""
    if forward != backward:
        return f"orientations disagree: {forward} != {backward}"
    if not 0 <= forward <= factorial(n_leaves):
        return f"count {forward} outside 0..{n_leaves}!"
    return None


def check_coloured(got: int, brute: int, preserving: int) -> str | None:
    """A coloured count matches the colour-aware oracle and never exceeds
    the number of colour-preserving gluings."""
    if got > preserving:
        return f"count {got} above the colour-preserving total {preserving}"
    return check_count(got, brute)


def check_monotone(count: int, contracted: int) -> str | None:
    """Contracting an internal edge removes cuts, so it never lowers the
    count."""
    if contracted < count:
        return f"contraction lowered the count from {count} to {contracted}"
    return None
