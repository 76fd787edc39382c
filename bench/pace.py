"""The host's pace: a fixed piece of pure-Python work, timed right beside
each measured call, by which the benchmark scales its times.

The benchmark runs on a few cores of a shared host whose speed for
interpreter-bound code flips between levels almost a factor of two apart,
for stretches from milliseconds to tens of seconds, so the same code reads
up to twice as long from one run to the next.  The reference below does the
kind of work lfd spends its time on (dict and set lookups and inserts on
tuple keys, small function calls) and touches no lfd code, so a change to
lfd never moves it.  Timed just before and just after a call, it tells how
fast the host ran during the call; `scaled` turns the call's time into the
time it would have taken at the pace where a reference sample reads
REFERENCE_MS, about its best on a 2-vCPU Xeon VM.  A change to lfd that
halves a call's time halves the scaled time too; only the host's share of a
difference is divided out.
"""

from __future__ import annotations

import time

REFERENCE_MS = 0.6
_ROWS = [(i % 97, i % 13, i % 7) for i in range(500)]


def _key(row, cols):
    return tuple(row[c] for c in cols)


def reference() -> int:
    """Group fixed rows by two column sets and count the classes that are
    constant on the last column, as a dependence check does."""
    constant = 0
    for cols in ((0,), (1, 2)):
        groups = {}
        for row in _ROWS:
            groups.setdefault(_key(row, cols), set()).add(row[2])
        constant += sum(1 for v in groups.values() if len(v) == 1)
    return constant


def sample() -> float:
    """Seconds the reference takes now: the better of two runs, so that one
    interrupt does not count as a slow host."""
    times = []
    for _ in range(2):
        t0 = time.perf_counter()
        reference()
        times.append(time.perf_counter() - t0)
    return min(times)


def scaled(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between the samples `before` and `after`, at the
    reference pace."""
    return seconds * REFERENCE_MS / (500 * (before + after))
