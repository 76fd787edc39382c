"""Workload `cli`: one-shot use of the `lfd` command.

Serial `python -m lfd.cli` processes over the small files in cli_data/, for
every verb, including error paths with their documented exit codes.  Every
call pays interpreter start, import and file loading, and nothing is shared
between calls.  Expected stdout and exit status of each call are fixed in
cli_cases.json; the seed only sets the order of the calls.

Three calls are known defects (ROADMAP item 4): they end in a traceback
instead of a documented error exit.  Their mismatches are counted in
`ok_frac` and `cli.exit_mismatch` but kept apart from other failures.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import time

from spans import standard_layers
from worker import Query

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "cli_data")
CASES = os.path.join(HERE, "cli_cases.json")
TIMEOUT = 60
IMPORT_PROBES = 5

_tracing = False  # set for the traced phase: children then record spans


def prepare(seed: int, workdir: str, smoke: bool) -> None:
    with open(CASES, encoding="utf-8") as fh:
        n = len(json.load(fh)["cases"])
    order = list(range(n))
    random.Random(seed).shuffle(order)
    with open(os.path.join(workdir, "spec.json"), "w") as fh:
        json.dump({"order": order}, fh)


def setup(workdir: str):
    import lfd.cli  # noqa: F401  (set-up covers the import, as a call pays it)

    with open(os.path.join(workdir, "spec.json")) as fh:
        spec = json.load(fh)
    with open(CASES, encoding="utf-8") as fh:
        cases = json.load(fh)["cases"]
    calls = [0]

    def make(case):
        args = case["args"]
        allowed = case["exit"] if isinstance(case["exit"], list) \
            else [case["exit"]]

        def run():
            if not _tracing:
                argv = [sys.executable, "-m", "lfd.cli"] + args
                out = None
            else:
                calls[0] += 1
                out = os.path.join(workdir, f"spans-{calls[0]}.json")
                argv = [sys.executable, os.path.join(HERE, "clitrace.py"),
                        out] + args
            proc = subprocess.run(argv, capture_output=True, text=True,
                                  cwd=DATA, timeout=TIMEOUT)
            spans = None
            if out is not None:
                with open(out, encoding="utf-8") as fh:
                    spans = json.load(fh)
                os.remove(out)
            return proc.returncode, proc.stdout, spans

        def check(summary):
            code, stdout = summary
            if code not in allowed:
                return f"lfd {' '.join(args)}: exit {code}, expected " \
                       f"{' or '.join(map(str, allowed))}"
            if stdout != case["stdout"]:
                return f"lfd {' '.join(args)}: unexpected output {stdout[:80]!r}"
            return None

        def count(result, counters):
            code, _, spans = result
            if code not in allowed:
                counters["exit_mismatch"] = counters.get("exit_mismatch", 0) + 1
            child = counters.setdefault("child", {})
            for name, agg in (spans or {}).items():
                mine = child.setdefault(name, {"calls": 0, "ms": 0.0,
                                               "self_ms": 0.0})
                for k in mine:
                    mine[k] += agg[k]

        return Query(f"cli/{args[0]}", run, lambda r: (r[0], r[1]), check,
                     count, case.get("known_defect"))

    return [make(cases[i]) for i in spec["order"]]


def start_trace() -> None:
    global _tracing
    _tracing = True


def import_ms() -> float:
    """Fresh-interpreter `import lfd.cli` minus a bare interpreter start,
    each the median of several runs."""
    def median_run(code):
        times = []
        for _ in range(IMPORT_PROBES):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True,
                           timeout=TIMEOUT)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    return 1000 * (median_run("import lfd.cli") - median_run("pass"))


def layers(tracer, agg, counters, cycles):
    out = standard_layers(counters.get("child", {}), cycles)
    for name, v in agg.items():
        if name.startswith("cli/"):
            out[f"cli.{name[4:]}.ms"] = v["ms"] / cycles
    out["cli.exit_mismatch"] = counters.get("exit_mismatch", 0) / cycles
    out["cli.import.ms"] = import_ms()
    return out
