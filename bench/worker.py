"""One workload in one fresh process: set up, run the timed closed loop,
check every answer, and print one JSON line.

Started by run.py; not meant to be run by hand.  With ``--setup-only`` the
process stops after set-up and reports when it became ready, which run.py
uses for repeated set-up measurements.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

import pace
from spans import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass
class Query:
    """One timed call.  ``summary`` turns the result into a small hashable
    value (outside the timed region); ``check`` judges the first summary of
    the query against an independent reference and returns an error message
    or None; later repeats must produce the same summary.  ``count`` adds
    the per-layer counters of a result in the traced run.  A query with a
    ``known_defect`` still counts its wrong answers, but apart from other
    failures, so they show without marking the run incorrect."""

    label: str
    run: Callable[[], Any]
    summary: Callable[[Any], Any]
    check: Callable[[Any], Optional[str]]
    count: Optional[Callable[[Any, Dict[str, float]], None]] = None
    known_defect: Optional[str] = None


class Loop:
    def __init__(self, queries: List[Query]):
        self.queries = queries
        self.first: Dict[int, Any] = {}
        self.verdict: Dict[int, Optional[str]] = {}
        self.errors: List[str] = []
        self.known = 0
        self.counters: Dict[str, float] = {}
        self.by_label: Dict[str, List[float]] = {}

    def cycle(self, latencies: List[float], tracer=None,
              paced: Optional[List[float]] = None) -> tuple:
        """One pass over the pool; returns (failed, seconds not timed:
        checking answers and pacing).  Given `paced`, each query is
        bracketed by samples of the host's pace and its time at the
        reference pace is appended there."""
        failed = 0
        untimed = 0.0
        for qi, q in enumerate(self.queries):
            err = None
            if paced is not None:
                t0 = time.perf_counter()
                before = pace.sample()
                untimed += time.perf_counter() - t0
            if tracer is not None:
                idx = tracer.begin(q.label)
            t0 = time.perf_counter()
            try:
                result = q.run()
            except Exception as e:  # a failing query is counted, not fatal
                result, err = None, f"{q.label}: {type(e).__name__}: {e}"
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.end(idx)
            latencies.append(t1 - t0)
            if paced is not None:
                paced.append(pace.scaled(t1 - t0, before, pace.sample()))
            tally = self.by_label.setdefault(q.label, [0, 0.0])
            tally[0] += 1
            tally[1] += 1000 * (t1 - t0)
            if err is None:
                if tracer is not None:
                    tracer.paused = True
                err = self._judge(qi, q, result, tracer is not None)
                if tracer is not None:
                    tracer.paused = False
            # drop the answer before the next query, or its memory would
            # count towards that query's peak
            result = None
            if err is not None and q.known_defect:
                self.known += 1
            elif err is not None:
                failed += 1
                if len(self.errors) < 20:
                    self.errors.append(err)
            untimed += time.perf_counter() - t1
        return failed, untimed

    def _judge(self, qi: int, q: Query, result, counting: bool) -> Optional[str]:
        try:
            summary = q.summary(result)
            if counting and q.count is not None:
                q.count(result, self.counters)
            if qi not in self.first:
                self.first[qi] = summary
                self.verdict[qi] = q.check(summary)
            elif summary != self.first[qi]:
                return f"{q.label}: answer changed between repeats"
            return self.verdict[qi]
        except Exception as e:  # an answer the oracle cannot read is wrong
            return f"{q.label}: check raised {type(e).__name__}: {e}"


def run_cycles(loop: Loop, seconds: float, cycles: Optional[int] = None,
               tracer=None, paced: bool = False) -> dict:
    """Whole passes, as many as bring the query time nearest to `seconds`
    (or exactly `cycles` passes); the time spent checking answers and
    pacing is excluded.  Returns each pass's latencies (and, if `paced`,
    latencies at the reference pace) and query time."""
    passes: List[List[float]] = []
    paced_passes: List[List[float]] = []
    pass_time: List[float] = []
    failed = 0
    while True:
        latencies: List[float] = []
        at_pace: Optional[List[float]] = [] if paced else None
        start = time.perf_counter()
        f, untimed = loop.cycle(latencies, tracer, at_pace)
        pass_time.append(time.perf_counter() - start - untimed)
        passes.append(latencies)
        if at_pace is not None:
            paced_passes.append(at_pace)
        failed += f
        # another pass of the same length would overshoot more than this
        # one falls short
        if (cycles is not None and len(passes) >= cycles) or \
                (cycles is None and sum(pass_time) + pass_time[-1] / 2
                 >= seconds):
            break
    return {"passes": passes, "paced": paced_passes, "pass_time": pass_time,
            "failed": failed, "timed": sum(pass_time), "cycles": len(passes)}


def per_query_median(passes: List[List[float]]) -> dict:
    """Each query's median time over the run's passes; from those, the
    throughput of one pass and the 50th and 95th percentiles over the
    pool.  Taken over times at the reference pace, whose bracketing
    samples leave a pass that ran while the host changed speed as an
    outlier, which the median drops."""
    typical = [statistics.median(lat) for lat in zip(*passes)]
    return {"queries_per_s": len(typical) / sum(typical),
            "latency_p50_ms": 1000 * statistics.median(typical),
            "latency_p95_ms": 1000 * percentile(typical, 95)}


def percentile(xs: List[float], q: int) -> float:
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    mod = importlib.import_module(f"wl_{args.workload}")
    queries = mod.setup(args.dir)
    ready = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    loop = Loop(queries)
    out: Dict[str, Any] = {"ready": ready}
    if not args.trace:
        res = run_cycles(loop, args.seconds, paced=True)
        out.update(per_query_median(res["paced"]),
                   unscaled=per_query_median(res["passes"]),
                   attempted=sum(map(len, res["passes"])),
                   failed=res["failed"], cycles=res["cycles"],
                   peak_rss_mb=peak_rss_mb())
    else:
        plain = run_cycles(loop, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        if hasattr(mod, "start_trace"):
            mod.start_trace()
        try:
            traced = run_cycles(loop, 0, cycles=plain["cycles"], tracer=tracer)
        finally:
            tracer.uninstall()
        n = plain["cycles"]
        agg = tracer.aggregate()
        roots = agg.get("", {"ms": 0.0})["ms"]
        layers = mod.layers(tracer, agg, loop.counters, n)
        layers["trace_overhead_frac"] = traced["timed"] / plain["timed"] - 1
        out.update(
            attempted=sum(map(len, plain["passes"] + traced["passes"])),
            failed=plain["failed"] + traced["failed"], cycles=n,
            root_coverage=roots / (1000 * traced["timed"]), layers=layers)
        os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
        tracer.dump(os.path.join(ROOT, ".bench_work",
                                 f"trace-{args.workload}.jsonl"))
    out["errors"] = loop.errors
    out["known_defects"] = loop.known
    out["by_label"] = loop.by_label
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
