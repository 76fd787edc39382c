"""The lfd benchmark: one command, four workloads, checked answers.

    python3 bench/run.py --workload team --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each was chosen): `team` (model
checking on data tables), `reason` (sat/valid, proof search, interpolation,
relation enumeration), `relational` (Kripke semantics, filtration, the
bridges and the first-order translation) and `cli` (one-shot `lfd` processes
for every verb, error paths included).

Each workload is a closed loop with one client.  Inputs are generated from
`--seed` before anything is timed and written under `.bench_work/`.  The
workload then runs in a fresh interpreter (worker.py), so module-level caches
and peak memory never leak between workloads or runs, and every answer is
checked against a reference outside the timed region.  `setup_s` is the
median, over several fresh interpreters, of process start to the first query.
Times are reported at the reference pace of pace.py: each query and each
set-up is bracketed by samples of a fixed piece of work, which divide out how
fast the shared host happened to run at that moment.  A query's time is its
median over the passes of the run.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs the same passes
untraced and then traced, and prints the per-layer metrics (per pass over the
query pool) with the tracing overhead.  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.  A table for people
goes to standard error.  Exit status 0 means the run completed; a wrong
answer shows as `correct: false`, not as a non-zero status.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import pace

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("team", "reason", "relational", "cli")
SETUP_PROBES = 9
CHILD_TIMEOUT = 150


def metric_units(kind: str) -> dict:
    """Name -> unit of the "end_to_end" or "per_layer" metrics, as
    BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def child_env() -> dict:
    """Workers and the `lfd` processes they start import lfd from this
    checkout; a fixed hash seed keeps set and dict iteration orders, and so
    the work done, the same from run to run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(argv, timeout):
    """Run a worker; returns (spawn time, last JSON line of its stdout)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "worker.py")]
                          + argv, capture_output=True, text=True,
                          timeout=timeout, env=child_env(), cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {argv[:2]} exited {proc.returncode}")
    return t0, json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 smoke: bool) -> dict:
    module = __import__(f"wl_{name}")
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    try:
        module.prepare(seed, workdir, smoke)
        base = ["--workload", name, "--dir", workdir]
        setups = []
        for _ in range(1 if smoke else SETUP_PROBES):
            before = pace.sample()
            t0, out = run_child(base + ["--setup-only"], CHILD_TIMEOUT)
            setups.append(pace.scaled(out["ready"] - t0, before,
                                      pace.sample()))
        _, out = run_child(base + ["--seconds", str(seconds),
                                   "--trace", str(trace)], CHILD_TIMEOUT)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed = out["attempted"], out["failed"]
    if trace:
        values = out["layers"]
        units = metric_units("per_layer")
    else:
        values = dict(out, setup_s=statistics.median(setups),
                      ok_frac=(attempted - failed - out["known_defects"])
                      / attempted)
        units = metric_units("end_to_end")
    metrics = {k: {"value": float(values.get(k, 0.0)), "unit": u}
               for k, u in units.items()}
    report(name, out, metrics, attempted, failed)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def report(name, out, metrics, attempted, failed) -> None:
    err = sys.stderr
    wrong = failed + out["known_defects"]
    err.write(f"== {name}: {attempted} queries in {out['cycles']} passes, "
              f"{failed} failed, {out['known_defects']} known defects "
              f"(fail_frac {wrong / attempted:.4f})\n")
    for k, m in metrics.items():
        err.write(f"  {k:<48} {m['value']:>14.4f} {m['unit']}\n")
    if "unscaled" in out:
        err.write("  times above are at the reference pace; as measured: "
                  + ", ".join(
                      f"{k} {v:.4f}" for k, v in out["unscaled"].items())
                  + "\n")
    for label, (count, ms) in sorted(out["by_label"].items()):
        err.write(f"  {label:<32} {count:>6} calls {ms / count:>12.2f} ms mean\n")
    if "root_coverage" in out:
        err.write(f"  top-level spans cover {100 * out['root_coverage']:.1f}%"
                  " of the traced phase\n")
    for e in out["errors"]:
        err.write(f"  FAIL {e}\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs and one set-up probe, for the "
                    "benchmark's tests")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lfd", "__init__.py")):
        print(f"no lfd sources under {SRC}", file=sys.stderr)
        return 2
    # bytecode as an installed package would have it, before any timing
    if not all(compileall.compile_dir(d, quiet=1, maxlevels=0)
               for d in (os.path.join(SRC, "lfd"), BENCH)):
        print("lfd sources do not compile", file=sys.stderr)
        return 2

    sys.path[:0] = [BENCH, SRC]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds,
                                     args.trace, args.smoke)
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    for name, res in results.items():
        print(json.dumps({"workload": name, **res}))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items()
                    for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
