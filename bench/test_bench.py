"""Smoke run of every workload at tiny sizes, so the benchmark cannot rot.

    python3 -m pytest bench/test_bench.py -q

Asserts that each run completes, checks its answers and prints exactly the
metrics BENCHMARK.json names; it never asserts on a time.
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run(*args):
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"),
                           "--seed", "3", "--seconds", "0", "--smoke", *args],
                          capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_all_workloads_tiny(trace):
    lines = run("--workload", "all", "--trace", trace)
    key = "end_to_end" if trace == "0" else "per_layer"
    names = {m["name"] for m in spec()[key]}
    workloads = [line for line in lines if "workload" in line]
    assert [w["workload"] for w in workloads] == \
        [w["name"] for w in spec()["workloads"]]
    for w in workloads:
        assert w["correct"] and w["failed"] == 0, w
        assert w["attempted"] >= 1
        assert set(w["metrics"]) == names
        if trace == "0":
            assert all(m["value"] > 0 for m in w["metrics"].values()), w
    assert lines[-1]["correct"]


def test_known_defects_show_in_ok_frac():
    (line,) = run("--workload", "cli", "--trace", "0")
    assert line["failed"] == 0
    assert line["metrics"]["ok_frac"]["value"] < 1.0


def test_refuses_without_sources(tmp_path):
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    (tmp_path / "BENCHMARK.json").write_text(open(spec_path).read())
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in os.listdir(BENCH):
        path = os.path.join(BENCH, name)
        if os.path.isfile(path):
            (bench / name).write_bytes(open(path, "rb").read())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload",
                           "team", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], capture_output=True, text=True,
                          cwd=tmp_path, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
