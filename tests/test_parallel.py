"""The library's claim that its queries are safe to run in parallel: threads
sharing the closure-system tables, a relational model's partition index and
one dependence model give the answers of a serial run."""

import random
import sys
from concurrent.futures import ThreadPoolExecutor

from helpers import random_base_formula, random_model
from lfd import checker, decide, represent
from lfd.parser import parse
from lfd.relational import dumps_relational, eval_rel, filtrate, rel_of

FOUR_VARIABLE = ("D{x}y & D{y}z -> D{x,w}z", "D{x,z}y -> D{x}y | D{z}w")


def jobs(m, r, formulas):
    """Calls over the shared inputs, each returning a comparable answer."""
    out = [lambda text=text: decide.valid(parse(text)).status
           for text in FOUR_VARIABLE * 2]
    for f in formulas:
        out += [lambda f=f, w=w: eval_rel(r, w, f) for w in r.worlds]
        out.append(lambda f=f: checker.truth_set(m, f))
        out.append(lambda f=f: dumps_relational(filtrate(r, f)))
    return out


def test_threads_agree_with_serial_run(monkeypatch):
    rng = random.Random(31)
    vs = ("x", "y", "z")
    m = random_model(rng, vs, max_objects=5, max_rows=30)
    formulas = [random_base_formula(rng, vs, rng.randint(1, 3))
                for _ in range(8)]
    # fresh tables and a fresh partition index for the threads to fill,
    # with frequent thread switches to widen the races
    monkeypatch.setattr(represent, "_TABLES", {})
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(job)
                       for job in jobs(m, rel_of(m), formulas)]
            parallel = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setattr(represent, "_TABLES", {})
    serial = [job() for job in jobs(m, rel_of(m), formulas)]
    assert parallel == serial
    assert parallel[:2] == ["valid", "invalid"]
