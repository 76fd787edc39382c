"""In-memory span recorder for the traced benchmark run.

Spans are recorded at the harness's own calls (``begin``/``end``) and, in the
traced run only, around public ``lfd`` functions replaced at every module
attribute that refers to them.  Nothing under ``src/`` is edited: the
wrappers live only in the process that installed them.  A function that is
already on the stack (recursion, or a nested alias such as ``prove`` calling
``Prover.prove``) records only its outermost call.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Dict, List, Tuple

# (span name, owner inside lfd, attribute); owners may be "module.Class"
WRAPPED: Tuple[Tuple[str, str, str], ...] = (
    ("checker.truth_set", "checker", "truth_set"),
    ("checker.eval_formula", "checker", "eval_formula"),
    ("checker.update_announce", "checker", "update_announce"),
    ("models.load_model", "models", "load_model"),
    ("models.global_dep", "models", "global_dep"),
    ("models.local_dep", "models", "local_dep"),
    ("decide.sat", "decide", "sat"),
    ("decide.valid", "decide", "valid"),
    ("decide.closure_index", "decide", "closure_index"),
    ("decide.hintikka_sets", "decide", "hintikka_sets"),
    ("formulas.closure", "formulas", "closure"),
    ("formulas.desugar", "formulas", "desugar"),
    ("represent.enumerate_dependence_relations", "represent",
     "enumerate_dependence_relations"),
    ("prover.proves", "prover.Prover", "prove"),
    ("prover.proves", "prover.Prover", "proves"),
    ("prover.proves", "prover", "prove"),
    ("prover.proves", "prover", "proves"),
    ("prover.interpolant", "prover", "interpolant"),
    ("relational.rel_of", "relational", "rel_of"),
    ("relational.validate", "relational", "validate"),
    ("relational.eval_rel", "relational", "eval_rel"),
    ("relational.filtrate", "relational", "filtrate"),
    ("relational.unravel", "relational", "unravel"),
    ("relational.dep_of", "relational", "dep_of"),
    ("fol.to_fol", "fol", "to_fol"),
    ("fol.eval_fol", "fol", "eval_fol"),
    ("parser.parse", "parser", "parse"),
    ("hilbert.check_hilbert", "hilbert", "check_hilbert"),
)


class Tracer:
    """Spans as (name, start, end, parent index); parent -1 marks a root."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._active: Dict[str, int] = defaultdict(int)
        self._undo: List[tuple] = []
        self.paused = False

    # -- recording

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    # -- wrapping lfd functions

    def _wrapper(self, name: str, orig):
        active = self._active

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if active[name] or self.paused:
                return orig(*args, **kwargs)
            active[name] += 1
            idx = self.begin(name)
            try:
                return orig(*args, **kwargs)
            finally:
                self.end(idx)
                active[name] -= 1
        return wrapper

    def install(self) -> None:
        """Wrap every WRAPPED function wherever an lfd module refers to it."""
        for _, owner_path, _ in WRAPPED:
            importlib.import_module("lfd." + owner_path.split(".")[0])
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "lfd" or k.startswith("lfd."))]
        for name, owner_path, attr in WRAPPED:
            mod_name, _, cls_name = owner_path.partition(".")
            owner = sys.modules[f"lfd.{mod_name}"]
            if cls_name:
                owner = getattr(owner, cls_name)
                orig = owner.__dict__[attr]
                self._undo.append((owner, attr, orig))
                setattr(owner, attr, self._wrapper(name, orig))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrapper(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- reporting

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total ms and self ms (total minus the part
        covered by direct children).  Root spans are also summed under the
        key '' so callers can compare them with the phase's wall time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for i, (name, start, end, parent) in enumerate(self.spans):
            for key in (name, "") if parent < 0 else (name,):
                agg = out[key]
                agg["calls"] += 1
                agg["ms"] += 1000 * (end - start)
                agg["self_ms"] += 1000 * (end - start - child[i])
        return dict(out)

    def root_of(self, idx: int) -> str:
        while self.spans[idx][3] >= 0:
            idx = self.spans[idx][3]
        return self.spans[idx][0]

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# span names whose call counts are reported next to their time
COUNTED = ("models.global_dep", "models.local_dep", "relational.eval_rel",
           "parser.parse")


def standard_layers(agg: Dict[str, Dict[str, float]],
                    cycles: int) -> Dict[str, float]:
    """Per pass over the query pool: `<span>.ms` for every wrapped function,
    `<span>.calls` for COUNTED, and decide.sat's self time."""
    out: Dict[str, float] = {}
    for name, _, _ in WRAPPED:
        out[f"{name}.ms"] = agg.get(name, {}).get("ms", 0.0) / cycles
    for name in COUNTED:
        out[f"{name}.calls"] = agg.get(name, {}).get("calls", 0) / cycles
    out["decide.sat.self_ms"] = \
        agg.get("decide.sat", {}).get("self_ms", 0.0) / cycles
    return out
