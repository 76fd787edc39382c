"""Independent references for checking answers, run outside the timed region.

Nothing here calls the ``lfd`` code under test: team semantics are evaluated
row by row straight from the definitions, over rows read from the input files
by this module's own readers.  Formulas arrive as ``lfd.formulas`` syntax
trees (plain data), which this module interprets itself.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from lfd import formulas as F

Row = Dict[str, str]


# ---------------------------------------------------------------------------
# Input files, read without lfd


def read_csv(path: str) -> Tuple[Tuple[str, ...], List[Row], dict]:
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    header = tuple(c.strip() for c in lines[0].split(","))
    rows = [dict(zip(header, (c.strip() for c in ln.split(","))))
            for ln in lines[1:]]
    return header, rows, {}


def read_dm(path: str) -> Tuple[Tuple[str, ...], List[Row], dict]:
    variables: Tuple[str, ...] = ()
    rows: List[Row] = []
    interp: Dict[str, set] = {}
    with open(path, encoding="utf-8") as fh:
        for ln in fh:
            parts = ln.split()
            if not parts:
                continue
            if parts[0] == "variables":
                variables = tuple(parts[1:])
            elif parts[0] == "assignment":
                rows.append(dict(zip(variables, parts[1:])))
            elif parts[0] == "predicate":
                interp.setdefault(parts[1], set())
            elif parts[0] == "tuple":
                interp[parts[1]].add(tuple(parts[2:]))
    return variables, rows, interp


def read_team(path: str):
    return read_csv(path) if path.endswith(".csv") else read_dm(path)


# ---------------------------------------------------------------------------
# Team semantics, one row at a time


class TeamRef:
    """Truth at a row of a team, by the definitions of the paper's language.

    Agreement classes are looked up in a per-variable-set index so that a
    check at a handful of sampled rows stays cheap on large teams."""

    def __init__(self, rows: Sequence[Row], interp: dict):
        self.rows = list(rows)
        self.interp = interp
        self._index: Dict[FrozenSet[str], Dict[tuple, List[int]]] = {}
        self._memo: Dict[tuple, bool] = {}
        self._subs: Dict[tuple, Tuple["TeamRef", Dict[int, int]]] = {}

    def key(self, i: int, xs) -> tuple:
        return tuple(self.rows[i][x] for x in sorted(xs))

    def agreeing(self, i: int, xs) -> List[int]:
        xs = frozenset(xs)
        index = self._index.get(xs)
        if index is None:
            index = {}
            for j in range(len(self.rows)):
                index.setdefault(self.key(j, xs), []).append(j)
            self._index[xs] = index
        return index[self.key(i, xs)]

    def info(self, i: int, xs, ys) -> set:
        order = sorted(ys)
        return {tuple(self.rows[j][y] for y in order)
                for j in self.agreeing(i, xs)}

    def _sub(self, tag, members: List[int]) -> Tuple["TeamRef", Dict[int, int]]:
        hit = self._subs.get(tag)
        if hit is None:
            sub = TeamRef([self.rows[j] for j in members], self.interp)
            hit = (sub, {j: pos for pos, j in enumerate(members)})
            self._subs[tag] = hit
        return hit

    def holds(self, i: int, f) -> bool:
        k = (f, i)
        v = self._memo.get(k)
        if v is None:
            v = self._holds(i, f)
            self._memo[k] = v
        return v

    def _holds(self, i: int, f) -> bool:
        row = self.rows[i]
        if isinstance(f, F.Pred):
            return tuple(row[a] for a in f.args) in self.interp.get(f.name, ())
        if isinstance(f, F.Not):
            return not self.holds(i, f.body)
        if isinstance(f, F.And):
            return self.holds(i, f.left) and self.holds(i, f.right)
        if isinstance(f, F.Or):
            return self.holds(i, f.left) or self.holds(i, f.right)
        if isinstance(f, F.Box):
            return all(self.holds(j, f.body) for j in self.agreeing(i, f.xs))
        if isinstance(f, F.DepAtom):
            return all(self.rows[j][f.y] == row[f.y]
                       for j in self.agreeing(i, f.xs))
        if isinstance(f, F.CondDep):
            vals = {self.rows[j][f.y] for j in self.agreeing(i, f.xs)
                    if self.holds(j, f.cond)}
            return not vals or vals == {row[f.y]}
        if isinstance(f, F.Learn):
            members = self.agreeing(i, f.xs)
            sub, pos = self._sub(("learn", f.xs, self.key(i, f.xs)), members)
            return sub.holds(pos[i], f.body)
        if isinstance(f, F.Announce):
            if not self.holds(i, f.ann):
                return True
            members = [j for j in range(len(self.rows))
                       if self.holds(j, f.ann)]
            sub, pos = self._sub(("ann", f.ann), members)
            return sub.holds(pos[i], f.body)
        if isinstance(f, F.Indep):
            cond = f.cond or frozenset()
            return self.info(i, f.xs | cond, f.ys) == self.info(i, cond, f.ys)
        if isinstance(f, F.Compare):
            return self.info(i, f.xs, f.ys) <= self.info(i, f.zs, f.ys)
        raise ValueError(f"reference has no clause for {type(f).__name__}")


def determines(rows: Sequence[Row], xs, y: str, at: Optional[int]) -> bool:
    """Global (at=None) or local (at a row) functional dependence of y on xs."""
    order = sorted(xs)
    if at is not None:
        base = rows[at]
        return all(r[y] == base[y] for r in rows
                   if all(r[x] == base[x] for x in order))
    seen: Dict[tuple, str] = {}
    for r in rows:
        if seen.setdefault(tuple(r[x] for x in order), r[y]) != r[y]:
            return False
    return True


def check_deps_output(text: str, variables: Sequence[str], rows: Sequence[Row],
                      at: Optional[int], planted=()) -> Optional[str]:
    """Every listed set must determine its variable and be minimal; planted
    global dependencies must be covered by some listed set."""
    lines = text.strip().splitlines()
    scope = "local" if at is not None else "global"
    if not lines or not lines[0].startswith(scope):
        return f"deps header {lines[:1]!r}"
    listed: Dict[str, List[frozenset]] = {}
    for ln in lines[1:]:
        y, _, rest = ln.partition(": ")
        sets = [] if rest == "(none)" else [
            frozenset(v for v in tok.strip("{}").split(",") if v)
            for tok in rest.split()]
        listed[y] = sets
    if sorted(listed) != sorted(variables):
        return f"deps lists {sorted(listed)}"
    for y, sets in listed.items():
        for xs in sets:
            if y in xs or not determines(rows, xs, y, at):
                return f"deps: {sorted(xs)} does not determine {y}"
            for x in xs:
                if determines(rows, xs - {x}, y, at):
                    return f"deps: {sorted(xs)} -> {y} is not minimal"
    if at is None:
        for src, y in planted:
            if not any(xs <= frozenset(src) for xs in listed[y]):
                return f"deps: planted {sorted(src)} -> {y} not covered"
    return None


# ---------------------------------------------------------------------------
# Dependence relations


CLOSURE_SYSTEMS = {0: 1, 1: 2, 2: 7, 3: 61, 4: 2480}  # OEIS A102896


def subsets(vs: Sequence[str]):
    for n in range(len(vs) + 1):
        for combo in itertools.combinations(sorted(vs), n):
            yield frozenset(combo)


def is_dependence_relation(variables, pairs) -> bool:
    """Reflexivity, Monotonicity and Transitivity on (set, variable) pairs."""
    subs = list(subsets(variables))
    holds = {xs: {y for (us, y) in pairs if us == xs} for xs in subs}
    for xs in subs:
        if not xs <= holds[xs]:
            return False
        for ys in subs:
            if xs <= ys and not holds[xs] <= holds[ys]:
                return False
            if ys <= holds[xs] and not holds[ys] <= holds[xs]:
                return False
    return True
