"""Seeded input generators for the benchmark workloads.

Everything here depends only on the seed and the standard library, so the
same seed always yields the same input files and query texts.
"""

from __future__ import annotations

import itertools
import random
import re
from typing import Dict, List, Sequence

TEAM_VARS = ("a", "b", "c", "d", "e", "f")
# free columns and their cardinalities, drawn with a Zipf-like skew
TEAM_CARD = {"a": 96, "b": 16, "e": 10}
# planted functional dependencies: (sources, target, target cardinality)
PLANTED = ((("a",), "c", 8), (("a", "b"), "d", 12), (("d", "e"), "f", 6))
SMALL_COLS = ("c", "d", "e", "f")


def _cum_weights(k: int, s: float = 1.1) -> List[float]:
    return list(itertools.accumulate(1.0 / (i + 1) ** s for i in range(k)))


def make_team(rng: random.Random, n_rows: int) -> List[tuple]:
    """Distinct rows over TEAM_VARS with skewed free columns and the PLANTED
    dependencies; values are column-tagged tokens such as 'a17'."""
    funcs: Dict[str, dict] = {y: {} for _, y, _ in PLANTED}
    cum = {x: _cum_weights(k) for x, k in TEAM_CARD.items()}
    rows: List[tuple] = []
    seen = set()
    while len(rows) < n_rows:
        batch = {x: rng.choices(range(k), cum_weights=cum[x], k=n_rows)
                 for x, k in TEAM_CARD.items()}
        for key in zip(*batch.values()):
            if key in seen or len(rows) == n_rows:
                continue
            seen.add(key)
            row = {x: f"{x}{v}" for x, v in zip(TEAM_CARD, key)}
            for src, y, card in PLANTED:
                arg = tuple(row[x] for x in src)
                if arg not in funcs[y]:
                    funcs[y][arg] = f"{y}{rng.randrange(card)}"
                row[y] = funcs[y][arg]
            rows.append(tuple(row[x] for x in TEAM_VARS))
    return rows


def make_predicates(rng: random.Random, rows: Sequence[tuple]) -> Dict[str, set]:
    """P: unary, about half of all values; R: binary on the small columns.
    Row 0's values are put in both, so announcing P(a) or R(c,e) never
    empties the team."""
    objects = sorted({v for row in rows for v in row})
    cols = [TEAM_VARS.index(x) for x in SMALL_COLS]
    small = sorted({row[i] for row in rows for i in cols})
    p = {(o,) for o in objects if rng.random() < 0.5}
    r = {pair for pair in itertools.product(small, repeat=2)
         if rng.random() < 0.3}
    first = dict(zip(TEAM_VARS, rows[0]))
    p.add((first["a"],))
    r.add((first["c"], first["e"]))
    return {"P": p, "R": r}


def dep_holds_somewhere(rows: Sequence[tuple], variables: Sequence[str],
                        xs: Sequence[str], y: str) -> bool:
    """Is D{xs}y true at some row, i.e. is some xs-class constant on y?"""
    idx = [variables.index(x) for x in xs]
    iy = variables.index(y)
    vals: Dict[tuple, set] = {}
    for row in rows:
        vals.setdefault(tuple(row[i] for i in idx), set()).add(row[iy])
    return any(len(v) == 1 for v in vals.values())


def csv_text(variables: Sequence[str], rows: Sequence[tuple]) -> str:
    return "\n".join([",".join(variables)] + [",".join(r) for r in rows]) + "\n"


def dm_text(variables: Sequence[str], rows: Sequence[tuple],
            preds: Dict[str, set]) -> str:
    out = ["variables " + " ".join(variables)]
    out.extend("assignment " + " ".join(r) for r in rows)
    for name in sorted(preds):
        out.append(f"predicate {name} {PREDS[name]}")
        out.extend(f"tuple {name} " + " ".join(t) for t in sorted(preds[name]))
    return "\n".join(out) + "\n"


PREDS = {"P": 1, "R": 2}


def random_formula(rng: random.Random, variables: Sequence[str],
                   depth: int, modal: bool = True) -> str:
    """A random base formula as text: atoms P/1, R/2 and D{X}y under
    negation, conjunction, implication and box{X}; with modal=False only
    dependence atoms under the boolean connectives."""
    if depth == 0 or rng.random() < 0.25:
        if modal and rng.random() < 0.5:
            name = rng.choice(sorted(PREDS))
            args = [rng.choice(variables) for _ in range(PREDS[name])]
            return f"{name}({','.join(args)})"
        return f"D{{{','.join(random_subset(rng, variables))}}}" \
               f"{rng.choice(variables)}"
    kind = rng.randrange(4 if modal else 3)
    sub = random_formula(rng, variables, depth - 1, modal)
    if kind == 0:
        return f"!({sub})"
    if kind == 3:
        return f"box{{{','.join(random_subset(rng, variables))}}}({sub})"
    op = "&" if kind == 1 else "->"
    return f"({sub} {op} {random_formula(rng, variables, depth - 1, modal)})"


def random_subset(rng: random.Random, variables: Sequence[str]) -> List[str]:
    return sorted(v for v in variables if rng.random() < 0.5)


def formula_shape(text: str):
    """(variables mentioned, distinct predicate atoms) of a formula text."""
    atoms = set(re.findall(r"[PR]\([a-z,]*\)", text))
    names = set(re.findall(r"[a-z]", re.sub(r"box|[PRD]\(|[A-Z]", " ", text)))
    return names, atoms


def draw_formula(rng: random.Random, variables: Sequence[str], depth: int,
                 max_atoms: int, modal: bool = True) -> str:
    """A random formula that mentions every variable and at most
    `max_atoms` distinct predicate atoms, so its closure size, and with it
    the cost of deciding it, stays within a narrow band."""
    while True:
        text = random_formula(rng, variables, depth, modal)
        names, atoms = formula_shape(text)
        if names == set(variables) and len(atoms) <= max_atoms:
            return text


def make_uniform_team(rng: random.Random, n_vars: int, n_values: int,
                      n_rows: int) -> List[tuple]:
    """Distinct rows of n_vars values drawn uniformly from o0..o<n_values-1>."""
    rows = set()
    while len(rows) < n_rows:
        rows.add(tuple(f"o{rng.randrange(n_values)}" for _ in range(n_vars)))
    return sorted(rows)


def make_object_predicates(rng: random.Random, n_values: int) -> Dict[str, set]:
    """P on half of the objects, R on 40% of the pairs: fixed densities keep
    the cost of short-circuiting evaluators steady from seed to seed."""
    objects = [f"o{i}" for i in range(n_values)]
    pairs = list(itertools.product(objects, repeat=2))
    return {"P": {(o,) for o in rng.sample(objects, n_values // 2)},
            "R": set(rng.sample(pairs, (len(pairs) * 2) // 5))}
