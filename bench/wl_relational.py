"""Workload `relational`: Kripke semantics, filtration and the bridges.

Seeded teams of 150 and 300 rows over four variables with six values each,
plus predicates.  Per pass: `rel_of`, `validate`, `eval_rel` at every world
for a set of formulas, a `dep_of` round trip, and on a 150-row team
`filtrate` followed by `validate` and `unravel` (depth 1 and 2) of the
quotient; `fol.to_fol`/`eval_fol` run on a small team.  The checker serves
only as an untimed oracle here, so a checker-only speed-up should leave this
workload unchanged.
"""

from __future__ import annotations

import itertools
import json
import os
import random

import gen
import oracle
from spans import standard_layers
from worker import Query

VARS = ("u", "v", "x", "y")
VALUES = 6
# Three 150-row teams and one of 300 rows.  eval_rel at every world of the
# 150-row teams is the cluster that holds the median; its formulas have one
# modal layer, so their cost is set by the relation scans, not by where the
# data lets a scan stop early.  The 300-row team shows the quadratic growth.
SIZES = {"small0": 150, "small1": 150, "small2": 150, "large": 300}
EVAL_SMALL = ["D{u}v", "D{u,v}x", "D{u}v & !D{x}y", "box{u}P(v)",
              "box{v}R(u,x)", "box{u,v}R(x,y)", "!box{}(P(u) | P(v))",
              "P(u) -> box{x}P(y)"]
EVAL_LARGE = ["D{u,v}x", "box{v}R(u,y)"]
# Filtrations: three formulas of one shape on a 150-row team, the costliest
# queries, holding the 95th percentile.  Two-variable formulas keep the
# closure, and so the quotient, small; the 300-row team is left out because
# one filtration there takes several seconds.  Filtrations and formulas on
# the 300-row team are few, so that a run holds enough passes for a steady
# median per query.
FILTRATE = ["box{u}P(v)", "box{x}P(y)", "box{v}P(u)"]
# variables, values, rows: sparse enough that dependence atoms hold somewhere
FOL_TEAM = (3, 4, 16)
FOL = ["D{u,v}x -> box{u}D{v}x", "box{u}(R(u,v) -> D{v}x)",
       "box{x}(P(u) | R(v,x))", "!D{}x & P(u)"]


def prepare(seed: int, workdir: str, smoke: bool) -> None:
    rng = random.Random(seed)
    files = {}
    for team, n in SIZES.items():
        rows = gen.make_uniform_team(rng, len(VARS), VALUES,
                                     n // 8 if smoke else n)
        files[team] = f"{team}.dm"
        with open(os.path.join(workdir, files[team]), "w") as fh:
            fh.write(gen.dm_text(VARS, rows,
                                 gen.make_object_predicates(rng, VALUES)))
    n_vars, n_values, n_rows = FOL_TEAM
    rows = gen.make_uniform_team(rng, n_vars, n_values, n_rows)
    files["fol"] = "fol.dm"
    with open(os.path.join(workdir, "fol.dm"), "w") as fh:
        fh.write(gen.dm_text(VARS[:n_vars], rows,
                             gen.make_object_predicates(rng, n_values)))
    queries = [{"label": "relational/validate", "team": t} for t in SIZES]
    for team in ("small0", "large"):
        queries += [{"label": "relational/rel_of", "team": team},
                    {"label": "relational/dep_of", "team": team}]
    queries += [{"label": "relational/eval_rel", "team": t, "text": text}
                for t in SIZES
                for text in (EVAL_LARGE if t == "large" else EVAL_SMALL)]
    queries += [{"label": "relational/filtrate", "team": "small0",
                 "text": text} for text in FILTRATE]
    queries += [{"label": "relational/fol", "team": "fol", "text": text}
                for text in FOL]
    rng.shuffle(queries)
    with open(os.path.join(workdir, "spec.json"), "w") as fh:
        json.dump({"files": files, "queries": queries}, fh)


def setup(workdir: str):
    from lfd import checker, decide, fol, models, parser, relational

    with open(os.path.join(workdir, "spec.json")) as fh:
        spec = json.load(fh)
    paths = {t: os.path.join(workdir, p) for t, p in spec["files"].items()}
    loaded = {t: models.load_model(p) for t, p in paths.items()}
    rels = {t: relational.rel_of(m) for t, m in loaded.items()
            if t in SIZES}
    structure = fol.structure_of(loaded["fol"])
    raw = {}

    def team_rows(team):
        if team not in raw:
            raw[team] = oracle.read_team(paths[team])
        return raw[team]

    def truth_worlds(team, f):
        return frozenset(f"w{i}" for i in checker.truth_set(loaded[team], f))

    def make(q):
        label, team = q["label"], q["team"]
        m = loaded[team]
        r = rels.get(team)
        kind = label.split("/", 1)[1]
        if kind == "rel_of":
            return Query(label, lambda: relational.rel_of(m),
                         lambda out: bridge_problem(out, team_rows(team)),
                         lambda problem: problem)
        if kind == "validate":
            return Query(label, lambda: relational.validate(r), tuple,
                         lambda problems: "; ".join(problems[:3]) or None)
        if kind == "dep_of":
            return Query(label, lambda: relational.dep_of(r),
                         lambda back: round_trip_problem(back, team_rows(team)),
                         lambda problem: problem)

        f = parser.parse(q["text"])
        text = q["text"]
        if kind == "eval_rel":
            def check_eval(worlds):
                want = truth_worlds(team, f)
                return None if worlds == want else \
                    f"eval_rel {text}: {len(worlds)} worlds, checker {len(want)}"

            return Query(label,
                         lambda: [relational.eval_rel(r, w, f) for w in r.worlds],
                         lambda vals: frozenset(
                             w for w, v in zip(r.worlds, vals) if v),
                         check_eval)
        if kind == "fol":
            variables = m.variables

            def run_fol():
                psi = fol.to_fol(f, variables)
                return tuple(fol.eval_fol(structure, s, psi) for s in m.team)

            def check_fol(vals):
                want = checker.truth_set(m, f)
                got = {i for i, v in enumerate(vals) if v}
                return None if got == want else \
                    f"eval_fol {text}: rows {sorted(got)}, checker {sorted(want)}"

            return Query(label, run_fol, lambda vals: vals, check_fol)

        # filtrate, then validate and unravel the quotient
        def run_filtrate():
            quotient = relational.filtrate(r, f)
            return (quotient, relational.validate(quotient),
                    relational.unravel(quotient, quotient.worlds[0], 1),
                    relational.unravel(quotient, quotient.worlds[0], 2))

        def summary_filtrate(out):
            quotient, problems, u1, u2 = out
            closure = decide.closure_index([f]).formulas
            truth = [checker.truth_set(m, g) for g in closure]
            profiles = {tuple(i in t for t in truth) for i in range(len(m.team))}
            kept = {tuple(relational.eval_rel(quotient, c, g) for g in closure)
                    for c in quotient.worlds}
            return (len(quotient.worlds), tuple(problems),
                    len(profiles), profiles <= kept,
                    (len(u1.worlds), len(u2.worlds)),
                    tuple(history_count(quotient, quotient.worlds[0], d)
                          for d in (1, 2)))

        def check_filtrate(s):
            classes, problems, n_profiles, lemma, unravelled, histories = s
            if problems:
                return f"filtrate {text}: quotient invalid: {problems[0]}"
            if not lemma or classes != n_profiles:
                return f"filtrate {text}: {classes} classes for " \
                       f"{n_profiles} closure profiles"
            if unravelled != histories:
                return f"unravel of filtrate {text}: worlds {unravelled}, " \
                       f"histories {histories}"
            return None

        def count_filtrate(out, counters):
            quotient, _, u1, u2 = out
            counters["classes"] = counters.get("classes", 0) + \
                len(quotient.worlds)
            counters["unravel_worlds"] = counters.get("unravel_worlds", 0) + \
                len(u1.worlds) + len(u2.worlds)

        return Query(label, run_filtrate, summary_filtrate, check_filtrate,
                     count_filtrate)

    return [make(q) for q in spec["queries"]]


def bridge_problem(r, team):
    """rel_of must relate two worlds by x exactly when their rows agree on
    x, and hold exactly the predicate atoms true at the row."""
    variables, rows, interp = team
    if len(r.worlds) != len(rows):
        return f"rel_of: {len(r.worlds)} worlds for {len(rows)} rows"
    for x in variables:
        rel = r.relations[frozenset((x,))]
        pairs = {(rel[f"w{i}"], row[x]) for i, row in enumerate(rows)}
        if len(pairs) != len({p[0] for p in pairs}) or \
                len(pairs) != len({p[1] for p in pairs}):
            return f"rel_of: relation for {x} differs from value agreement"
    for i, row in enumerate(rows):
        want = {(name, args) for name, ext in interp.items()
                for args in _arg_tuples(variables, name)
                if tuple(row[a] for a in args) in ext}
        if set(r.pred_atoms.get(f"w{i}", ())) != want:
            return f"rel_of: atoms at w{i} differ from row {i}"
    return None


def _arg_tuples(variables, name):
    return itertools.product(variables, repeat=gen.PREDS[name])


def round_trip_problem(back, team):
    """dep_of(rel_of(m)) must be m up to renaming values: same rows in the
    same order, the same agreement on every variable, the same atoms."""
    variables, rows, interp = team
    if len(back.team) != len(rows):
        return f"dep_of: {len(back.team)} rows for {len(rows)}"
    for x in variables:
        pairs = {(b[x], row[x]) for b, row in zip(back.team, rows)}
        if len(pairs) != len({p[0] for p in pairs}) or \
                len(pairs) != len({p[1] for p in pairs}):
            return f"dep_of: agreement on {x} changed"
    for b, row in zip(back.team, rows):
        for name, ext in interp.items():
            got_ext = back.interpretation.get(name, frozenset())
            for args in _arg_tuples(variables, name):
                if (tuple(row[a] for a in args) in ext) != \
                        (tuple(b[a] for a in args) in got_ext):
                    return f"dep_of: {name}{args} changed"
    return None


def history_count(r, w0, depth):
    """Paths of at most `depth` steps from w0, each step along a stored
    relation of the model: the worlds an unraveling must have."""
    steps = list(r.relations.values())

    def count(w, d):
        if d == 0:
            return 1
        return 1 + sum(count(v, d - 1) for rel in steps
                       for v in r.worlds if rel[v] == rel[w])
    return count(w0, depth)


def layers(tracer, agg, counters, cycles):
    out = standard_layers(agg, cycles)
    out["relational.filtrate.classes"] = counters.get("classes", 0) / cycles
    out["relational.unravel.worlds"] = \
        counters.get("unravel_worlds", 0) / cycles
    return out
