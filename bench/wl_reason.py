"""Workload `reason`: decision and proof on the base language.

A seeded draw of base formulas: many over two variables, some over three,
and a few fixed four-variable formulas.  `valid` and `sat` queries run
`decide` and then a fresh `prover.Prover` on the same goal
(a fresh one, so the module-level memo never turns a repeat into a cache
hit); the two verdicts must agree, and every witness or countermodel is
checked with `relational.eval_rel` outside the timed region.  Interpolants
are extracted from proofs of seeded implications and checked with `decide`;
`represent.enumerate_dependence_relations` runs for 2, 3 and 4 variables and
is checked against the known numbers of closure systems.
"""

from __future__ import annotations

import json
import os
import random

import gen
import oracle
from spans import standard_layers
from worker import Query

# (class, variables, depth, max predicate atoms, modal, valid queries, sat
# queries).  The two-variable draws are many and cheap and set the median.
# The three-variable draws use dependence atoms only, so each has the same
# closure and a like cost; with four heavier queries above them, the 95th
# percentile falls in the upper part of that cluster, not between clusters.
# The cluster is large enough that this quantile of its seeded draws, and
# the costlier two-variable schema instances that reach into it, changes
# little from seed to seed.
DRAWS = (("2", "xy", 2, 2, True, 168, 48), ("3", "xyz", 2, 0, False, 16, 8))
# valid schema instances mixed into the two-variable valid queries
SCHEMAS = ("(box{{{X}}}({A}) -> {A})",
           "(box{{{X}}}(({A} -> {B})) -> (box{{{X}}}({A}) -> box{{{X}}}({B})))",
           "(!(box{{{X}}}({A})) -> box{{{X}}}(!(box{{{X}}}({A}))))",
           "({A} -> ({B} -> {A}))")
# four-variable formulas, about a second each to decide: the tail that
# faster closure-system enumeration and lazy sat target, and most of the
# time of a pass.  They are few so that a run holds enough passes for a
# steady median per query, and their variable names are fixed: a renaming
# changes the proof search order, and with it the cost by up to a third.
FOUR_VALID = ("D{x}y & D{y}z & D{z}w -> D{x}w", "D{x}y & D{z}w -> D{x,z}{y,w}")
FOUR_SAT = ("D{x}y & !D{y}x & D{z,w}x",)
INTERPOLANTS = 4


def prepare(seed: int, workdir: str, smoke: bool) -> None:
    rng = random.Random(seed)
    queries = []
    for cls, vs, depth, atoms, modal, n_valid, n_sat in DRAWS:
        if smoke:
            n_valid, n_sat = 2, 1
        for k in range(n_valid):
            if cls == "2" and k % 2:
                text = rng.choice(SCHEMAS).format(
                    X=",".join(gen.random_subset(rng, vs)),
                    A=gen.draw_formula(rng, vs, 0, 1),
                    B=gen.draw_formula(rng, vs, 0, 1))
            else:
                text = gen.draw_formula(rng, vs, depth, atoms, modal)
            queries.append({"label": f"reason/valid{cls}", "kind": "valid",
                            "text": text})
        for _ in range(n_sat):
            queries.append({"label": f"reason/sat{cls}", "kind": "sat",
                            "text": gen.draw_formula(rng, vs, depth, atoms,
                                                     modal)})
    for _ in range(1 if smoke else INTERPOLANTS):
        shared = gen.draw_formula(rng, "xy", 1, 1)
        queries.append({
            "label": "reason/interpolant", "kind": "interpolant",
            "left": f"(({shared}) & ({gen.draw_formula(rng, 'xyz', 1, 1)}))",
            # parenthesised: 'D{x}y | (...)' would read as conditional
            "right": f"(({shared}) | ({gen.draw_formula(rng, 'xy', 1, 1)}))"})
    for n in (2, 3) if smoke else (2, 3, 4):
        queries.append({"label": f"reason/represent{n}", "kind": "represent",
                        "n": n})
    if not smoke:
        for texts, kind in ((FOUR_VALID, "valid"), (FOUR_SAT, "sat")):
            queries += [{"label": f"reason/{kind}4", "kind": kind,
                         "text": text} for text in texts]
    rng.shuffle(queries)
    with open(os.path.join(workdir, "spec.json"), "w") as fh:
        json.dump({"queries": queries}, fh)


def setup(workdir: str):
    from lfd import decide, parser, prover, relational, represent
    from lfd import formulas as F

    with open(os.path.join(workdir, "spec.json")) as fh:
        spec = json.load(fh)

    def decide_stats(result, counters):
        r, proved = result
        for key in ("hintikka_sets", "elimination_rounds", "closure_size"):
            counters[key] = counters.get(key, 0) + r.stats[key]
        witness = getattr(r, "witness", None) or getattr(r, "countermodel",
                                                         None)
        if witness is not None:
            counters["witness_worlds"] = \
                counters.get("witness_worlds", 0) + len(witness.worlds)
            counters["witnessed_sets"] = \
                counters.get("witnessed_sets", 0) + r.stats["hintikka_sets"]
        counters["goals"] = counters.get("goals", 0) + 1
        counters["proved"] = counters.get("proved", 0) + int(proved)

    def make(q):
        kind, label = q["kind"], q["label"]
        if kind == "represent":
            n = q["n"]
            variables = "xyzw"[:n]

            def summary_rep(rels):
                pairs = {r.pairs for r in rels}
                step = max(1, len(rels) // 25)
                sound = all(oracle.is_dependence_relation(variables, r.pairs)
                            for r in rels[::step])
                return len(rels), len(pairs), sound

            def check_rep(s):
                want = oracle.CLOSURE_SYSTEMS[n]
                if s != (want, want, True):
                    return f"{n} variables: (count, distinct, sound) {s}, " \
                           f"expected {want} relations"
                return None

            def count_rep(rels, counters):
                counters["relations"] = counters.get("relations", 0) + len(rels)

            return Query(label,
                         lambda: represent.enumerate_dependence_relations(
                             variables),
                         summary_rep, check_rep, count_rep)

        if kind == "interpolant":
            left, right = parser.parse(q["left"]), parser.parse(q["right"])

            def run_interp():
                pv = prover.Prover()
                tree = pv.prove(prover.sequent([left], [right]))
                return prover.interpolant(tree, prover=pv)

            def check_interp(theta):
                # theta arrives as its printed form; decide is independent
                # of the proof search that produced it
                t = parser.parse(theta)
                for f in (F.Imp(left, t), F.Imp(t, right)):
                    if decide.valid(f).status != "valid":
                        return f"interpolant {theta} of {q['left']} => " \
                               f"{q['right']} fails {parser.format_formula(f)}"
                return None

            return Query(label, run_interp, parser.format_formula,
                         check_interp)

        f = F.desugar(parser.parse(q["text"]))
        text = q["text"]
        if kind == "valid":
            goal = prover.sequent([], [f])

            def run_valid():
                return decide.valid(f), prover.Prover().proves(goal)

            def summary_valid(res):
                r, proved = res
                counter_ok = r.status == "valid" or not relational.eval_rel(
                    r.countermodel, r.countermodel_world, f)
                return r.status, proved, counter_ok

        else:
            goal = prover.sequent([f], [])

            def run_valid():
                return decide.sat(f), prover.Prover().proves(goal)

            def summary_valid(res):
                r, refuted = res
                witness_ok = r.status == "unsat" or relational.eval_rel(
                    r.witness, r.witness_world, f)
                return r.status, not refuted, witness_ok

        def check_verdict(s):
            status, prover_yes, model_ok = s
            if (status in ("valid", "sat")) != prover_yes:
                return f"{kind} {text}: decide says {status}, prover disagrees"
            if not model_ok:
                return f"{kind} {text}: witness does not satisfy the formula"
            return None

        return Query(label, run_valid, summary_valid, check_verdict,
                     decide_stats)

    return [make(q) for q in spec["queries"]]


def layers(tracer, agg, counters, cycles):
    out = standard_layers(agg, cycles)
    per = {k: v / cycles for k, v in counters.items()}
    out["decide.hintikka_sets.count"] = per.get("hintikka_sets", 0)
    out["decide.elimination_rounds"] = per.get("elimination_rounds", 0)
    out["decide.closure_size"] = per.get("closure_size", 0)
    sets = counters.get("witnessed_sets", 0)
    out["decide.witness_share"] = \
        counters.get("witness_worlds", 0) / sets if sets else 0.0
    out["represent.relations.count"] = per.get("relations", 0)
    out["prover.goals"] = per.get("goals", 0)
    out["prover.proved"] = per.get("proved", 0)
    return out
