"""Shared generators and fixtures for the test suite (seeded, deterministic)."""

from __future__ import annotations

import itertools
import os
import random
from typing import Dict, List, Optional, Sequence

from lfd import formulas as F
from lfd.models import DependenceModel, model_from_rows

DATA = os.path.join(os.path.dirname(__file__), "data")


def data_path(name: str) -> str:
    return os.path.join(DATA, name)


DEFAULT_PREDS = {"P": 1, "R": 2}


def random_model(rng: random.Random, variables: Sequence[str],
                 max_objects: int = 4, max_rows: int = 6,
                 preds: Optional[Dict[str, int]] = None) -> DependenceModel:
    preds = DEFAULT_PREDS if preds is None else preds
    variables = tuple(variables)
    n_obj = rng.randint(1, max_objects)
    objects = [str(i) for i in range(n_obj)]
    n_rows = rng.randint(1, max_rows)
    rows = set()
    for _ in range(n_rows):
        rows.add(tuple(rng.choice(objects) for _ in variables))
    interp = {}
    for name, ar in preds.items():
        tuples = set()
        for combo in itertools.product(objects, repeat=ar):
            if rng.random() < 0.4:
                tuples.add(combo)
        interp[name] = tuples
    return model_from_rows(variables, sorted(rows), dict(preds), interp)


def random_varset(rng: random.Random, variables: Sequence[str]) -> frozenset:
    return frozenset(v for v in variables if rng.random() < 0.5)


def random_base_formula(rng: random.Random, variables: Sequence[str],
                        depth: int,
                        preds: Optional[Dict[str, int]] = None) -> F.Formula:
    preds = DEFAULT_PREDS if preds is None else preds
    if depth <= 0:
        kind = rng.randrange(2)
        if kind == 0:
            name = rng.choice(sorted(preds))
            args = tuple(rng.choice(variables) for _ in range(preds[name]))
            return F.Pred(name, args)
        return F.DepAtom(random_varset(rng, variables), rng.choice(variables))
    kind = rng.randrange(4)
    if kind == 0:
        return F.Not(random_base_formula(rng, variables, depth - 1, preds))
    if kind == 1:
        return F.And(random_base_formula(rng, variables, depth - 1, preds),
                     random_base_formula(rng, variables, depth - 1, preds))
    if kind == 2:
        return F.Box(random_varset(rng, variables),
                     random_base_formula(rng, variables, depth - 1, preds))
    return random_base_formula(rng, variables, 0, preds)


def random_surface_formula(rng: random.Random, variables: Sequence[str],
                           depth: int,
                           preds: Optional[Dict[str, int]] = None) -> F.Formula:
    """Random formula over the full surface syntax, for print/parse tests."""
    preds = DEFAULT_PREDS if preds is None else preds
    if depth <= 0:
        kind = rng.randrange(6)
        if kind == 0:
            name = rng.choice(sorted(preds))
            args = tuple(rng.choice(variables) for _ in range(preds[name]))
            return F.Pred(name, args)
        if kind == 1:
            return F.DepAtom(random_varset(rng, variables), rng.choice(variables))
        if kind == 2:
            return F.ConstAtom(rng.choice(variables))
        if kind == 3:
            return F.Indep(random_varset(rng, variables),
                           random_varset(rng, variables),
                           random_varset(rng, variables) if rng.random() < 0.5
                           else None)
        if kind == 4:
            return F.Compare(random_varset(rng, variables),
                             random_varset(rng, variables),
                             random_varset(rng, variables))
        return rng.choice([F.Top(), F.Bot()])
    kind = rng.randrange(12)
    sub = lambda: random_surface_formula(rng, variables, depth - 1, preds)
    if kind == 0:
        return F.Not(sub())
    if kind == 1:
        return F.And(sub(), sub())
    if kind == 2:
        return F.Or(sub(), sub())
    if kind == 3:
        return F.Imp(sub(), sub())
    if kind == 4:
        return F.Iff(sub(), sub())
    if kind == 5:
        return F.Box(random_varset(rng, variables), sub())
    if kind == 6:
        return F.Dia(random_varset(rng, variables), sub())
    if kind == 7:
        return F.Univ(sub())
    if kind == 8:
        return F.Exis(sub())
    if kind == 9:
        return F.Learn(random_varset(rng, variables), sub())
    if kind == 10:
        return F.Announce(sub(), sub())
    return F.CondDep(random_varset(rng, variables), rng.choice(variables), sub())


def random_term(rng: random.Random, variables: Sequence[str],
                depth: int) -> F.Term:
    """Random term: a variable, or a unary/binary application nested to depth."""
    if depth <= 0 or rng.random() < 0.4:
        return F.TermVar(rng.choice(variables))
    return F.TermApp(rng.choice(("f", "g")),
                     tuple(random_term(rng, variables, depth - 1)
                           for _ in range(rng.randint(1, 2))))


def random_any_formula(rng: random.Random, variables: Sequence[str],
                       depth: int) -> F.Formula:
    """Random formula drawing every node class, with nested function terms;
    fit for syntactic helpers only (the AST is not checked for sense)."""
    vs = lambda: random_varset(rng, variables)
    v = lambda: rng.choice(variables)
    term = lambda: random_term(rng, variables, 2)
    leaves = (
        lambda: F.Pred("R", (v(), v())),
        lambda: F.DepAtom(vs(), v()),
        lambda: F.Top(),
        lambda: F.Bot(),
        lambda: F.Indep(vs(), vs(), vs() if rng.random() < 0.5 else None),
        lambda: F.Compare(vs(), vs(), vs()),
        lambda: F.PredT("R", (term(), term())),
        lambda: F.DepAtomT(frozenset(term() for _ in range(rng.randint(0, 2))),
                           term()),
        lambda: F.ConstAtom(v()),
        lambda: F.MultiDep(vs(), vs()),
    )
    if depth <= 0 or rng.random() < 0.2:
        return rng.choice(leaves)()
    sub = lambda: random_any_formula(rng, variables, depth - 1)
    nodes = (
        lambda: F.Not(sub()),
        lambda: F.And(sub(), sub()),
        lambda: F.Box(vs(), sub()),
        lambda: F.CondDep(vs(), v(), sub()),
        lambda: F.Learn(vs(), sub()),
        lambda: F.Announce(sub(), sub()),
        lambda: F.Or(sub(), sub()),
        lambda: F.Imp(sub(), sub()),
        lambda: F.Iff(sub(), sub()),
        lambda: F.Dia(vs(), sub()),
        lambda: F.Univ(sub()),
        lambda: F.Exis(sub()),
        lambda: F.AllQ(vs(), sub()),
        lambda: F.ExQ(vs(), sub()),
    )
    return rng.choice(nodes)()


def random_learn_formula(rng: random.Random, variables: Sequence[str],
                         depth: int) -> F.Formula:
    """Base formulas sprinkled with learning modalities."""
    if depth <= 0:
        return random_base_formula(rng, variables, 0)
    kind = rng.randrange(5)
    if kind == 0:
        return F.Not(random_learn_formula(rng, variables, depth - 1))
    if kind == 1:
        return F.And(random_learn_formula(rng, variables, depth - 1),
                     random_learn_formula(rng, variables, depth - 1))
    if kind == 2:
        return F.Box(random_varset(rng, variables),
                     random_learn_formula(rng, variables, depth - 1))
    if kind == 3:
        return F.Learn(random_varset(rng, variables),
                       random_learn_formula(rng, variables, depth - 1))
    return random_base_formula(rng, variables, 0)


def restaurant_model() -> DependenceModel:
    from lfd.models import load_model
    return load_model(data_path("restaurant.csv"))


def ex27_model() -> DependenceModel:
    from lfd.models import load_model
    return load_model(data_path("ex27.dm"))


def commutation_model() -> DependenceModel:
    from lfd.models import load_model
    return load_model(data_path("commutation.dm"))


def nondef_models():
    """The two-row and three-row pair separating conditional dependence."""
    m = model_from_rows(("x", "y"), [["0", "0"], ["0", "1"]],
                        {"P": 2}, {"P": {("0", "0")}})
    m2 = model_from_rows(("x", "y"), [["0", "0"], ["0", "1"], ["0", "2"]],
                         {"P": 2}, {"P": {("0", "0"), ("0", "2")}})
    return m, m2


def distribution_footnote_model() -> DependenceModel:
    return model_from_rows(("x", "y", "z"),
                           [["1", "1", "1"], ["1", "1", "0"], ["0", "0", "1"]],
                           {"P": 2}, {"P": {("1", "1")}})


def multi_dep(xs: frozenset, ys: frozenset) -> F.Formula:
    return F.conj([F.DepAtom(xs, y) for y in sorted(ys)]) if ys else F.Top()


def axiom_instances(rng: random.Random, variables: Sequence[str], per_schema: int):
    """Concrete instances of every axiom schema of the proof system, keyed by
    schema name; the four introduction instances ride along."""
    out: Dict[str, List[F.Formula]] = {}

    def phi():
        return random_base_formula(rng, variables, rng.randint(0, 2))

    def vset():
        return frozenset(v for v in variables if rng.random() < 0.5)

    out["dist"] = [
        F.Imp(F.Box(xs, F.Imp(a, b)),
              F.Imp(F.Box(xs, a), F.Box(xs, b)))
        for xs, a, b in ((vset(), phi(), phi()) for _ in range(per_schema))]
    intro = []
    for _ in range(per_schema):
        a = phi()
        xs = F.free_vars(a) | vset()
        intro.append(F.Imp(a, F.Box(xs, a)))
    out["intro"] = intro
    out["elim"] = [F.Imp(F.Box(vset(), a), a)
                   for a in (phi() for _ in range(per_schema))]
    proj = []
    for _ in range(per_schema):
        xs = vset() or frozenset((rng.choice(variables),))
        proj.append(F.DepAtom(xs, rng.choice(sorted(xs))))
    out["proj"] = proj
    trans = []
    for _ in range(per_schema):
        xs, ys, zs = vset(), vset(), vset()
        trans.append(F.Imp(F.And(multi_dep(xs, ys), multi_dep(ys, zs)),
                           multi_dep(xs, zs)))
    out["trans"] = trans
    transfer = []
    for _ in range(per_schema):
        xs, ys, a = vset(), vset(), phi()
        transfer.append(F.Imp(F.And(multi_dep(xs, ys), F.Box(ys, a)),
                              F.Box(xs, a)))
    out["transfer"] = transfer
    # the four derivable introduction instances
    out["intro1"] = []
    for _ in range(per_schema):
        name = rng.choice(("P", "R"))
        args = tuple(rng.choice(variables) for _ in range(DEFAULT_PREDS[name]))
        atom = F.Pred(name, args)
        out["intro1"].append(F.Imp(atom, F.Box(frozenset(args), atom)))
    out["intro2"] = [F.Imp(F.Box(xs, a), F.Box(xs, F.Box(xs, a)))
                     for xs, a in ((vset(), phi()) for _ in range(per_schema))]
    out["intro3"] = [F.Imp(F.Not(F.Box(xs, a)), F.Box(xs, F.Not(F.Box(xs, a))))
                     for xs, a in ((vset(), phi()) for _ in range(per_schema))]
    out["intro4"] = [F.Imp(multi_dep(xs, ys), F.Box(xs, multi_dep(xs, ys)))
                     for xs, ys in ((vset(), vset()) for _ in range(per_schema))]
    return out
