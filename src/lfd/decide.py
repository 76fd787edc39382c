"""Satisfiability and validity for the base language via syntactic types.

A Hintikka set is a boolean-coherent subset of the closure set whose
dependence atoms satisfy Projection and Transitivity.  Satisfiability is
decided by partitioning all Hintikka sets into constant-profile cells and
eliminating, per cell, every set whose existential members lack a witness
under the same-frame relation; any type model lies inside one cell and
survives, and a surviving cell is itself a type model.  SAT answers carry a
finite relational witness built from the surviving cell.

The dependence-atom patterns of Hintikka sets are the relations that
:func:`lfd.represent.enumerate_dependence_relations` enumerates.  Their
number grows so fast (2480 at 4 variables, 1,385,552 at 5) that :func:`sat`
and :func:`valid` refuse formulas over more than :data:`VARIABLE_LIMIT`
variables with :class:`lfd.formulas.ClosureCapError`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from . import formulas as F
from .models import DependenceModel, model_from_rows
from .relational import RelationalModel
from .represent import enumerate_dependence_relations

# sat/valid refuse formulas over more variables than this
VARIABLE_LIMIT = 4


class DecideError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class ClosureIndex:
    """An ordered closure set with the masks used by the type machinery."""

    formulas: Tuple[F.Formula, ...]
    variables: Tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "_pos", {f: i for i, f in enumerate(self.formulas)})
        object.__setattr__(self, "_free", tuple(F.free_vars(f) for f in self.formulas))
        masks = {}
        for xs in F.subsets(self.variables):
            m = 0
            for i, fr in enumerate(self._free):
                if fr <= xs:
                    m |= 1 << i
            masks[xs] = m
        object.__setattr__(self, "_free_mask", masks)

    def position(self, f: F.Formula) -> int:
        try:
            return self._pos[f]
        except KeyError:
            raise DecideError(f"formula outside the closure set: {f!r}")

    def free_mask(self, xs: frozenset) -> int:
        return self._free_mask[frozenset(xs)]

    def __len__(self) -> int:
        return len(self.formulas)


@dataclass(frozen=True, eq=True)
class HintikkaSet:
    phi: ClosureIndex = field(compare=False)
    bits: int = 0

    def contains(self, f: F.Formula) -> bool:
        return bool(self.bits >> self.phi.position(f) & 1)

    def truth(self, f: F.Formula) -> bool:
        """Membership read through explicit negation when needed."""
        if f in self.phi._pos:
            return self.contains(f)
        if isinstance(f, F.Not):
            return not self.truth(f.body)
        raise DecideError(f"formula outside the closure set: {f!r}")

    @property
    def formulas(self) -> FrozenSet[F.Formula]:
        return frozenset(f for i, f in enumerate(self.phi.formulas)
                         if self.bits >> i & 1)

    def dep_closure(self, xs: frozenset) -> frozenset:
        return frozenset(y for y in self.phi.variables
                         if self.contains(F.DepAtom(frozenset(xs), y)))


def dep_closure_syntactic(sigma: HintikkaSet, xs: frozenset) -> frozenset:
    """Variables declared dependent on xs by the set's dependence atoms."""
    return sigma.dep_closure(xs)


def sim(sigma: HintikkaSet, delta: HintikkaSet, xs: frozenset) -> bool:
    """Same-frame relation: agreement on formulas framed by sigma's closure."""
    mask = sigma.phi.free_mask(sigma.dep_closure(xs))
    return sigma.bits & mask == delta.bits & mask


def closure_index(fs, var_cap: int = 12) -> ClosureIndex:
    phi = sorted(F.closure(fs, var_cap=var_cap), key=F.sort_key)
    vf = sorted({v for f in phi for v in F.all_vars(f)})
    return ClosureIndex(tuple(phi), tuple(vf))


def hintikka_sets(phi: ClosureIndex) -> List[HintikkaSet]:
    """All Hintikka sets for the closure, in a deterministic order."""
    if len(phi) == 0:
        return [HintikkaSet(phi, 0)]
    formulas = phi.formulas
    # choice points: predicate atoms and boxes; everything else is derived
    preds = [f for f in formulas if isinstance(f, (F.Pred, F.PredT))]
    boxes = sorted((f for f in formulas if isinstance(f, F.Box)),
                   key=lambda b: _depth(b))
    out: List[HintikkaSet] = []
    for rel in enumerate_dependence_relations(phi.variables):
        rel_truth = {}
        for f in formulas:
            if isinstance(f, F.DepAtom):
                rel_truth[f] = rel.holds(f.xs, f.y)

        def assign(i_pred: int, i_box: int, truth: Dict[F.Formula, bool]):
            if i_pred < len(preds):
                f = preds[i_pred]
                for val in (False, True):
                    t2 = dict(truth)
                    t2[f] = val
                    assign(i_pred + 1, i_box, t2)
                return
            if i_box < len(boxes):
                b = boxes[i_box]
                body_true = _truth(b.body, truth)
                options = (False, True) if body_true else (False,)
                for val in options:
                    t2 = dict(truth)
                    t2[b] = val
                    assign(i_pred, i_box + 1, t2)
                return
            bits = 0
            for i, f in enumerate(formulas):
                if _truth(f, truth):
                    bits |= 1 << i
            out.append(HintikkaSet(phi, bits))

        assign(0, 0, dict(rel_truth))
    return out


def _depth(f: F.Formula) -> int:
    return 1 + max((_depth(c) for c in F.children(f)), default=0)


def _truth(f: F.Formula, choice: Dict[F.Formula, bool]) -> bool:
    if f in choice:
        return choice[f]
    if isinstance(f, F.Top):
        return True
    if isinstance(f, F.Bot):
        return False
    if isinstance(f, F.Not):
        return not _truth(f.body, choice)
    if isinstance(f, F.And):
        return _truth(f.left, choice) and _truth(f.right, choice)
    raise DecideError(f"unassigned atom in closure: {f!r}")


@dataclass(frozen=True, eq=False)
class TypeModel:
    phi: ClosureIndex
    family: Tuple[HintikkaSet, ...]


def is_type_model(phi: ClosureIndex, family: Sequence[HintikkaSet]) -> bool:
    fam = list(family)
    for a, b in itertools.product(fam, repeat=2):
        if not sim(a, b, frozenset()):
            return False
    boxes = [f for f in phi.formulas if isinstance(f, F.Box)]
    for sigma in fam:
        for b in boxes:
            if sigma.contains(b):
                continue
            # E_X !body demands a witness where the body fails
            if not any(sim(sigma, delta, b.xs) and not delta.truth(b.body)
                       for delta in fam):
                return False
    return True


def type_model_of(m: DependenceModel, phi: ClosureIndex) -> TypeModel:
    """The family of formula types realized by a dependence model's team."""
    from .checker import Evaluator
    ev = Evaluator(m)
    seen = {}
    for i in range(len(m.team)):
        bits = 0
        for k, f in enumerate(phi.formulas):
            if ev.eval(i, f):
                bits |= 1 << k
        seen[bits] = HintikkaSet(phi, bits)
    fam = tuple(seen[b] for b in sorted(seen))
    return TypeModel(phi, fam)


@dataclass(frozen=True, eq=False)
class DecisionResult:
    status: str  # "sat" | "unsat"
    witness: Optional[RelationalModel]
    witness_world: Optional[str]
    stats: Dict[str, int]


@dataclass(frozen=True, eq=False)
class ValidityResult:
    status: str  # "valid" | "invalid"
    countermodel: Optional[RelationalModel]
    countermodel_world: Optional[str]
    stats: Dict[str, int]


def _sim_key(phi: ClosureIndex, s: HintikkaSet, xs: frozenset) -> tuple:
    # constant on same-frame classes and distinct across them
    mask = phi.free_mask(s.dep_closure(xs))
    return (mask, s.bits & mask)


def _surviving_cells(phi: ClosureIndex, sets: List[HintikkaSet]):
    boxes = [f for f in phi.formulas if isinstance(f, F.Box)]
    cells: Dict[tuple, List[HintikkaSet]] = {}
    for s in sets:
        cells.setdefault(_sim_key(phi, s, frozenset()), []).append(s)
    key_cache: Dict[tuple, tuple] = {}
    body_cache: Dict[tuple, bool] = {}

    def skey(s: HintikkaSet, b: F.Box) -> tuple:
        k = (s.bits, b.xs)
        out = key_cache.get(k)
        if out is None:
            out = _sim_key(phi, s, b.xs)
            key_cache[k] = out
        return out

    def body_false(s: HintikkaSet, b: F.Box) -> bool:
        k = (s.bits, id(b))
        out = body_cache.get(k)
        if out is None:
            out = not s.truth(b.body)
            body_cache[k] = out
        return out

    rounds = 0
    survivors: List[List[HintikkaSet]] = []
    for key in sorted(cells):
        fam = cells[key]
        changed = True
        while changed:
            rounds += 1
            changed = False
            # per modality, count the witnesses in each same-frame class
            witnesses = []
            for b in boxes:
                counts: Dict[tuple, int] = {}
                for s in fam:
                    if body_false(s, b):
                        k = skey(s, b)
                        counts[k] = counts.get(k, 0) + 1
                witnesses.append(counts)
            keep = []
            for sigma in fam:
                ok = all(sigma.contains(b) or
                         witnesses[i].get(skey(sigma, b), 0) > 0
                         for i, b in enumerate(boxes))
                if ok:
                    keep.append(sigma)
            if len(keep) != len(fam):
                changed = True
                fam = keep
        if fam:
            survivors.append(fam)
    return survivors, rounds


def _witness_model(phi: ClosureIndex, fam: List[HintikkaSet]) -> RelationalModel:
    worlds = tuple(f"w{i}" for i in range(len(fam)))
    relations = {}
    for xs in F.subsets(phi.variables):
        ids: Dict[tuple, int] = {}
        rel = {}
        for w, sigma in zip(worlds, fam):
            mask = phi.free_mask(sigma.dep_closure(xs))
            key = (mask, sigma.bits & mask)
            rel[w] = ids.setdefault(key, len(ids))
        relations[frozenset(xs)] = rel
    dep_atoms = {}
    pred_atoms = {}
    for w, sigma in zip(worlds, fam):
        dep_atoms[w] = frozenset(
            (f.xs, f.y) for f in phi.formulas
            if isinstance(f, F.DepAtom) and sigma.contains(f))
        pred_atoms[w] = frozenset(
            (f.name, f.args) for f in phi.formulas
            if isinstance(f, F.Pred) and sigma.contains(f))
    return RelationalModel(worlds, phi.variables, "general", relations,
                           dep_atoms, pred_atoms)


def sat(phi_formula: F.Formula) -> DecisionResult:
    """Satisfiability over dependence models, with a relational witness."""
    f = F.desugar(phi_formula)
    if not F.is_base(f):
        raise DecideError(
            "satisfiability works on the base language; desugar or reduce first")
    n = len(F.all_vars(f))
    if n > VARIABLE_LIMIT:
        raise F.ClosureCapError(
            f"{n} variables exceed the limit of {VARIABLE_LIMIT} for "
            "satisfiability and validity")
    phi = closure_index([f])
    sets = hintikka_sets(phi)
    survivors, rounds = _surviving_cells(phi, sets)
    stats = {"hintikka_sets": len(sets), "elimination_rounds": rounds,
             "closure_size": len(phi)}
    for fam in survivors:
        for i, sigma in enumerate(fam):
            if sigma.truth(f):
                return DecisionResult("sat", _witness_model(phi, fam),
                                      f"w{i}", stats)
    return DecisionResult("unsat", None, None, stats)


def valid(phi_formula: F.Formula) -> ValidityResult:
    """Validity over dependence models; invalid answers carry a countermodel."""
    r = sat(F.Not(F.desugar(phi_formula)))
    if r.status == "unsat":
        return ValidityResult("valid", None, None, r.stats)
    return ValidityResult("invalid", r.witness, r.witness_world, r.stats)


def agreement_depth(f: F.Formula) -> int:
    """Modal depth for the bounded-realization guarantee; dependence atoms
    quantify over the team and therefore count as one step."""
    if isinstance(f, F.DepAtom):
        return 1
    if isinstance(f, (F.Pred, F.Top, F.Bot)):
        return 0
    if isinstance(f, F.Not):
        return agreement_depth(f.body)
    if isinstance(f, F.And):
        return max(agreement_depth(f.left), agreement_depth(f.right))
    if isinstance(f, F.Box):
        return 1 + agreement_depth(f.body)
    raise DecideError(f"not a base formula: {f!r}")


def realize_bounded(t: TypeModel, depth: int) -> DependenceModel:
    """Concrete dependence model from a type model, via bounded good paths.

    Paths of up to `depth` Hintikka sets linked by same-frame transitions;
    values are reused along a transition exactly for the variables in the
    source set's dependence closure.  Truth at the root assignment agrees
    with root membership only for formulas of :func:`agreement_depth` at most
    ``depth - 1``; the unbounded construction is not attempted.
    """
    if depth < 1:
        raise DecideError("depth must be >= 1")
    phi = t.phi
    fam = list(t.family)
    if not fam:
        raise DecideError("empty type model")
    if not is_type_model(phi, fam):
        raise DecideError("family is not a type model")
    vs = phi.variables
    root = (0,)
    paths = [root]
    frontier = [root]
    for _ in range(depth - 1):
        new = []
        for p in frontier:
            sigma = fam[p[-1]]
            for xs in F.subsets(vs):
                for j, delta in enumerate(fam):
                    if sim(sigma, delta, xs):
                        new.append(p + (tuple(sorted(xs)), j))
        paths.extend(new)
        frontier = new

    path_id = {p: i for i, p in enumerate(paths)}
    values: Dict[tuple, Dict[str, str]] = {}
    for p in paths:
        if len(p) == 1:
            values[p] = {x: f"p0.{x}" for x in vs}
            continue
        prev, xs = p[:-2], frozenset(p[-2])
        kept = fam[prev[-1]].dep_closure(xs)
        prev_vals = values[prev]
        tag = f"p{path_id[p]}"
        values[p] = {x: prev_vals[x] if x in kept else f"{tag}.{x}"
                     for x in vs}

    arities: Dict[str, int] = {}
    tuples: Dict[str, set] = {}
    for f in phi.formulas:
        if isinstance(f, F.Pred):
            arities.setdefault(f.name, len(f.args))
    for p in paths:
        sigma = fam[p[-1]]
        v = values[p]
        for f in sigma.formulas:
            if isinstance(f, F.Pred):
                tuples.setdefault(f.name, set()).add(tuple(v[x] for x in f.args))
    rows = dict.fromkeys(tuple(values[p][x] for x in vs) for p in paths)
    return model_from_rows(vs, list(rows), arities, tuples)
