"""Satisfiability and validity for the base language via syntactic types.

A Hintikka set is a boolean-coherent subset of the closure set whose
dependence atoms satisfy Projection and Transitivity.  Satisfiability is
decided by partitioning all Hintikka sets into constant-profile cells and
eliminating, per cell, every set whose existential members lack a witness
under the same-frame relation; any type model lies inside one cell and
survives, and a surviving cell is itself a type model.  SAT answers carry a
finite relational witness built from the surviving cell by
:func:`witness_model`, which also builds the quotients of
:func:`lfd.relational.filtrate`.

Hintikka sets and variable sets are bitmasks.  The dependence-atom patterns
of Hintikka sets are the closure tables of :func:`lfd.represent.closure_tables`.
Their number grows so fast (2480 at 4 variables, 1,385,552 at 5) that
:func:`hintikka_sets`, :func:`sat` and :func:`valid` refuse formulas over
more than :data:`VARIABLE_LIMIT` variables with
:class:`lfd.formulas.ClosureCapError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from . import formulas as F
from .models import DependenceModel, model_from_rows
from .relational import RelationalModel
from .represent import VARIABLE_LIMIT, closure_tables

# op codes of compiled closure positions
_CHOICE, _DEP, _TOP, _BOT, _NOT, _AND, _BOX = range(7)
_LEAF = {F.Pred: _CHOICE, F.Top: _TOP, F.Bot: _BOT}


class DecideError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class ClosureIndex:
    """An ordered closure set with the masks used by the type machinery.
    Each position compiles to ``(op, a, b)``: ``(_DEP, X mask, y)``, the
    child positions of ``!``/``&``, or ``(_BOX, body, X mask)``."""

    formulas: Tuple[F.Formula, ...]
    variables: Tuple[str, ...]

    def __post_init__(self):
        pos = {f: i for i, f in enumerate(self.formulas)}
        index = {v: i for i, v in enumerate(self.variables)}
        set_mask = {xs: sum(1 << index[v] for v in xs)
                    for xs in F.subsets(self.variables)}
        free = [set_mask[F.free_vars(f)] for f in self.formulas]
        free_masks = [sum(1 << i for i, fr in enumerate(free) if fr & m == fr)
                      for m in range(len(set_mask))]
        ops = []
        # per variable mask X, the (y, position) of each D{X}y
        deps_at = [[] for _ in set_mask]
        for i, f in enumerate(self.formulas):
            if isinstance(f, F.DepAtom):
                ops.append((_DEP, set_mask[f.xs], index[f.y]))
                deps_at[set_mask[f.xs]].append((index[f.y], i))
            elif isinstance(f, F.Not):
                ops.append((_NOT, pos[f.body], 0))
            elif isinstance(f, F.And):
                ops.append((_AND, pos[f.left], pos[f.right]))
            elif isinstance(f, F.Box):
                ops.append((_BOX, pos[f.body], set_mask[f.xs]))
            else:
                ops.append((_LEAF[type(f)], 0, 0))
        object.__setattr__(self, "_pos", pos)
        object.__setattr__(self, "_set_mask", set_mask)
        object.__setattr__(self, "_free_masks", tuple(free_masks))
        object.__setattr__(self, "_ops", tuple(ops))
        object.__setattr__(self, "_deps_at", tuple(map(tuple, deps_at)))
        # each box as (position, X mask, body position)
        object.__setattr__(self, "_boxes", tuple(
            (i, m, body) for i, (op, body, m) in enumerate(ops) if op == _BOX))

    def position(self, f: F.Formula) -> int:
        try:
            return self._pos[f]
        except KeyError:
            raise DecideError(f"formula outside the closure set: {f!r}")

    def set_mask(self, xs: frozenset) -> int:
        return self._set_mask[frozenset(xs)]

    def free_mask(self, xs: frozenset) -> int:
        return self._free_masks[self.set_mask(xs)]

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

    def dep_mask(self, m: int) -> int:
        """Mask of the variables this set's atoms make depend on mask m."""
        out = 0
        for y, i in self.phi._deps_at[m]:
            out |= (self.bits >> i & 1) << y
        return out

    def dep_closure(self, xs: frozenset) -> frozenset:
        m = self.dep_mask(self.phi.set_mask(xs))
        return frozenset(v for i, v in enumerate(self.phi.variables)
                         if m >> i & 1)


def dep_closure_syntactic(sigma: HintikkaSet, xs: frozenset) -> frozenset:
    """Variables declared dependent on xs by the set's dependence atoms."""
    return sigma.dep_closure(xs)


def _sim_key(s: HintikkaSet, m: int) -> tuple:
    # constant on same-frame classes under variable mask m, distinct across them
    mask = s.phi._free_masks[s.dep_mask(m)]
    return (mask, s.bits & mask)


def sim(sigma: HintikkaSet, delta: HintikkaSet, xs: frozenset) -> bool:
    """Same-frame relation: agreement on formulas framed by sigma's closure."""
    mask, framed = _sim_key(sigma, sigma.phi.set_mask(xs))
    return framed == delta.bits & mask


def closure_index(fs) -> ClosureIndex:
    phi = sorted(F.closure(fs), key=F.sort_key)
    vf = sorted({v for f in phi for v in F.all_vars(f)})
    return ClosureIndex(tuple(phi), tuple(vf))


def hintikka_sets(phi: ClosureIndex) -> List[HintikkaSet]:
    """All Hintikka sets for the closure, in a deterministic order; refuses
    more than :data:`VARIABLE_LIMIT` variables with ``ClosureCapError``."""
    tables = closure_tables(len(phi.variables))
    if len(phi) == 0:
        return [HintikkaSet(phi, 0)]
    ops = phi._ops
    depth = [_depth(f) for f in phi.formulas]
    by_depth = sorted(range(len(ops)), key=depth.__getitem__)
    # a closure system fixes each D{X}y and its negation: atoms[m][c] holds
    # those over variable mask m when the closure of m is c
    neg = {a: i for i, (op, a, _) in enumerate(ops)
           if op == _NOT and ops[a][0] == _DEP}
    atoms = [[sum(1 << (i if c >> y & 1 else neg[i]) for y, i in deps)
              for c in range(len(phi._deps_at))] for deps in phi._deps_at]
    # choice points: predicate atoms and boxes; everything else is derived,
    # bottom-up, by the steps (sorted by depth)
    preds = [i for i in range(len(ops)) if ops[i][0] == _CHOICE]
    steps = [(i,) + ops[i] for i in by_depth if ops[i][0] == _AND or
             ops[i][0] == _NOT and ops[ops[i][1]][0] != _DEP]
    # each box with its body and the number of steps below its depth
    boxes = [(i, ops[i][1], sum(depth[j] < depth[i] for j, *_ in steps))
             for i in by_depth if ops[i][0] == _BOX]
    top = sum(1 << i for i in range(len(ops)) if ops[i][0] == _TOP)
    # predicate choices in enumeration order: the first one varies slowest
    pred_bits = [sum(1 << i for k, i in enumerate(reversed(preds)) if c >> k & 1)
                 for c in range(1 << len(preds))]

    def derive(bits: int, lo: int, hi: int) -> int:
        for i, op, a, b in steps[lo:hi]:
            if op == _NOT:
                bits |= (~bits >> a & 1) << i
            else:
                bits |= (bits >> a & bits >> b & 1) << i
        return bits

    out: List[HintikkaSet] = []

    def choose(k: int, bits: int, done: int) -> None:
        if k == len(boxes):
            out.append(HintikkaSet(phi, derive(bits, done, len(steps))))
            return
        i, body, ready = boxes[k]
        bits = derive(bits, done, ready)
        choose(k + 1, bits, ready)
        if bits >> body & 1:
            choose(k + 1, bits | 1 << i, ready)

    for cl in tables:
        bits = top
        for m, c in enumerate(cl):
            bits |= atoms[m][c]
        for p in pred_bits:
            choose(0, bits | p, 0)
    return out


def _depth(f: F.Formula) -> int:
    return 1 + max((_depth(c) for c in F.children(f)), default=0)


@dataclass(frozen=True, eq=False)
class TypeModel:
    phi: ClosureIndex
    family: Tuple[HintikkaSet, ...]


def is_type_model(phi: ClosureIndex, family: Sequence[HintikkaSet]) -> bool:
    """One same-frame class under the empty set, in which every lacking box
    has a witness."""
    fam = list(family)
    return (len({_sim_key(s, 0) for s in fam}) <= 1
            and len(_witnessed(phi, fam)) == len(fam))


def type_model_of(m: DependenceModel, phi: ClosureIndex) -> TypeModel:
    """The family of formula types realized by a dependence model's team."""
    from .checker import Evaluator
    ev = Evaluator(m)
    types = {sum(ev.eval(i, f) << k for k, f in enumerate(phi.formulas))
             for i in range(len(m.team))}
    return TypeModel(phi, tuple(HintikkaSet(phi, t) for t in sorted(types)))


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


def _witnessed(phi: ClosureIndex, fam: List[HintikkaSet]) -> List[HintikkaSet]:
    """The sets of fam in which every lacking box{X}body has a witness in
    fam: a set that lacks body and shares their same-frame class under X.  On
    Hintikka sets, Projection makes ``sim`` the equality of ``_sim_key``, and
    a set lacking body lacks the box."""
    dropped = set()
    for i, m, body in phi._boxes:
        lacking = [s for s in fam if not s.bits >> i & 1]
        if lacking:
            keys = [_sim_key(s, m) for s in lacking]
            wit = {k for s, k in zip(lacking, keys) if not s.bits >> body & 1}
            dropped.update(s.bits for s, k in zip(lacking, keys)
                           if k not in wit)
    if not dropped:
        return fam
    return [s for s in fam if s.bits not in dropped]


def _surviving_cells(phi: ClosureIndex, sets: List[HintikkaSet]):
    cells: Dict[tuple, List[HintikkaSet]] = {}
    for s in sets:
        cells.setdefault(_sim_key(s, 0), []).append(s)
    rounds = 0
    survivors: List[List[HintikkaSet]] = []
    for _, fam in sorted(cells.items()):
        keep = _witnessed(phi, fam)
        rounds += 1
        while len(keep) < len(fam):
            fam, keep = keep, _witnessed(phi, keep)
            rounds += 1
        if fam:
            survivors.append(fam)
    return survivors, rounds


def witness_model(phi: ClosureIndex, family: Sequence[HintikkaSet],
                  prefix: str) -> RelationalModel:
    """The general relational model of a family of Hintikka sets: one world
    per set, named prefix + index, holding the set's dependence and predicate
    atoms; =X relates the worlds in one same-frame class under X."""
    worlds = tuple(f"{prefix}{i}" for i in range(len(family)))
    relations = {}
    for xs in F.subsets(phi.variables):
        m = phi.set_mask(xs)
        ids: Dict[tuple, int] = {}
        relations[xs] = {w: ids.setdefault(_sim_key(sigma, m), len(ids))
                         for w, sigma in zip(worlds, family)}
    deps = [(i, (f.xs, f.y)) for i, f in enumerate(phi.formulas)
            if isinstance(f, F.DepAtom)]
    preds = [(i, (f.name, f.args)) for i, f in enumerate(phi.formulas)
             if isinstance(f, F.Pred)]

    def held(atoms):
        return {w: frozenset(a for i, a in atoms if sigma.bits >> i & 1)
                for w, sigma in zip(worlds, family)}

    return RelationalModel(worlds, phi.variables, "general", relations,
                           held(deps), held(preds))


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
             "closure_size": len(phi),
             "relations": len(closure_tables(len(phi.variables)))}
    goal = phi.position(f)
    for fam in survivors:
        for i, sigma in enumerate(fam):
            if sigma.bits >> goal & 1:
                return DecisionResult("sat", witness_model(phi, fam, "w"),
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
