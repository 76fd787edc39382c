"""Formula ASTs for the logic of functional dependence.

The core language has predicates over variables, negation, conjunction,
dependence modalities ``box{X}`` and dependence atoms ``D{X}y``.  Everything
else (disjunction, implication, dual modalities, quantifiers, multi-target
dependence) is surface sugar that :func:`desugar` rewrites into the core, and
the dynamic/independence operators are first-class extension nodes evaluated
directly by the checker.

Each node field is annotated with its role, which ``Formula.__init_subclass__``
records: ``Formula`` (a subformula), ``Var``, ``Vars``, ``VarSet``,
``OptVarSet`` (a variable; a tuple or set of them; a set or None), ``Name`` (a
predicate name) and ``Term``, ``Terms``, ``TermSet`` (function terms).
:func:`children`, :func:`map_children`, :func:`rename`, :func:`all_vars` and
:func:`modal_depth` are written once over the roles, so a new node class needs
no clause in them.  :func:`sort_key` (an ordering policy), :func:`free_vars`,
:func:`is_base`, :func:`subformulas` and :func:`desugar`'s core and sugar
cases keep a clause per class: they run on every closure formula of every
``sat``/``valid`` call, where role-driven ``sort_key`` and ``free_vars``
measured 2.4 and 1.5 times slower per call.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Union

# field roles (see the module docstring); Formula and Term are the classes
Var = str                        # one variable
Vars = tuple                     # tuple[str, ...]
VarSet = frozenset               # frozenset[str]
OptVarSet = Optional[frozenset]  # frozenset[str] or None
Name = str                       # a predicate name
Terms = tuple                    # tuple[Term, ...]
TermSet = frozenset              # frozenset[Term]
ROLES = frozenset(("Formula", "Var", "Vars", "VarSet", "OptVarSet", "Name",
                   "Term", "Terms", "TermSet"))

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
# closure sets are exponential in the variables; `closure` stops at this many
CLOSURE_VARIABLE_LIMIT = 12


class FormulaError(ValueError):
    """Raised for malformed formulas or misuse of an operation."""


class ClosureCapError(FormulaError):
    """Raised when a closure set would be built over too many variables."""


def check_ident(name: str) -> str:
    if not _IDENT_RE.match(name):
        raise FormulaError(f"invalid identifier {name!r}")
    return name


def varset(names: Iterable[str]) -> VarSet:
    return frozenset(check_ident(n) for n in names)


# ---------------------------------------------------------------------------
# Terms (used only when a function vocabulary is in play)


@dataclass(frozen=True)
class TermVar:
    name: str


@dataclass(frozen=True)
class TermApp:
    func: str
    args: tuple  # tuple[Term, ...]


Term = Union[TermVar, TermApp]


def term_key(t: Term):
    if isinstance(t, TermVar):
        return (0, t.name)
    return (1, t.func, tuple(term_key(a) for a in t.args))


def term_vars(t: Term) -> VarSet:
    if isinstance(t, TermVar):
        return frozenset((t.name,))
    return _terms_vars(t.args)


def _terms_vars(ts: Iterable[Term]) -> VarSet:
    return frozenset().union(*map(term_vars, ts))


# ---------------------------------------------------------------------------
# Formulas


@dataclass(frozen=True)
class Formula:
    _roles = ()  # (field, role) pairs in declaration order
    _kids = ()   # the fields holding subformulas

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        roles = tuple(cls.__dict__.get("__annotations__", {}).items())
        for name, role in roles:
            if role not in ROLES:
                raise TypeError(f"{cls.__name__}.{name}: unknown field role {role!r}")
        cls._roles = roles
        cls._kids = tuple(name for name, role in roles if role == "Formula")


# core
@dataclass(frozen=True)
class Pred(Formula):
    name: Name
    args: Vars


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Box(Formula):
    """Universal dependence modality: the current X-values settle the body."""

    xs: VarSet
    body: Formula


@dataclass(frozen=True)
class DepAtom(Formula):
    """Local dependence atom: the current X-values determine y's value."""

    xs: VarSet
    y: Var


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bot(Formula):
    pass


# extensions, evaluated directly by the checker
@dataclass(frozen=True)
class Indep(Formula):
    """I{X}{Y} or I{X}{Y}|{Z}: X carries no information about Y (given Z)."""

    xs: VarSet
    ys: VarSet
    cond: OptVarSet = None


@dataclass(frozen=True)
class Compare(Formula):
    """GEQ{X}{Y}{Z}: X carries at least as much information about Y as Z."""

    xs: VarSet
    ys: VarSet
    zs: VarSet


@dataclass(frozen=True)
class CondDep(Formula):
    """D{X}y|(phi): dependence restricted to team members satisfying phi."""

    xs: VarSet
    y: Var
    cond: Formula


@dataclass(frozen=True)
class Learn(Formula):
    """[learn X] phi: evaluate after restricting to rows agreeing on X."""

    xs: VarSet
    body: Formula


@dataclass(frozen=True)
class Announce(Formula):
    """[ann alpha] phi: evaluate in the submodel of alpha-rows, if alpha holds."""

    ann: Formula
    body: Formula


# term-bearing variants
@dataclass(frozen=True)
class PredT(Formula):
    name: Name
    terms: Terms


@dataclass(frozen=True)
class DepAtomT(Formula):
    sources: TermSet
    target: Term


# surface sugar, preserved by parse/print, removed by desugar()
@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Imp(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Dia(Formula):
    """Existential dual of Box."""

    xs: VarSet
    body: Formula


@dataclass(frozen=True)
class Univ(Formula):
    """A phi: phi holds at every team member."""

    body: Formula


@dataclass(frozen=True)
class Exis(Formula):
    """E phi: phi holds at some team member."""

    body: Formula


@dataclass(frozen=True)
class ConstAtom(Formula):
    """C y: the value of y is the same at every team member."""

    y: Var


@dataclass(frozen=True)
class AllQ(Formula):
    """all{X} phi: universal quantifier fixing the free variables outside X."""

    xs: VarSet
    body: Formula


@dataclass(frozen=True)
class ExQ(Formula):
    xs: VarSet
    body: Formula


@dataclass(frozen=True)
class MultiDep(Formula):
    """D{X}{Y}: conjunction of D{X}y for y in Y."""

    xs: VarSet
    ys: VarSet


CORE_TYPES = (Pred, Not, And, Box, DepAtom, Top, Bot)
EXTENSION_TYPES = (Indep, Compare, CondDep, Learn, Announce)
TERM_TYPES = (PredT, DepAtomT)
MODAL_TYPES = (Box, Dia, Univ, Exis, AllQ, ExQ, Learn, Announce)


def conj(parts: list) -> Formula:
    """Left-associated conjunction of a non-empty list (Top for the empty one)."""
    if not parts:
        return Top()
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def children(f: Formula) -> tuple:
    """The immediate subformulas, in field order."""
    return tuple([getattr(f, name) for name in f._kids])


def map_children(f: Formula, go) -> Formula:
    """f with go applied to each immediate subformula; f itself at a leaf."""
    if not f._kids:
        return f
    return type(f)(*[go(getattr(f, name)) if role == "Formula" else getattr(f, name)
                     for name, role in f._roles])


def desugar(f: Formula) -> Formula:
    """Rewrite surface sugar into the core + extension language."""
    if isinstance(f, (Pred, DepAtom, Top, Bot)):
        return f
    if isinstance(f, Not):
        return Not(desugar(f.body))
    if isinstance(f, And):
        return And(desugar(f.left), desugar(f.right))
    if isinstance(f, Box):
        return Box(f.xs, desugar(f.body))
    if isinstance(f, Or):
        return Not(And(Not(desugar(f.left)), Not(desugar(f.right))))
    if isinstance(f, Imp):
        return Not(And(desugar(f.left), Not(desugar(f.right))))
    if isinstance(f, Iff):
        a, b = desugar(f.left), desugar(f.right)
        return And(Not(And(a, Not(b))), Not(And(b, Not(a))))
    if isinstance(f, Dia):
        return Not(Box(f.xs, Not(desugar(f.body))))
    if isinstance(f, Univ):
        return Box(frozenset(), desugar(f.body))
    if isinstance(f, Exis):
        return Not(Box(frozenset(), Not(desugar(f.body))))
    if isinstance(f, ConstAtom):
        return DepAtom(frozenset(), f.y)
    if isinstance(f, AllQ):
        body = desugar(f.body)
        return Box(free_vars(body) - f.xs, body)
    if isinstance(f, ExQ):
        body = desugar(f.body)
        return Not(Box(free_vars(body) - f.xs, Not(body)))
    if isinstance(f, MultiDep):
        return conj([DepAtom(f.xs, y) for y in sorted(f.ys)])
    if isinstance(f, Formula):  # extension and term nodes keep their shape
        return map_children(f, desugar)
    raise FormulaError(f"cannot desugar {f!r}")


def free_vars(f: Formula) -> VarSet:
    """Free variables; dependence modalities and atoms free exactly their X."""
    if isinstance(f, Pred):
        return frozenset(f.args)
    if isinstance(f, Not):
        return free_vars(f.body)
    if isinstance(f, And):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, (Box, Dia)):
        return f.xs
    if isinstance(f, DepAtom):
        return f.xs
    if isinstance(f, (Top, Bot)):
        return frozenset()
    if isinstance(f, Indep):
        return f.xs | f.ys | (f.cond or frozenset())
    if isinstance(f, Compare):
        return f.xs | f.ys | f.zs
    if isinstance(f, CondDep):
        return f.xs | free_vars(f.cond)
    if isinstance(f, Learn):
        return f.xs | free_vars(f.body)
    if isinstance(f, Announce):
        return free_vars(f.ann) | free_vars(f.body)
    if isinstance(f, PredT):
        return _terms_vars(f.terms)
    if isinstance(f, DepAtomT):
        return _terms_vars(f.sources)
    if isinstance(f, (Or, Imp, Iff, Univ, Exis, ConstAtom, AllQ, ExQ, MultiDep)):
        return free_vars(desugar(f))
    raise FormulaError(f"no free-variable clause for {f!r}")


def all_vars(f: Formula) -> VarSet:
    """Every variable occurring anywhere in the formula."""
    out: set = set()
    for name, role in f._roles:
        out.update(_VARS_IN[role](getattr(f, name)))
    return frozenset(out)


# the variables held by a field, per role
_VARS_IN = {
    "Formula": all_vars, "Var": lambda y: (y,), "Vars": lambda vs: vs,
    "VarSet": lambda vs: vs, "OptVarSet": lambda vs: vs or (),
    "Name": lambda name: (), "Term": term_vars, "Terms": _terms_vars,
    "TermSet": _terms_vars,
}


def is_base(f: Formula) -> bool:
    """True for formulas in the core language (after desugaring)."""
    if isinstance(f, (Pred, DepAtom, Top, Bot)):
        return True
    if isinstance(f, Not):
        return is_base(f.body)
    if isinstance(f, And):
        return is_base(f.left) and is_base(f.right)
    if isinstance(f, Box):
        return is_base(f.body)
    return False


def subformulas(f: Formula) -> frozenset:
    """All subformulas of a core formula, including itself."""
    out = {f}
    if isinstance(f, Not):
        out |= subformulas(f.body)
    elif isinstance(f, And):
        out |= subformulas(f.left) | subformulas(f.right)
    elif isinstance(f, Box):
        out |= subformulas(f.body)
    return frozenset(out)


def modal_depth(f: Formula) -> int:
    """Nesting depth of the operators in MODAL_TYPES."""
    d = max(map(modal_depth, children(f)), default=0)
    return d + 1 if isinstance(f, MODAL_TYPES) else d


def sort_key(f: Formula):
    """Deterministic structural ordering key."""
    if isinstance(f, Pred):
        return (0, f.name, f.args)
    if isinstance(f, DepAtom):
        return (1, tuple(sorted(f.xs)), f.y)
    if isinstance(f, Top):
        return (2,)
    if isinstance(f, Bot):
        return (3,)
    if isinstance(f, Not):
        return (4, sort_key(f.body))
    if isinstance(f, And):
        return (5, sort_key(f.left), sort_key(f.right))
    if isinstance(f, Box):
        return (6, tuple(sorted(f.xs)), sort_key(f.body))
    if isinstance(f, Indep):
        return (7, tuple(sorted(f.xs)), tuple(sorted(f.ys)),
                tuple(sorted(f.cond)) if f.cond is not None else None)
    if isinstance(f, Compare):
        return (8, tuple(sorted(f.xs)), tuple(sorted(f.ys)), tuple(sorted(f.zs)))
    if isinstance(f, CondDep):
        return (9, tuple(sorted(f.xs)), f.y, sort_key(f.cond))
    if isinstance(f, Learn):
        return (10, tuple(sorted(f.xs)), sort_key(f.body))
    if isinstance(f, Announce):
        return (11, sort_key(f.ann), sort_key(f.body))
    if isinstance(f, PredT):
        return (12, f.name, tuple(term_key(t) for t in f.terms))
    if isinstance(f, DepAtomT):
        return (13, tuple(sorted(term_key(t) for t in f.sources)), term_key(f.target))
    # sugar nodes sort after core ones
    return (14, f.__class__.__name__, tuple(sort_key(c) for c in children(f)))


def rename(f: Formula, sigma: Mapping[str, str]) -> Formula:
    """Apply a variable permutation; sigma must be injective on occurring vars."""
    img = {}
    for v in sorted(all_vars(f)):
        w = sigma.get(v, v)
        if w in img:
            raise FormulaError(f"renaming not injective: {img[w]!r} and {v!r} both map to {w!r}")
        img[w] = v

    def s(v: str) -> str:
        return sigma.get(v, v)

    def sterm(t: Term) -> Term:
        if isinstance(t, TermVar):
            return TermVar(s(t.name))
        return TermApp(t.func, tuple(sterm(a) for a in t.args))

    def go(g: Formula) -> Formula:
        return type(g)(*[act[role](getattr(g, name)) for name, role in g._roles])

    act = {
        "Formula": go, "Var": s, "Vars": lambda vs: tuple(map(s, vs)),
        "VarSet": lambda vs: frozenset(map(s, vs)),
        "OptVarSet": lambda vs: None if vs is None else frozenset(map(s, vs)),
        "Name": lambda name: name, "Term": sterm,
        "Terms": lambda ts: tuple(map(sterm, ts)),
        "TermSet": lambda ts: frozenset(map(sterm, ts)),
    }

    return go(f)


def subsets(vs) -> Iterator[frozenset]:
    """Every subset of the sequence vs, by size, then in
    ``itertools.combinations`` order."""
    for n in range(len(vs) + 1):
        for combo in itertools.combinations(vs, n):
            yield frozenset(combo)


def closure(fs: Iterable[Formula]) -> frozenset:
    """Closure set for the given base formulas.

    Adds every singleton-headed dependence atom over the occurring variables,
    closes under subformulas, then adds one round of negations (explicit
    negations are not re-negated).
    """
    seed = []
    for f in fs:
        g = desugar(f)
        if not is_base(g):
            raise FormulaError(f"closure is defined for base formulas only: {f!r}")
        seed.append(g)
    if not seed:
        return frozenset()
    vf: set = set()
    for g in seed:
        vf |= all_vars(g)
    if len(vf) > CLOSURE_VARIABLE_LIMIT:
        raise ClosureCapError(f"{len(vf)} variables exceed the closure cap "
                              f"of {CLOSURE_VARIABLE_LIMIT}")
    vs = tuple(sorted(vf))
    out: set = set()
    for g in seed:
        out |= subformulas(g)
    for xs in subsets(vs):
        for y in vs:
            out |= subformulas(DepAtom(xs, y))
    for g in list(out):
        if not isinstance(g, Not):
            out.add(Not(g))
    return frozenset(out)


def eliminate_terms(f: Formula) -> Formula:
    """Compile away function terms.

    Every complex term gets a fresh variable ``_t<k>`` (deterministic
    left-to-right, innermost first); the result conjoins, for each such term,
    a globally-quantified dependence of the fresh variable on the term's
    argument variables, followed by the term-free rewrite of the input.
    Satisfiability is preserved in both directions.
    """
    f = desugar(f)
    order: list = []
    seen: dict = {}

    def scan_term(t: Term) -> None:
        if isinstance(t, TermApp):
            for a in t.args:
                scan_term(a)
            if t not in seen:
                seen[t] = f"_t{len(order)}"
                order.append(t)

    def scan(g: Formula) -> None:
        if isinstance(g, PredT):
            for t in g.terms:
                scan_term(t)
        elif isinstance(g, DepAtomT):
            for t in sorted(g.sources, key=term_key):
                scan_term(t)
            scan_term(g.target)
        elif isinstance(g, (Pred, DepAtom, Top, Bot)):
            pass
        elif isinstance(g, Not):
            scan(g.body)
        elif isinstance(g, And):
            scan(g.left)
            scan(g.right)
        elif isinstance(g, Box):
            scan(g.body)
        else:
            raise FormulaError(f"term elimination does not support {g!r}")

    def tvar(t: Term) -> str:
        return t.name if isinstance(t, TermVar) else seen[t]

    def rewrite(g: Formula) -> Formula:
        if isinstance(g, PredT):
            return Pred(g.name, tuple(tvar(t) for t in g.terms))
        if isinstance(g, DepAtomT):
            return DepAtom(frozenset(tvar(t) for t in g.sources), tvar(g.target))
        return map_children(g, rewrite)

    scan(f)
    if not order:
        return rewrite(f)
    defs = [Box(frozenset(), DepAtom(frozenset(tvar(a) for a in t.args), seen[t]))
            for t in order]
    return conj(defs + [rewrite(f)])


def reduce_learn(f: Formula) -> Formula:
    """Remove every learning modality via its recursion laws.

    ``[X]`` commutes with the booleans, turns ``box{Y}`` into ``box{X+Y}[X]``
    and collapses on atoms; dependence atoms absorb the learned variables.
    """
    f = desugar(f)

    def push(xs: VarSet, g: Formula) -> Formula:
        if isinstance(g, (Pred, PredT, Top, Bot)):
            return g
        if isinstance(g, Not):
            return Not(push(xs, g.body))
        if isinstance(g, And):
            return And(push(xs, g.left), push(xs, g.right))
        if isinstance(g, Box):
            return Box(xs | g.xs, push(xs, g.body))
        if isinstance(g, DepAtom):
            return DepAtom(xs | g.xs, g.y)
        raise FormulaError(f"operator not supported under a learning modality: {g!r}")

    def go(g: Formula) -> Formula:
        if isinstance(g, Learn):
            return push(g.xs, go(g.body))
        return map_children(g, go)

    return go(f)
