"""Abstract dependence relations and their representation as concrete models.

A relation R between variable sets and variables that satisfies Reflexivity,
Transitivity and Monotonicity (equivalently Projection and Transitivity) is
exactly the global, or the everywhere-local, dependence relation of some
finite dependence model; the constructions here build such models.

Such relations are exactly the ones read off closure systems (Moore families
of closed variable sets).  They are enumerated once: each intersection-closed
family is grown once by adding its sets in increasing bitmask order, a
canonical search in the style of Ganter's NextClosure.  :func:`closure_tables`
turns the families over n variables into closure tables (``cl[xs_mask]`` is
the closure mask), sorted once and kept for the life of the process as
immutable tuples, for n up to :data:`VARIABLE_LIMIT` (2480 systems at 4
variables, 1,385,552 at 5).  The decision procedure reads these tables;
:func:`enumerate_dependence_relations` builds its relations from them.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Sequence, Tuple

from .formulas import ClosureCapError, check_ident, subsets
from .models import DependenceModel, model_from_rows

Pair = Tuple[FrozenSet[str], str]


class RelationError(ValueError):
    pass


@dataclass(frozen=True)
class AbstractDependence:
    variables: FrozenSet[str]
    pairs: FrozenSet[Pair]

    def __post_init__(self):
        for v in self.variables:
            check_ident(v)
        for xs, y in self.pairs:
            if not xs <= self.variables or y not in self.variables:
                raise RelationError(f"pair ({sorted(xs)}, {y}) uses unknown variables")

    def holds(self, xs: FrozenSet[str], y: str) -> bool:
        return (xs, y) in self.pairs

    def holds_all(self, xs: FrozenSet[str], ys: Iterable[str]) -> bool:
        return all((xs, y) in self.pairs for y in ys)


@dataclass(frozen=True)
class StructuralReport:
    reflexive: bool
    transitive: bool
    monotone: bool
    projection: bool
    inclusion: bool
    constants: FrozenSet[str]

    @property
    def is_dependence_relation(self) -> bool:
        return self.reflexive and self.transitive and self.monotone


def check_structural(r: AbstractDependence) -> StructuralReport:
    vs = sorted(r.variables)
    subs = list(subsets(vs))
    reflexive = all(r.holds(frozenset((x,)), x) for x in vs)
    transitive = True
    for xs in subs:
        for ys in subs:
            if not r.holds_all(xs, ys):
                continue
            for z in vs:
                if r.holds(ys, z) and not r.holds(xs, z):
                    transitive = False
    monotone = all(r.holds(zs, y)
                   for xs, y in r.pairs
                   for zs in subs if xs <= zs) if r.pairs else True
    projection = all(r.holds(xs, x) for xs in subs for x in xs)
    inclusion = all(r.holds_all(xs, ys) for xs in subs for ys in subs if ys <= xs)
    constants = frozenset(y for y in vs if r.holds(frozenset(), y))
    return StructuralReport(reflexive, transitive, monotone, projection,
                            inclusion, constants)


def _require_axioms(r: AbstractDependence) -> None:
    rep = check_structural(r)
    if not rep.is_dependence_relation:
        raise RelationError(
            "relation violates the dependence axioms: "
            f"reflexive={rep.reflexive} transitive={rep.transitive} "
            f"monotone={rep.monotone}")


def r_closure(r: AbstractDependence, xs: FrozenSet[str]) -> FrozenSet[str]:
    """The least R-closed superset of xs (equals {y : R_xs y})."""
    _require_axioms(r)
    return frozenset(y for y in r.variables if r.holds(xs, y))


def closed_sets(r: AbstractDependence) -> List[FrozenSet[str]]:
    """All R-closed subsets of V, canonically ordered."""
    out = []
    for xs in subsets(sorted(r.variables)):
        if all(y in xs for y in r.variables if r.holds(xs, y)):
            out.append(xs)
    return sorted(out, key=lambda s: (len(s), tuple(sorted(s))))


def relation_of_closure_operator(variables: FrozenSet[str],
                                 closed: Iterable[FrozenSet[str]]) -> AbstractDependence:
    """The dependence relation whose closure operator has the given closed sets."""
    fam = list(closed)
    pairs = set()
    for xs in subsets(sorted(variables)):
        cl = frozenset(variables)
        for c in fam:
            if xs <= c:
                cl &= c
        for y in cl:
            pairs.add((xs, y))
    return AbstractDependence(frozenset(variables), frozenset(pairs))


def _moore_families(n: int) -> Iterator[List[int]]:
    """Each intersection-closed family of subsets of n elements that holds
    the full set, exactly once.  Sets are bitmasks.  A set intersected with
    anything is a submask, so no larger than itself: adding a family's sets in
    increasing order keeps every prefix closed, which makes that order the
    one canonical path to the family."""
    full = (1 << n) - 1

    def grow(members: List[int], fam: int, start: int) -> Iterator[List[int]]:
        yield members
        for s in range(start, full):
            if all(fam >> (s & c) & 1 for c in members if s & c != s):
                yield from grow(members + [s], fam | 1 << s, s + 1)

    yield from grow([full], 1 << full, 0)


# closure-system tables, and with them sat/valid, stop at this many variables
VARIABLE_LIMIT = 4
# the uniform representation has up to 2^(2^n) rows; it stops at this n
UNIFORM_VARIABLE_LIMIT = 4
# n -> the tables over n variables, each stored with one assignment
_TABLES: Dict[int, Tuple[Tuple[int, ...], ...]] = {}


def closure_tables(n: int) -> Tuple[Tuple[int, ...], ...]:
    """Each closure system over variables 0..n-1 as a table from a set's mask
    to its closure's mask, in the order of
    :func:`enumerate_dependence_relations`; built once per process and n."""
    if n > VARIABLE_LIMIT:
        raise ClosureCapError(f"{n} variables exceed the limit of "
                              f"{VARIABLE_LIMIT} for closure-system tables")
    if n not in _TABLES:
        masks = range(1 << n)
        found = [tuple(functools.reduce(operator.and_,
                                        (c for c in fam if m & c == m))
                       for m in masks) for fam in _moore_families(n)]
        # the documented pair-list order; indices sort like the sorted names
        index = [tuple(i for i in range(n) if m >> i & 1) for m in masks]
        _TABLES[n] = tuple(sorted(found, key=lambda cl: sorted(
            (index[m], y) for m, c in enumerate(cl)
            for y in range(n) if c >> y & 1)))
    return _TABLES[n]


def enumerate_dependence_relations(variables: Iterable[str]) -> List[AbstractDependence]:
    """All axiom-satisfying relations over the variables, sorted by their
    pair lists ``sorted((tuple(sorted(xs)), y) ...)``; a fresh list per call.
    Raises :class:`ClosureCapError` above :data:`VARIABLE_LIMIT` variables."""
    vs = sorted(frozenset(variables))
    tables = closure_tables(len(vs))
    masks = range(1 << len(vs))
    sets = [frozenset(v for i, v in enumerate(vs) if m >> i & 1) for m in masks]
    # pairs[m][c]: each (X, y) with X the set of mask m and y in closure c
    pairs = [[tuple((xs, v) for i, v in enumerate(vs) if c >> i & 1)
              for c in masks] for xs in sets]
    return [AbstractDependence(sets[-1], frozenset(itertools.chain.from_iterable(
                pairs[m][c] for m, c in enumerate(cl)))) for cl in tables]


def represent_global(r: AbstractDependence) -> DependenceModel:
    """A model whose global dependence relation is exactly r.

    One assignment per R-closed set X: variables inside X keep their own
    (tagged) name, the rest share a token naming X.  At most 2^|V| rows.
    """
    _require_axioms(r)
    variables = tuple(sorted(r.variables))
    rows = []
    for c in closed_sets(r):
        set_token = "s:" + ",".join(sorted(c))
        rows.append([f"v:{x}" if x in c else set_token for x in variables])
    return model_from_rows(variables, rows)


def represent_uniform(r: AbstractDependence) -> DependenceModel:
    """A model in which every local dependence relation equals r.

    One assignment per family of R-closed sets; values are equivalence
    classes of families under the symmetric-difference-intersection relation.
    Two families are x-equivalent exactly when they contain the same sets
    omitting x, so that part of the family serves as the class key.
    At most 2^(2^|V|) rows.
    """
    _require_axioms(r)
    if len(r.variables) > UNIFORM_VARIABLE_LIMIT:
        raise RelationError(f"uniform representation capped at "
                            f"{UNIFORM_VARIABLE_LIMIT} variables")
    variables = tuple(sorted(r.variables))
    gamma = closed_sets(r)
    without_x = {x: [c for c in gamma if x not in c] for x in variables}
    class_index: Dict[Tuple[str, FrozenSet[FrozenSet[str]]], int] = {}
    rows = []
    for fam in subsets(gamma):
        row = []
        for x in variables:
            key = (x, frozenset(c for c in without_x[x] if c in fam))
            idx = class_index.setdefault(key, len(class_index))
            row.append(f"c:{x}:{idx}")
        rows.append(row)
    # distinct families can induce identical assignments; the team is a set
    return model_from_rows(variables, list(dict.fromkeys(map(tuple, rows))))


def represent_family(rs: Sequence[AbstractDependence]) -> DependenceModel:
    """A model whose family of local dependence relations is exactly rs.

    All relations must share the same variables and agree on constants; the
    construction takes the disjoint union of the uniform models, merging the
    common constants.
    """
    if not rs:
        raise RelationError("empty relation family")
    variables = rs[0].variables
    for r in rs:
        if r.variables != variables:
            raise RelationError("relations must share one variable set")
        _require_axioms(r)
    consts = [frozenset(y for y in r.variables if r.holds(frozenset(), y))
              for r in rs]
    if any(c != consts[0] for c in consts):
        raise RelationError("relations disagree on constants")
    common = consts[0]
    order = tuple(sorted(variables))
    rows = []
    for k, r in enumerate(rs):
        comp = represent_uniform(r)
        for i in range(len(comp.team)):
            s = comp.team[i]
            rows.append([f"c:{x}" if x in common else f"m{k}:{s[x]}"
                         for x in order])
    return model_from_rows(order, list(dict.fromkeys(map(tuple, rows))))


# ---------------------------------------------------------------------------
# Relation file format: 'variables x y z', then 'dep x,y -> z' lines; several
# relations may follow 'relation NAME' section headers.


def parse_relations(text: str) -> List[AbstractDependence]:
    variables: FrozenSet[str] = frozenset()
    have_vars = False
    sections: List[set] = []
    current: set = set()
    started = False

    def close():
        nonlocal current, started
        if started:
            sections.append(current)
        current = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        kind = parts[0]
        if kind == "variables":
            variables = frozenset((parts[1] if len(parts) > 1 else "").split())
            have_vars = True
        elif kind == "relation":
            close()
            started = True
        elif kind == "dep":
            started = True
            body = parts[1] if len(parts) > 1 else ""
            if "->" not in body:
                raise RelationError(f"line {lineno}: expected 'dep X -> y'")
            left, right = body.split("->", 1)
            xs = frozenset(v.strip() for v in left.split(",") if v.strip())
            y = right.strip()
            if not y:
                raise RelationError(f"line {lineno}: missing target variable")
            current.add((xs, y))
        else:
            raise RelationError(f"line {lineno}: unknown directive {kind!r}")
    close()
    if not have_vars:
        raise RelationError("missing variables line")
    if not sections:
        sections = [set()]
    out = []
    for pairs in sections:
        out.append(closure_of_pairs(variables, pairs))
    return out


def closure_of_pairs(variables: FrozenSet[str],
                     pairs: Iterable[Pair]) -> AbstractDependence:
    """Smallest axiom-satisfying relation containing the given pairs: the one
    whose closed sets are those X with y in X for every given (xs, y) with
    xs inside X."""
    # building the relation rejects pairs that name unknown variables
    given = AbstractDependence(frozenset(variables), frozenset(pairs))
    closed = [c for c in subsets(sorted(variables))
              if all(y in c for xs, y in given.pairs if xs <= c)]
    return relation_of_closure_operator(variables, closed)


def dumps_relation(r: AbstractDependence) -> str:
    out = ["variables " + " ".join(sorted(r.variables))]
    for xs, y in sorted(r.pairs, key=lambda p: (tuple(sorted(p[0])), p[1])):
        out.append(f"dep {','.join(sorted(xs))} -> {y}")
    return "\n".join(out) + "\n"
