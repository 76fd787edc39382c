"""Relational (Kripke-style) semantics: abstract worlds with per-variable-set
equivalence relations.

Standard models carry one equivalence per single variable (set relations are
intersections) and read dependence atoms off the relations; general models
store relations per listed variable set and a per-world dependence-atom
valuation.  The bridges ``rel_of``/``dep_of`` connect them with dependence
models, ``unravel`` turns a general model into a standard one up to a depth
bound, and ``filtrate`` quotients a model by a closure set with the witness
builder of :mod:`lfd.decide`.

A ``RelationalModel`` lazily fills a partition index derived from its
relations: for each variable set X that a query needs, each world's =_X class
id and one member tuple per class, shared by the class's worlds.  Every reader
of a partition goes through it, so a partition is built once per model.  Each
entry is computed and then stored with a single assignment, so threads racing
on one model only repeat the same work.  Callers must not mutate
``relations`` after construction, or the index goes stale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, NamedTuple, Tuple

from . import formulas as F
from .models import DependenceModel, model_from_rows
from .parser import parse

DepPair = Tuple[FrozenSet[str], str]
PredAtom = Tuple[str, tuple]


class RelationalError(ValueError):
    pass


class RelationalFormatError(RelationalError):
    """A malformed line in the ``.rm`` text format."""


def _closure_to_partition(worlds, pairs) -> Dict[str, int]:
    """Union-find over the given pairs; returns world -> class id."""
    parent = {w: w for w in worlds}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    reps = {}
    out = {}
    for w in worlds:
        r = find(w)
        out[w] = reps.setdefault(r, len(reps))
    return out


class Partition(NamedTuple):
    """=_X on the worlds: each world's class id, and one member tuple (in
    world order) per class, shared by all of the class's worlds."""
    cid: Mapping[str, int]
    blocks: Mapping[int, Tuple[str, ...]]


@dataclass(frozen=True, eq=False)
class RelationalModel:
    worlds: Tuple[str, ...]
    variables: Tuple[str, ...]
    kind: str  # "standard" | "general"
    # standard: one partition per single variable; general: per listed varset
    relations: Mapping[FrozenSet[str], Mapping[str, int]]
    dep_atoms: Mapping[str, FrozenSet[DepPair]]
    pred_atoms: Mapping[str, FrozenSet[PredAtom]]
    # derived from `relations` on first use, one entry per variable set
    _index: Dict[FrozenSet[str], Partition] = field(
        default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.kind not in ("standard", "general"):
            raise RelationalError(f"unknown model kind {self.kind!r}")
        if not self.worlds:
            raise RelationalError("at least one world is required")

    def partition(self, xs: FrozenSet[str]) -> Partition:
        """The =_xs partition, built once per model and variable set."""
        part = self._index.get(xs)
        if part is None:
            part = self._index[xs] = self._build(xs)
        return part

    def _build(self, xs: FrozenSet[str]) -> Partition:
        if xs in self.relations and (self.kind == "general" or len(xs) == 1):
            cid = self.relations[xs]
        elif not xs:
            cid = dict.fromkeys(self.worlds, 0)
        elif self.kind == "standard" and len(xs) > 1:
            # set relations are intersections: the product of two entries
            x = max(xs)
            rest, own = self.relation(xs - {x}), self.relation(frozenset((x,)))
            ids: Dict[tuple, int] = {}
            cid = {w: ids.setdefault((rest[w], own[w]), len(ids))
                   for w in self.worlds}
        else:
            raise RelationalError(f"no stored relation for {sorted(xs)}")
        members: Dict[int, List[str]] = {}
        for w in self.worlds:
            members.setdefault(cid[w], []).append(w)
        return Partition(cid, {c: tuple(ws) for c, ws in members.items()})

    def relation(self, xs: FrozenSet[str]) -> Mapping[str, int]:
        """world -> equivalence-class id under =_xs."""
        return self.partition(xs).cid

    def related(self, w: str, v: str, xs: FrozenSet[str]) -> bool:
        rel = self.relation(xs)
        return rel[w] == rel[v]

    def block(self, w: str, xs: FrozenSet[str]) -> Tuple[str, ...]:
        part = self.partition(xs)
        return part.blocks[part.cid[w]]

    def dep_holds(self, w: str, xs: FrozenSet[str], y: str) -> bool:
        if self.kind == "general":
            return (xs, y) in self.dep_atoms.get(w, frozenset())
        # =_{xs+y} refines =_xs, so the blocks are equal iff equally large
        return len(self.block(w, xs)) == len(self.block(w, xs | {y}))


def _base(phi: F.Formula) -> F.Formula:
    f = F.desugar(phi)
    if not F.is_base(f):
        raise RelationalError(f"relational semantics covers base formulas only: {phi!r}")
    return f


def eval_rel(r: RelationalModel, w: str, phi: F.Formula) -> bool:
    """Relational truth of a base formula at a world."""
    return _eval(r, w, _base(phi))


def _eval(r: RelationalModel, w: str, f: F.Formula) -> bool:
    if isinstance(f, F.Top):
        return True
    if isinstance(f, F.Bot):
        return False
    if isinstance(f, F.Pred):
        return (f.name, f.args) in r.pred_atoms.get(w, frozenset())
    if isinstance(f, F.Not):
        return not _eval(r, w, f.body)
    if isinstance(f, F.And):
        return _eval(r, w, f.left) and _eval(r, w, f.right)
    if isinstance(f, F.Box):
        return all(_eval(r, v, f.body) for v in r.block(w, f.xs))
    if isinstance(f, F.DepAtom):
        return r.dep_holds(w, f.xs, f.y)
    raise RelationalError(f"cannot evaluate {f!r}")


def validate(r: RelationalModel) -> List[str]:
    """Check the defining conditions for the model's kind; empty = valid."""
    problems: List[str] = []
    stored = r.relations
    if r.kind == "standard":
        for x in r.variables:
            if frozenset((x,)) not in stored:
                problems.append(f"missing relation for variable {x}")
        # atom agreement mirrors the valuation condition on standard models
        for xs in _atom_varsets(r) | {frozenset((x,)) for x in r.variables}:
            try:
                blocks = r.partition(xs).blocks.values()
            except RelationalError:
                continue
            for members in blocks:
                for (name, args), w, v in _unshared(
                        members, lambda w: _atoms_over(r, w, xs)):
                    problems.append(
                        f"atom condition: {name}{args} at {w} but not at "
                        f"{sorted(xs)}-equivalent {v}")
        return sorted(set(problems))
    # general kind: numbered conditions
    if frozenset() not in stored:
        problems.append("missing relation for the empty set")
    elif len(r.partition(frozenset()).blocks) > 1:
        problems.append("(5) relation for the empty set is not global")
    for w in r.worlds:
        deps = r.dep_atoms.get(w, frozenset())
        sources = {xs for xs, _ in deps} | set(stored)
        for xs in sources:
            for x in xs:
                if (xs, x) not in deps:
                    problems.append(f"(2) projection fails at {w}: "
                                    f"D{sorted(xs)}{x} missing")
        for (xs, y) in deps:
            closure_y = {z for (us, z) in deps if us == frozenset((y,))}
            for z in closure_y:
                if (xs, z) not in deps:
                    problems.append(f"(2) transitivity fails at {w}: "
                                    f"D{sorted(xs)}{y}, D[{y}]{z} but not D{sorted(xs)}{z}")
        # full set-form transitivity
        srcs = {xs for xs, _ in deps}
        for xs in srcs:
            ys_all = frozenset(y for (us, y) in deps if us == xs)
            for ys in srcs:
                if ys <= ys_all:
                    for (us, z) in deps:
                        if us == ys and (xs, z) not in deps:
                            problems.append(
                                f"(2) transitivity fails at {w}: "
                                f"D{sorted(xs)}{sorted(ys)}, D{sorted(ys)}{z}")
    for xs in stored:
        for members in r.partition(xs).blocks.values():
            for (_, y), w, v in _unshared(members, lambda w: {
                    d for d in r.dep_atoms.get(w, frozenset()) if d[0] == xs}):
                problems.append(
                    f"(3) transfer fails: D{sorted(xs)}{y} at {w} "
                    f"but not at {sorted(xs)}-equivalent {v}")
            for w in members:
                for us, y in r.dep_atoms.get(w, frozenset()):
                    rely = stored.get(frozenset((y,)))
                    if us == xs and rely is not None:
                        problems.extend(
                            f"(3) transfer fails: {w} ={sorted(xs)} {v}, "
                            f"D{sorted(xs)}{y} at {w}, but not ={y}"
                            for v in members if rely[v] != rely[w])
            for (name, args), w, v in _unshared(
                    members, lambda w: _atoms_over(r, w, xs)):
                problems.append(
                    f"(4) atom condition: {name}{args} at {w} but not "
                    f"at {sorted(xs)}-equivalent {v}")
    return sorted(set(problems))


def _unshared(members, held_at):
    """(item, w, v) for every item of held_at(w) missing from held_at(v),
    over the worlds w, v of one block."""
    if len(members) < 2:
        return
    held = {w: held_at(w) for w in members}
    for item in set().union(*held.values()):
        lacking = [v for v in members if item not in held[v]]
        yield from ((item, w, v) for w in members if item in held[w]
                    for v in lacking)


def _atoms_over(r: RelationalModel, w: str, xs: FrozenSet[str]) -> set:
    return {a for a in r.pred_atoms.get(w, frozenset()) if set(a[1]) <= xs}


def _atom_varsets(r: RelationalModel) -> set:
    out = set()
    for atoms in r.pred_atoms.values():
        for _, args in atoms:
            out.add(frozenset(args))
    return out


# ---------------------------------------------------------------------------
# Bridges with dependence models


def rel_of(m: DependenceModel) -> RelationalModel:
    """The standard relational model on the team, with value-agreement relations."""
    worlds = tuple(f"w{i}" for i in range(len(m.team)))
    relations = {}
    for x in m.variables:
        ids: Dict[str, int] = {}
        rel = {}
        for i, w in enumerate(worlds):
            rel[w] = ids.setdefault(m.team[i][x], len(ids))
        relations[frozenset((x,))] = rel
    pred_atoms = {}
    for i, w in enumerate(worlds):
        s = m.team[i]
        atoms = set()
        for name, ar in m.arities.items():
            ext = m.interpretation.get(name, frozenset())
            for args in itertools.product(m.variables, repeat=ar):
                if tuple(s[x] for x in args) in ext:
                    atoms.add((name, args))
        pred_atoms[w] = frozenset(atoms)
    return RelationalModel(worlds, m.variables, "standard", relations, {},
                           pred_atoms)


def dep_of(r: RelationalModel) -> DependenceModel:
    """The dependence model on (variable, equivalence-class) objects."""
    if r.kind != "standard":
        raise RelationalError("dep_of requires a standard relational model")
    rels = [r.relation(frozenset((x,))) for x in r.variables]
    rows = [[f"{x}:{rel[w]}" for x, rel in zip(r.variables, rels)]
            for w in r.worlds]
    # identical rows collapse: relationally indistinguishable worlds
    uniq = [list(row) for row in dict.fromkeys(map(tuple, rows))]
    arities: Dict[str, int] = {}
    tuples: Dict[str, set] = {}
    for w, row in zip(r.worlds, rows):
        idx = {x: row[i] for i, x in enumerate(r.variables)}
        for name, args in r.pred_atoms.get(w, frozenset()):
            arities.setdefault(name, len(args))
            tuples.setdefault(name, set()).add(tuple(idx[x] for x in args))
    return model_from_rows(r.variables, uniq, arities, tuples)


def world_to_row(r: RelationalModel) -> Dict[str, int]:
    """Map each world to its row index in dep_of(r)."""
    rels = [r.relation(frozenset((x,))) for x in r.variables]
    seen: Dict[tuple, int] = {}
    return {w: seen.setdefault(tuple(rel[w] for rel in rels), len(seen))
            for w in r.worlds}


def _histories(r: RelationalModel, w0: str, depth: int) -> List[tuple]:
    """Paths of at most `depth` transitions; entries are (world, via-set)."""
    step_sets = sorted(r.relations, key=lambda s: (len(s), tuple(sorted(s))))
    histories = [((w0, None),)]
    frontier = [((w0, None),)]
    for _ in range(depth):
        new = []
        for h in frontier:
            lastw = h[-1][0]
            for xs in step_sets:
                new.extend(h + ((v, xs),) for v in r.block(lastw, xs))
        histories.extend(new)
        frontier = new
    return histories


def unravel(r: RelationalModel, w0: str, depth: int) -> RelationalModel:
    """History-tree unraveling of a general model, truncated at the given
    number of transitions; yields a standard model whose last-world map is a
    relation-preserving surjective homomorphism onto the reachable part."""
    if depth < 0:
        raise RelationalError("depth must be >= 0")
    histories = _histories(r, w0, depth)
    names = {h: f"h{i}" for i, h in enumerate(histories)}
    worlds = tuple(names[h] for h in histories)

    def last(h):
        return h[-1][0]

    relations = {}
    for x in r.variables:
        pairs = []
        for h in histories:
            if len(h) == 1:
                continue
            prev, (w, xs) = h[:-1], h[-1]
            if (xs, x) in r.dep_atoms.get(last(prev), frozenset()):
                pairs.append((names[prev], names[h]))
        relations[frozenset((x,))] = _closure_to_partition(worlds, pairs)
    pred_atoms = {names[h]: r.pred_atoms.get(last(h), frozenset())
                  for h in histories}
    return RelationalModel(worlds, r.variables, "standard", relations, {},
                           pred_atoms)


def last_world_map(r: RelationalModel, w0: str, depth: int) -> Dict[str, str]:
    """The history -> last-world map matching :func:`unravel`'s world order."""
    return {f"h{i}": h[-1][0]
            for i, h in enumerate(_histories(r, w0, depth))}


def filtrate(r: RelationalModel, phi: F.Formula) -> RelationalModel:
    """Quotient by agreement on the closure set of phi (dependent filtration):
    the witness model (:func:`lfd.decide.witness_model`) of the closure types
    the worlds of r realise, as worlds c0, c1, ... in order of first
    occurrence.  Two classes are =_X-related when they agree on every closure
    formula whose free variables all depend on X at them; the result is a
    general model of at most 2^|closure| worlds satisfying the same closure
    formulas."""
    from .decide import HintikkaSet, closure_index, witness_model
    index = closure_index([phi])
    profiles = dict.fromkeys(tuple(_eval(r, w, f) for f in index.formulas)
                             for w in r.worlds)
    family = [HintikkaSet(index, sum(t << i for i, t in enumerate(p)))
              for p in profiles]
    return witness_model(index, family, "c")


# ---------------------------------------------------------------------------
# Text format


def dumps_relational(r: RelationalModel) -> str:
    out = [f"kind {r.kind}"]
    out.append("variables " + " ".join(r.variables))
    out.append("world " + " ".join(r.worlds))
    for xs in sorted(r.relations, key=lambda s: (len(s), tuple(sorted(s)))):
        blocks = r.partition(xs).blocks
        pairs = [f"{a}~{b}" for cid in sorted(blocks)
                 for a, b in zip(blocks[cid], blocks[cid][1:])]
        out.append(f"rel {{{','.join(sorted(xs))}}}: " + " ".join(pairs))
    for w in r.worlds:
        deps = sorted(r.dep_atoms.get(w, frozenset()),
                      key=lambda p: (tuple(sorted(p[0])), p[1]))
        if deps:
            out.append(f"dep {w}: " + " ".join(
                f"{{{','.join(sorted(xs))}}}->{y}" for xs, y in deps))
    for w in r.worlds:
        atoms = sorted(r.pred_atoms.get(w, frozenset()))
        if atoms:
            out.append(f"atom {w}: " + " ".join(
                f"{name}({','.join(args)})" for name, args in atoms))
    return "\n".join(out) + "\n"


def parse_relational(text: str) -> RelationalModel:
    kind = "general"
    variables: Tuple[str, ...] = ()
    worlds: Tuple[str, ...] = ()
    rel_pairs: Dict[FrozenSet[str], List[Tuple[str, str]]] = {}
    dep_atoms: Dict[str, set] = {}
    pred_atoms: Dict[str, set] = {}
    named: List[Tuple[int, str]] = []  # (line, world) for every world named
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "kind":
            kind = rest
        elif head == "variables":
            variables = tuple(rest.split())
        elif head == "world":
            worlds = tuple(rest.split())
        elif head == "rel":
            braces, _, body = rest.partition(":")
            xs = frozenset(v for v in braces.strip().strip("{}").split(",") if v)
            pairs = rel_pairs.setdefault(xs, [])
            for chunk in body.split():
                a, _, b = chunk.partition("~")
                pairs.append((a, b))
                named += [(lineno, a), (lineno, b)]
        elif head == "dep":
            w, _, body = rest.partition(":")
            w = w.strip()
            named.append((lineno, w))
            for chunk in body.split():
                braces, _, y = chunk.partition("->")
                xs = frozenset(v for v in braces.strip().strip("{}").split(",") if v)
                dep_atoms.setdefault(w, set()).add((xs, y))
        elif head == "atom":
            w, _, body = rest.partition(":")
            w = w.strip()
            named.append((lineno, w))
            for chunk in body.split():
                f = parse(chunk)
                if not isinstance(f, F.Pred):
                    raise RelationalFormatError(
                        f"line {lineno}: expected a predicate atom, got {chunk!r}")
                pred_atoms.setdefault(w, set()).add((f.name, f.args))
        else:
            raise RelationalFormatError(f"line {lineno}: unknown directive {head!r}")
    if not worlds:
        raise RelationalError("missing world line")
    declared = set(worlds)
    for lineno, w in named:
        if w not in declared:
            raise RelationalError(
                f"line {lineno}: world {w!r} is not on the world line")
    relations = {xs: _closure_to_partition(worlds, pairs)
                 for xs, pairs in rel_pairs.items()}
    return RelationalModel(
        worlds, variables, kind, relations,
        {w: frozenset(s) for w, s in dep_atoms.items()},
        {w: frozenset(s) for w, s in pred_atoms.items()})
