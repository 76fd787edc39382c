"""Backward proof search in the restricted-cut sequent calculus.

Sequents are two-sided sets of base formulas.  The rules are the cumulative
(weakening-absorbed) forms: identity/projection/constant axioms, the
invertible boolean rules, the left modal rule, a right modal rule whose
premise keeps exactly the formulas framed by the guard atoms, transitivity
restricted to occurring variables, and cuts on dependence atoms over
occurring variables.  All premises except the right modal rule's strictly
enlarge the sequent; the one shrinking rule can cycle, which a path check
cuts.  Successes and path-independent failures are memoised in the
:class:`Prover` (one per call of :func:`prove`/:func:`proves`), and
path-dependent failures are cached conditionally on their blocking
ancestors, so search stays proportional to the reachable sequent space.

Interpolants are extracted Maehara-style from proof trees and verified
against the prover before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from . import formulas as F
from .parser import format_formula, format_sequent

Side = FrozenSet[F.Formula]
Sequent = Tuple[Side, Side]


class ProofError(ValueError):
    pass


class InterpolationError(ProofError):
    pass


@dataclass(frozen=True, eq=False)
class ProofTree:
    left: Side
    right: Side
    rule: str
    aux: tuple
    premises: Tuple["ProofTree", ...]

    @property
    def conclusion(self) -> Sequent:
        return (self.left, self.right)


def _prepare_side(fs: Iterable[F.Formula]) -> Side:
    out = []
    for f in fs:
        g = F.desugar(f)
        if not F.is_base(g):
            raise ProofError(f"sequent formulas must be base formulas: {f!r}")
        out.append(g)
    return frozenset(out)


def sequent(left: Iterable[F.Formula], right: Iterable[F.Formula]) -> Sequent:
    return (_prepare_side(left), _prepare_side(right))


def _as_sequent(goal) -> Sequent:
    # sides that are not frozensets, as parse_sequent returns, go through sequent
    left, right = goal
    if type(left) is frozenset and type(right) is frozenset:
        return goal
    return sequent(left, right)


def _vars_of(seq: Sequent) -> FrozenSet[str]:
    out: Set[str] = set()
    for f in seq[0] | seq[1]:
        out |= F.all_vars(f)
    return frozenset(out)


def _sorted(fs: Iterable[F.Formula]) -> List[F.Formula]:
    return sorted(fs, key=F.sort_key)


class Prover:
    """Decision procedure by exhaustive backward search with a shared cache.

    Failures found without touching the current search path are definitive
    and cached forever.  A failure whose exploration was cut at some path
    ancestors is recorded with that blocker set and may be reused while all
    of its blockers are back on the path; once a sequent's own analysis
    completes with no blockers but itself, the failure is definitive (a
    minimal proof never repeats a sequent along a branch, so cycles through
    the sequent under analysis cannot contribute)."""

    def __init__(self):
        self._memo: Dict[Sequent, object] = {}  # step tuple | False
        self._conditional: Dict[Sequent, FrozenSet[Sequent]] = {}

    # -- public API

    def prove(self, goal: Sequent) -> Optional[ProofTree]:
        goal = _as_sequent(goal)
        ok, _ = self._search(goal, set())
        if not ok:
            return None
        return self._build_tree(goal)

    def proves(self, goal: Sequent) -> bool:
        ok, _ = self._search(_as_sequent(goal), set())
        return ok

    # -- search

    def _search(self, seq: Sequent,
                path: Set[Sequent]) -> Tuple[bool, FrozenSet[Sequent]]:
        """Returns (proven, blockers); a failure is definitive when the
        blocker set is empty."""
        hit = self._memo.get(seq)
        if hit is not None:
            return (hit is not False), frozenset()
        if seq in path:
            return False, frozenset((seq,))
        cond = self._conditional.get(seq)
        if cond is not None and cond <= path:
            return False, cond
        ax = self._axiom(seq)
        if ax is not None:
            self._memo[seq] = ax
            return True, frozenset()
        path.add(seq)
        try:
            blockers: Set[Sequent] = set()
            inv = self._invertible(seq)
            if inv is not None:
                attempts = [inv]
            else:
                attempts = self._branches(seq)
            for rule, aux, premises in attempts:
                ok_all = True
                for p in premises:
                    ok, b = self._search(p, path)
                    if not ok:
                        ok_all = False
                        blockers |= b
                        break
                if ok_all:
                    self._memo[seq] = (rule, aux, premises)
                    return True, frozenset()
            blockers.discard(seq)
            out = frozenset(blockers)
            if out:
                self._conditional[seq] = out
            else:
                self._memo[seq] = False
                self._conditional.pop(seq, None)
            return False, out
        finally:
            path.discard(seq)

    def _axiom(self, seq: Sequent):
        left, right = seq
        shared = left & right
        if shared:
            return ("ax-id", (min(shared, key=F.sort_key),), ())
        if any(isinstance(f, F.Bot) for f in left):
            return ("ax-bot", (), ())
        if any(isinstance(f, F.Top) for f in right):
            return ("ax-top", (), ())
        for f in _sorted(right):
            if isinstance(f, F.DepAtom) and f.y in f.xs:
                return ("ax-proj", (f,), ())
        return None

    def _invertible(self, seq: Sequent):
        left, right = seq
        for f in _sorted(left):
            if isinstance(f, F.Not) and f.body not in right:
                return ("not-l", (f,), ((left, right | {f.body}),))
            if isinstance(f, F.And) and not {f.left, f.right} <= left:
                return ("and-l", (f,), ((left | {f.left, f.right}, right),))
            if isinstance(f, F.Box) and f.body not in left:
                return ("box-l", (f,), ((left | {f.body}, right),))
        for f in _sorted(right):
            if isinstance(f, F.Not) and f.body not in left:
                return ("not-r", (f,), ((left | {f.body}, right),))
            if isinstance(f, F.And) and f.left not in right and f.right not in right:
                return ("and-r", (f,), ((left, right | {f.left}),
                                        (left, right | {f.right})))
        return None

    def _box_right(self, seq: Sequent, box: F.Box):
        left, right = seq
        heads = frozenset(f.y for f in left
                          if isinstance(f, F.DepAtom) and f.xs == box.xs)
        frame = box.xs | heads
        keep_l = frozenset(f for f in left if F.free_vars(f) <= frame)
        keep_r = frozenset(f for f in right - {box} if F.free_vars(f) <= frame)
        premise = (keep_l, keep_r | {box.body, box})
        if premise == seq:
            return None
        return ("box-r", (box, frame), (premise,))

    def _branches(self, seq: Sequent):
        left, right = seq
        svars = _vars_of(seq)
        for f in _sorted(right):
            if isinstance(f, F.Box):
                inst = self._box_right(seq, f)
                if inst is not None:
                    yield inst
        # Restricted transitivity on a right-side dependence atom.  Routing
        # through the source of a left-side atom is enough: closure-style
        # derivations always chain through the atom that contributes the head.
        sources = sorted({f.xs for f in left if isinstance(f, F.DepAtom)},
                         key=lambda s: (len(s), tuple(sorted(s))))
        for f in _sorted(right):
            if not isinstance(f, F.DepAtom):
                continue
            for ys in sources:
                if not ys <= svars | f.xs | {f.y}:
                    continue
                prem = [(left, right | {F.DepAtom(f.xs, y)}) for y in sorted(ys)]
                prem.append((left, right | {F.DepAtom(ys, f.y)}))
                if any(p == seq for p in prem):
                    continue
                yield ("trans", (f, ys), tuple(prem))
        # Cuts on dependence atoms over occurring variables.  Left-side atoms
        # are consumed only by the frame of the right modal rule, so sources
        # are limited to modality subscripts occurring in the sequent.
        subscripts = sorted(self._box_subscripts(seq),
                            key=lambda s: (len(s), tuple(sorted(s))))
        for xs in subscripts:
            for y in sorted(svars):
                atom = F.DepAtom(xs, y)
                if atom in left or atom in right:
                    continue
                yield ("da-cut", (atom,),
                       ((left, right | {atom}), (left | {atom}, right)))

    @staticmethod
    def _box_subscripts(seq: Sequent) -> Set[FrozenSet[str]]:
        out: Set[FrozenSet[str]] = set()

        def visit(f: F.Formula) -> None:
            if isinstance(f, F.Box):
                out.add(f.xs)
            for c in F.children(f):
                visit(c)

        for f in seq[0] | seq[1]:
            visit(f)
        return out

    # -- tree reconstruction

    def _build_tree(self, seq: Sequent) -> ProofTree:
        step = self._memo.get(seq)
        if step is False or step is None:
            raise ProofError("no stored proof for sequent")
        rule, aux, premises = step
        return ProofTree(seq[0], seq[1], rule, aux,
                         tuple(self._build_tree(p) for p in premises))


def prove(goal: Sequent) -> Optional[ProofTree]:
    """Prove a sequent with a fresh :class:`Prover`, or return None as a
    definitive refusal."""
    return Prover().prove(goal)


def proves(goal: Sequent) -> bool:
    return Prover().proves(goal)


# ---------------------------------------------------------------------------
# Structural checks


def check_tree(tree: ProofTree, root: Optional[Sequent] = None) -> None:
    """Validate every node as a correct rule instance and enforce that only
    subformulas of the root or dependence atoms over its variables appear."""
    if root is None:
        root = tree.conclusion
    allowed: Set[F.Formula] = set()
    for f in root[0] | root[1]:
        allowed |= F.subformulas(f)
    rvars = tuple(sorted(_vars_of(root)))
    for xs in F.subsets(rvars):
        for y in rvars:
            allowed.add(F.DepAtom(xs, y))

    def visit(node: ProofTree) -> None:
        for f in node.left | node.right:
            if f not in allowed:
                raise ProofError(
                    f"formula outside the root's subformula space: "
                    f"{format_formula(f)}")
        _check_rule(node)
        for p in node.premises:
            visit(p)

    visit(tree)


def _check_rule(node: ProofTree) -> None:
    left, right, rule, aux = node.left, node.right, node.rule, node.aux
    prem = [p.conclusion for p in node.premises]

    def fail(msg: str):
        raise ProofError(f"bad {rule} instance at "
                         f"{format_sequent(_sorted(left), _sorted(right))}: {msg}")

    if rule == "ax-id":
        if not (aux[0] in left and aux[0] in right):
            fail("identity formula not on both sides")
    elif rule == "ax-proj":
        atom = aux[0]
        if not (isinstance(atom, F.DepAtom) and atom in right and atom.y in atom.xs):
            fail("projection axiom needs D{X}x with x in X on the right")
    elif rule == "ax-bot":
        if not any(isinstance(f, F.Bot) for f in left):
            fail("no falsum on the left")
    elif rule == "ax-top":
        if not any(isinstance(f, F.Top) for f in right):
            fail("no verum on the right")
    elif rule == "not-l":
        f = aux[0]
        if prem != [(left, right | {f.body})] or f not in left:
            fail("premise mismatch")
    elif rule == "not-r":
        f = aux[0]
        if prem != [(left | {f.body}, right)] or f not in right:
            fail("premise mismatch")
    elif rule == "and-l":
        f = aux[0]
        if prem != [(left | {f.left, f.right}, right)] or f not in left:
            fail("premise mismatch")
    elif rule == "and-r":
        f = aux[0]
        if f not in right or prem != [(left, right | {f.left}),
                                      (left, right | {f.right})]:
            fail("premise mismatch")
    elif rule == "box-l":
        f = aux[0]
        if prem != [(left | {f.body}, right)] or f not in left:
            fail("premise mismatch")
    elif rule == "box-r":
        box, frame = aux
        if box not in right:
            fail("principal modality missing")
        heads = {f.y for f in left
                 if isinstance(f, F.DepAtom) and f.xs == box.xs}
        if frame != box.xs | heads:
            fail("frame does not match the guard atoms")
        (pl, pr), = prem
        if not all(F.free_vars(f) <= frame for f in pl | pr - {box.body, box}):
            fail("premise keeps a formula outside the frame")
        if pl != frozenset(f for f in left if F.free_vars(f) <= frame):
            fail("kept antecedent mismatch")
        if pr != frozenset(f for f in right - {box}
                           if F.free_vars(f) <= frame) | {box.body, box}:
            fail("kept succedent mismatch")
    elif rule == "trans":
        atom, ys = aux
        if atom not in right:
            fail("principal atom missing")
        svars = _vars_of((left, right))
        if not ys <= svars | atom.xs | {atom.y}:
            fail("transitivity set uses foreign variables")
        want = [(left, right | {F.DepAtom(atom.xs, y)}) for y in sorted(ys)]
        want.append((left, right | {F.DepAtom(ys, atom.y)}))
        if prem != want:
            fail("premise mismatch")
    elif rule == "da-cut":
        atom = aux[0]
        if not atom.xs | {atom.y} <= _vars_of((left, right)):
            fail("cut atom uses foreign variables")
        if prem != [(left, right | {atom}), (left | {atom}, right)]:
            fail("premise mismatch")
    else:
        fail("unknown rule")


def serialize_tree(tree: ProofTree) -> str:
    out: List[str] = []

    def visit(node: ProofTree, indent: int) -> None:
        seq = format_sequent(_sorted(node.left), _sorted(node.right))
        out.append("  " * indent + f"[{node.rule}] {seq}")
        for p in node.premises:
            visit(p, indent + 1)

    visit(tree, 0)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Strong interpolation (Maehara extraction)


@dataclass(frozen=True)
class Split:
    """A partition of a sequent: block one gets (left1, right1)."""

    left1: Side
    right1: Side


def _simplify(f: F.Formula) -> F.Formula:
    if isinstance(f, F.Not):
        b = _simplify(f.body)
        if isinstance(b, F.Top):
            return F.Bot()
        if isinstance(b, F.Bot):
            return F.Top()
        if isinstance(b, F.Not):
            return b.body
        return F.Not(b)
    if isinstance(f, F.And):
        a, b = _simplify(f.left), _simplify(f.right)
        if isinstance(a, F.Bot) or isinstance(b, F.Bot):
            return F.Bot()
        if isinstance(a, F.Top):
            return b
        if isinstance(b, F.Top):
            return a
        if a == b:
            return a
        return F.And(a, b)
    if isinstance(f, F.Or):
        a, b = _simplify(f.left), _simplify(f.right)
        if isinstance(a, F.Top) or isinstance(b, F.Top):
            return F.Top()
        if isinstance(a, F.Bot):
            return b
        if isinstance(b, F.Bot):
            return a
        if a == b:
            return a
        return F.Or(a, b)
    if isinstance(f, F.Imp):
        a, b = _simplify(f.left), _simplify(f.right)
        if isinstance(a, F.Top):
            return b
        if isinstance(b, F.Top) or isinstance(a, F.Bot):
            return F.Top()
        if isinstance(b, F.Bot):
            return _simplify(F.Not(a))
        return F.Imp(a, b)
    if isinstance(f, F.Box):
        b = _simplify(f.body)
        if isinstance(b, F.Top):
            return F.Top()
        return F.Box(f.xs, b)
    return f


def _preds_of(fs: Iterable[F.Formula]) -> FrozenSet[str]:
    out: Set[str] = set()

    def visit(f: F.Formula) -> None:
        if isinstance(f, F.Pred):
            out.add(f.name)
        for c in F.children(f):
            visit(c)

    for f in fs:
        visit(f)
    return frozenset(out)


def _block_vars(fs: Iterable[F.Formula]) -> FrozenSet[str]:
    out: Set[str] = set()
    for f in fs:
        out |= F.all_vars(f)
    return frozenset(out)


def _extract(node: ProofTree, b1l: Side, b1r: Side, negate: bool) -> F.Formula:
    """Interpolant for the split (b1l; b1r | rest); `negate` swaps the blocks
    first and negates, which handles the asymmetric rules uniformly."""
    if negate:
        theta = _extract(node, node.left - b1l, node.right - b1r, False)
        return F.Not(theta)
    rule, aux = node.rule, node.aux
    left, right = node.left, node.right
    if rule == "ax-id":
        f = aux[0]
        in_l1, in_r1 = f in b1l, f in b1r
        if in_l1 and in_r1:
            return F.Bot()
        if in_l1:
            return f
        if in_r1:
            return F.Not(f)
        return F.Top()
    if rule == "ax-proj":
        return F.Bot() if aux[0] in b1r else F.Top()
    if rule == "ax-bot":
        return F.Bot() if any(isinstance(f, F.Bot) for f in b1l) else F.Top()
    if rule == "ax-top":
        return F.Bot() if any(isinstance(f, F.Top) for f in b1r) else F.Top()
    if rule == "not-l":
        f = aux[0]
        nb1r = b1r | {f.body} if f in b1l else b1r
        return _extract(node.premises[0], b1l, nb1r, False)
    if rule == "not-r":
        f = aux[0]
        nb1l = b1l | {f.body} if f in b1r else b1l
        return _extract(node.premises[0], nb1l, b1r, False)
    if rule == "and-l":
        f = aux[0]
        nb1l = b1l | {f.left, f.right} if f in b1l else b1l
        return _extract(node.premises[0], nb1l, b1r, False)
    if rule == "box-l":
        f = aux[0]
        nb1l = b1l | {f.body} if f in b1l else b1l
        return _extract(node.premises[0], nb1l, b1r, False)
    if rule == "and-r":
        f = aux[0]
        in1 = f in b1r
        th1 = _extract(node.premises[0], b1l, b1r | ({f.left} if in1 else frozenset()), False)
        th2 = _extract(node.premises[1], b1l, b1r | ({f.right} if in1 else frozenset()), False)
        return F.Or(th1, th2) if in1 else F.And(th1, th2)
    if rule == "trans":
        atom, ys = aux
        if atom in b1r:
            return _extract(node, b1l, b1r, True)
        vars1 = _block_vars(b1l | b1r)
        vars2 = _block_vars((left - b1l) | (right - b1r))
        extras = [F.DepAtom(atom.xs, y) for y in sorted(ys)] + \
            [F.DepAtom(ys, atom.y)]
        route_vars = atom.xs | ys | {atom.y}
        if not ys <= vars2 and route_vars <= vars1:
            # invented atoms join block one; it must then hand the
            # conclusion atom itself across the split
            parts = [_extract(child, b1l, b1r | {extra}, False)
                     for child, extra in zip(node.premises, extras)]
            combined: F.Formula = atom
            for p in parts:
                combined = F.Or(combined, p)
            return combined
        parts = [_extract(child, b1l, b1r, False) for child in node.premises]
        combined = parts[0]
        for p in parts[1:]:
            combined = F.And(combined, p)
        return combined
    if rule == "da-cut":
        atom = aux[0]
        vars1 = _block_vars(b1l | b1r)
        vars2 = _block_vars((left - b1l) | (right - b1r))
        fits2 = atom.xs | {atom.y} <= vars2
        fits1 = atom.xs | {atom.y} <= vars1
        to_block1 = fits1 and not fits2
        if to_block1:
            th1 = _extract(node.premises[0], b1l, b1r | {atom}, False)
            th2 = _extract(node.premises[1], b1l | {atom}, b1r, False)
            return F.Or(th1, th2)
        th1 = _extract(node.premises[0], b1l, b1r, False)
        th2 = _extract(node.premises[1], b1l, b1r, False)
        return F.And(th1, th2)
    if rule == "box-r":
        box, frame = aux
        if box in b1r:
            return _extract(node, b1l, b1r, True)
        premise = node.premises[0]
        nb1l = frozenset(f for f in b1l if f in premise.left)
        nb1r = frozenset(f for f in b1r if f in premise.right)
        theta_p = _extract(premise, nb1l, nb1r, False)
        y1 = {f.y for f in b1l if isinstance(f, F.DepAtom) and f.xs == box.xs}
        y2 = {f.y for f in (left - b1l)
              if isinstance(f, F.DepAtom) and f.xs == box.xs}
        vars1 = _block_vars(b1l | b1r)
        vars2 = _block_vars((left - b1l) | (right - b1r))
        ystar = box.xs | y1 | y2
        w: Set[str] = set()
        for f in nb1l | nb1r:
            w |= F.free_vars(f)
        w |= F.free_vars(F.desugar(theta_p)) & ystar
        w &= vars1 & vars2
        inner: F.Formula = F.Box(frozenset(w), theta_p)
        # block one's guard atoms whose heads the modality needs are handed
        # across so the other block can rebuild the frame
        carried = [F.DepAtom(box.xs, y) for y in sorted(w & y1 - box.xs - y2)]
        if carried:
            return F.And(F.conj(carried), inner)
        return inner
    raise InterpolationError(f"no interpolation case for rule {rule}")


def interpolant(tree: ProofTree, split: Optional[Split] = None,
                prover: Optional[Prover] = None) -> F.Formula:
    """Extract a strong interpolant for the tree's conclusion.

    With the default split this is a formula `t` with `left => t` and
    `t => right` provable, sharing predicates and variables with both sides.
    The three conditions are re-verified with ``prover`` (a fresh
    :class:`Prover` by default); a construction that misses them raises
    :class:`InterpolationError`.
    """
    check_tree(tree)
    if split is None:
        split = Split(tree.left, frozenset())
    if not (split.left1 <= tree.left and split.right1 <= tree.right):
        raise InterpolationError("split is not a partition of the conclusion")
    pv = prover or Prover()
    theta = _simplify(_extract(tree, split.left1, split.right1, False))
    core = F.desugar(theta)
    block1 = split.left1 | split.right1
    block2 = (tree.left - split.left1) | (tree.right - split.right1)
    if not pv.proves((split.left1, split.right1 | {core})):
        raise InterpolationError(
            f"first half not provable for {format_formula(theta)}")
    if not pv.proves((frozenset({core}) | (tree.left - split.left1),
                      tree.right - split.right1)):
        raise InterpolationError(
            f"second half not provable for {format_formula(theta)}")
    if not _preds_of([core]) <= (_preds_of(block1) & _preds_of(block2)):
        raise InterpolationError(
            f"interpolant uses unshared predicates: {format_formula(theta)}")
    if not F.all_vars(core) <= (_block_vars(block1) & _block_vars(block2)):
        raise InterpolationError(
            f"interpolant uses unshared variables: {format_formula(theta)}")
    return theta
