"""Decision procedure: Hintikka enumeration, the same-frame relation, the
cell-elimination satisfiability check and bounded realization."""

import itertools
import random

import pytest

from helpers import (ex27_model, random_base_formula, random_model,
                     random_varset)
from lfd import checker
from lfd import formulas as F
from lfd import relational
from lfd import represent
from lfd.decide import (DecideError, HintikkaSet, TypeModel, closure_index,
                        dep_closure_syntactic, hintikka_sets, is_type_model,
                        realize_bounded, sat, sim, type_model_of, valid)
from lfd.parser import parse


def fs(*names):
    return frozenset(names)


class TestHintikkaSets:
    def test_single_atom_closure(self):
        phi = closure_index([parse("P(x)")])
        sets = hintikka_sets(phi)
        dxx = parse("D{x}x")
        cx = parse("D{}x")
        for s in sets:
            assert s.contains(dxx)
            assert s.contains(cx) != s.contains(F.Not(cx))
        # two dependence patterns times two P-values
        assert len(sets) == 4

    def test_no_set_contains_both_signs(self):
        phi = closure_index([parse("box{x}P(x) & D{x}y")])
        for s in hintikka_sets(phi):
            for f in phi.formulas:
                if isinstance(f, F.Not):
                    assert s.contains(f) != s.contains(f.body)

    def test_box_reflection(self):
        phi = closure_index([parse("box{x}P(x)")])
        b = parse("box{x}P(x)")
        for s in hintikka_sets(phi):
            if s.contains(b):
                assert s.contains(parse("P(x)"))

    def test_empty_closure(self):
        phi = closure_index([])
        assert len(hintikka_sets(phi)) == 1

    def test_refuses_more_than_four_variables(self):
        # closure_index accepts five variables; the enumeration must refuse
        phi = closure_index([parse("D{a,b}c -> D{d}e")])
        with pytest.raises(F.ClosureCapError, match="limit of 4"):
            hintikka_sets(phi)

    def test_dependence_transitivity_inside_sets(self):
        phi = closure_index([parse("D{x}y & D{y}z")])
        vs = phi.variables
        subs = [frozenset(c) for n in range(len(vs) + 1)
                for c in itertools.combinations(vs, n)]
        for s in hintikka_sets(phi):
            for xs in subs:
                for ys in subs:
                    if all(s.contains(F.DepAtom(xs, y)) for y in ys):
                        for z in vs:
                            if s.contains(F.DepAtom(ys, z)):
                                assert s.contains(F.DepAtom(xs, z))


def depth(f):
    return 1 + max((depth(c) for c in F.children(f)), default=0)


def reference_hintikka_sets(phi):
    """The Hintikka sets by the original formula-level enumeration: every
    enumerated relation, then every predicate choice, then every box choice
    (innermost first) whose body allows it, with truth read off a dict."""
    if len(phi) == 0:
        return [0]
    preds = [f for f in phi.formulas if isinstance(f, F.Pred)]
    boxes = sorted((f for f in phi.formulas if isinstance(f, F.Box)),
                   key=depth)

    def truth(f, choice):
        if f in choice:
            return choice[f]
        if isinstance(f, F.Top):
            return True
        if isinstance(f, F.Bot):
            return False
        if isinstance(f, F.Not):
            return not truth(f.body, choice)
        if isinstance(f, F.And):
            return truth(f.left, choice) and truth(f.right, choice)
        raise AssertionError(f"unassigned atom {f!r}")

    out = []

    def assign(i_pred, i_box, choice):
        if i_pred < len(preds):
            for val in (False, True):
                assign(i_pred + 1, i_box, {**choice, preds[i_pred]: val})
        elif i_box < len(boxes):
            b = boxes[i_box]
            for val in (False, True) if truth(b.body, choice) else (False,):
                assign(i_pred, i_box + 1, {**choice, b: val})
        else:
            out.append(sum(1 << i for i, f in enumerate(phi.formulas)
                           if truth(f, choice)))

    for rel in represent.enumerate_dependence_relations(phi.variables):
        assign(0, 0, {f: rel.holds(f.xs, f.y) for f in phi.formulas
                      if isinstance(f, F.DepAtom)})
    return out


class TestAgainstReferenceEnumeration:
    def test_random_formulas_same_sets_in_same_order(self):
        rng = random.Random(64)
        for k in range(45):
            vs = ("x", "y", "z")[:1 + k % 3]
            f = random_base_formula(rng, vs, 3 if len(vs) < 3 else 2)
            phi = closure_index([f])
            assert [s.bits for s in hintikka_sets(phi)] == \
                reference_hintikka_sets(phi), f

    @pytest.mark.parametrize("text", [
        "!(D{x}y & D{y}z & D{z}w -> D{x}w)",
        "!(D{x}y & D{z}w -> D{x,z}{y,w})",
        "D{x}y & !D{y}x & D{z,w}x"])
    def test_four_variable_formulas_same_sets_in_same_order(self, text):
        phi = closure_index([F.desugar(parse(text))])
        assert [s.bits for s in hintikka_sets(phi)] == \
            reference_hintikka_sets(phi)


class TestDepClosureSyntactic:
    def test_contains_sources(self):
        phi = closure_index([parse("D{x}y")])
        for s in hintikka_sets(phi):
            assert dep_closure_syntactic(s, fs("x")) >= fs("x")

    def test_transitive_atoms_pull_in_heads(self):
        phi = closure_index([parse("D{x}y & D{y}z")])
        for s in hintikka_sets(phi):
            if s.contains(parse("D{x}y")) and s.contains(parse("D{y}z")):
                assert dep_closure_syntactic(s, fs("x")) >= fs("x", "y", "z")

    def test_least_fixed_point(self):
        phi = closure_index([parse("D{x}y & D{y}z")])
        vs = phi.variables
        for s in hintikka_sets(phi)[:40]:
            for xs in (fs("x"), fs("y"), fs()):
                got = dep_closure_syntactic(s, xs)
                # brute force: grow from xs under the set's atoms
                cur = set(xs)
                changed = True
                while changed:
                    changed = False
                    subs = [frozenset(c) for n in range(len(cur) + 1)
                            for c in itertools.combinations(sorted(cur), n)]
                    for ys in subs:
                        for z in vs:
                            if s.contains(F.DepAtom(ys, z)) and z not in cur:
                                cur.add(z)
                                changed = True
                assert got == frozenset(cur)


class TestSim:
    def test_reflexive(self):
        phi = closure_index([parse("box{x}P(x)")])
        for s in hintikka_sets(phi):
            assert sim(s, s, fs("x"))

    def test_equal_closures_and_symmetry(self):
        phi = closure_index([parse("D{x}y & P(x)")])
        sets = hintikka_sets(phi)
        for a in sets:
            for b in sets:
                for xs in (fs(), fs("x"), fs("x", "y")):
                    if sim(a, b, xs):
                        assert dep_closure_syntactic(a, xs) == \
                            dep_closure_syntactic(b, xs)
                        assert sim(b, a, xs)

    def test_atom_moves_frames(self):
        phi = closure_index([parse("D{x}y & P(x)")])
        sets = hintikka_sets(phi)
        for a in sets:
            for b in sets:
                if sim(a, b, fs("x")) and a.contains(parse("D{x}y")):
                    assert sim(a, b, fs("y")) or not a.contains(parse("D{y}x"))
                    # D{X}Y in a and a ~X b imply a ~Y b
                    if a.contains(parse("D{x}y")) and a.contains(parse("D{x}x")):
                        assert sim(a, b, fs("y"))


class TestSat:
    def test_contradiction(self):
        assert sat(parse("P(x) & !P(x)")).status == "unsat"

    def test_asymmetric_dependence(self):
        r = sat(parse("D{x}y & !D{y}x"))
        assert r.status == "sat"
        # the three-row numeric table is a concrete witness
        m = ex27_model()
        assert checker.eval_formula(m, 0, parse("D{x}y & !D{y}x"))

    def test_transfer_negation_unsat(self):
        r = sat(parse("!((D{x}y & box{y}P(y)) -> box{x}P(y))"))
        assert r.status == "unsat"

    def test_witness_model_checks(self):
        for text in ("D{x}y & !D{y}x",
                     "dia{x}dia{y}R(x,y) & !dia{y}dia{x}R(x,y)",
                     "E P(x) & E !P(x)",
                     "box{x}P(x) & !box{}P(x)"):
            f = parse(text)
            r = sat(f)
            assert r.status == "sat", text
            assert relational.eval_rel(r.witness, r.witness_world, f)
            assert relational.validate(r.witness) == []

    def test_stats_present(self):
        r = sat(parse("P(x)"))
        assert r.stats["hintikka_sets"] > 0
        assert r.stats["closure_size"] == 6
        # closure systems over one variable: {x} alone, or with {}
        assert r.stats["relations"] == 2

    def test_relations_counted_for_validity(self):
        assert valid(parse("D{x}y -> D{x,z}y")).stats["relations"] == 61


class TestValid:
    def test_elimination(self):
        assert valid(parse("box{x}P(x) -> P(x)")).status == "valid"

    def test_intro_side_condition_matters(self):
        r = valid(parse("P(x) -> box{y}P(x)"))
        assert r.status == "invalid"
        f = parse("P(x) -> box{y}P(x)")
        assert not relational.eval_rel(r.countermodel, r.countermodel_world, f)

    def test_commutation_invalid_with_countermodel(self):
        f = parse("dia{x}dia{y}R(x,y) -> dia{y}dia{x}R(x,y)")
        r = valid(f)
        assert r.status == "invalid"
        assert not relational.eval_rel(r.countermodel, r.countermodel_world, f)

    def test_rejects_extensions(self):
        with pytest.raises(DecideError):
            valid(parse("I{x}{y}"))

    def test_refuses_more_than_four_variables(self):
        f = parse("D{a,b}c -> D{d}e")
        for decide_fn in (sat, valid):
            with pytest.raises(F.ClosureCapError, match="limit of 4"):
                decide_fn(f)


class TestAgainstBruteForce:
    def test_small_formulas_agree_with_model_search(self):
        rng = random.Random(61)
        vs = ("x", "y")
        # all teams over two values and both unary interpretations
        rows = [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]
        models = []
        from lfd.models import model_from_rows
        for n in range(1, 5):
            for team in itertools.combinations(rows, n):
                for pbits in range(4):
                    interp = {"P": {(v,) for i, v in enumerate(("0", "1"))
                                    if pbits >> i & 1}}
                    models.append(model_from_rows(vs, [list(r) for r in team],
                                                  {"P": 1}, interp))
        for _ in range(40):
            f = random_base_formula(rng, vs, rng.randint(0, 2), {"P": 1})
            found = any(checker.truth_set(m, f) for m in models)
            status = sat(f).status
            if found:
                assert status == "sat", f
            # searched models cover every two-value shape, so unsat answers
            # must never be witnessed there
            if status == "unsat":
                assert not found, f


class TestTypeModels:
    def test_model_types_form_a_type_model(self):
        rng = random.Random(62)
        for _ in range(25):
            m = random_model(rng, ("x", "y"))
            f = random_base_formula(rng, ("x", "y"), 2)
            phi = closure_index([f])
            t = type_model_of(m, phi)
            assert is_type_model(phi, t.family)

    def test_realize_bounded_depth_one(self):
        phi = closure_index([parse("P(x)")])
        sets = [s for s in hintikka_sets(phi) if s.contains(parse("P(x)"))]
        fam = [s for s in sets if sim(s, s, fs())][:1]
        t = TypeModel(phi, tuple(fam))
        m = realize_bounded(t, 1)
        assert len(m.team) == 1
        assert checker.eval_formula(m, 0, parse("P(x)"))

    def test_realize_agrees_with_membership(self):
        from lfd.decide import agreement_depth
        rng = random.Random(63)
        done = 0
        while done < 12:
            base = random_model(rng, ("x", "y"), max_objects=3, max_rows=3)
            f = random_base_formula(rng, ("x", "y"), 2)
            if F.modal_depth(f) > 1:
                continue
            done += 1
            phi = closure_index([f])
            t = type_model_of(base, phi)
            depth = max(agreement_depth(g) for g in phi.formulas) + 1
            m = realize_bounded(t, depth)
            ev = checker.Evaluator(m)
            # the root set is realized at the first path assignment
            root = t.family[0]
            for g in phi.formulas:
                if agreement_depth(g) <= depth - 1:
                    assert ev.eval(0, g) == root.truth(g), (f, g)

    def test_constants_uniform_across_paths(self):
        phi = closure_index([parse("D{}x & P(x)")])
        r = sat(parse("D{}x & P(x)"))
        assert r.status == "sat"
        sets = [s for s in hintikka_sets(phi)
                if s.truth(parse("D{}x & P(x)"))]
        fam = tuple(s for s in sets if all(sim(s, d, fs()) for d in sets[:1]))
        fam = tuple(s for s in fam if is_type_model(phi, (s,)))
        if fam:
            m = realize_bounded(TypeModel(phi, fam[:1]), 3)
            assert len(m.values("x")) == 1

    def test_depth_must_be_positive(self):
        phi = closure_index([parse("P(x)")])
        t = TypeModel(phi, tuple(hintikka_sets(phi)[:1]))
        with pytest.raises(DecideError):
            realize_bounded(t, 0)

    def test_same_answer_as_reference_check(self):
        # sub-families of all Hintikka sets, half of them inside one
        # empty-set frame class, and sub-families of realized types
        rng = random.Random(64)
        answers = []
        for vs in [("x", "y")] * 60 + [("x", "y", "z")] * 15:
            f = F.And(random_base_formula(rng, vs, rng.randint(0, 2)),
                      F.Box(random_varset(rng, vs),
                            random_base_formula(rng, vs, rng.randint(0, 1))))
            phi = closure_index([f])
            sets = hintikka_sets(phi)
            realized = type_model_of(random_model(rng, vs, max_rows=8),
                                     phi).family
            for k in range(12):
                pool = sets
                if k % 2:
                    pivot = rng.choice(sets)
                    pool = [d for d in sets if sim(pivot, d, fs())]
                if k % 4 == 3:
                    pool = realized
                fam = rng.sample(pool, rng.randint(1, min(8, len(pool))))
                want = reference_is_type_model(phi, fam)
                assert is_type_model(phi, fam) == want, (f, fam)
                answers.append(want)
            assert is_type_model(phi, realized)
        assert 0.2 < sum(answers) / len(answers) < 0.8


def reference_is_type_model(phi, family):
    """The type-model check as first written: one same-frame class under the
    empty set, and a witness for every lacking box, by pairwise ``sim``."""
    fam = list(family)
    for a, b in itertools.product(fam, repeat=2):
        if not sim(a, b, frozenset()):
            return False
    boxes = [f for f in phi.formulas if isinstance(f, F.Box)]
    for sigma in fam:
        for b in boxes:
            if sigma.contains(b):
                continue
            if not any(sim(sigma, delta, b.xs) and not delta.truth(b.body)
                       for delta in fam):
                return False
    return True
