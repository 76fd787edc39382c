"""Relational semantics: validation, evaluation, the two bridges, bounded
unraveling and dependent filtration."""

import itertools
import random

import pytest

from helpers import (random_base_formula, random_model, restaurant_model)
from lfd import checker
from lfd import formulas as F
from lfd.decide import closure_index
from lfd.parser import parse
from lfd.relational import (RelationalModel, RelationalError, dep_of,
                            dumps_relational, eval_rel, filtrate,
                            last_world_map, parse_relational, rel_of, unravel,
                            validate, world_to_row)


def fs(*names):
    return frozenset(names)


def general_two_world():
    """A small hand-built general model: one x-block, dependence atoms with
    their projections, and matching pred atoms."""
    worlds = ("a", "b")
    deps = frozenset({(fs("x"), "x"), (fs("x"), "y"), (fs("x", "y"), "x"),
                      (fs("x", "y"), "y"), (fs("y"), "y")})
    relations = {
        fs(): {"a": 0, "b": 0},
        fs("x"): {"a": 0, "b": 0},
        fs("y"): {"a": 0, "b": 0},
        fs("x", "y"): {"a": 0, "b": 0},
    }
    atoms = frozenset({("P", ("x",))})
    return RelationalModel(worlds, ("x", "y"), "general", relations,
                           {"a": deps, "b": deps},
                           {"a": atoms, "b": atoms})


class TestValidate:
    def test_rel_of_is_valid_standard(self):
        rng = random.Random(91)
        for _ in range(20):
            m = random_model(rng, ("x", "y"))
            assert validate(rel_of(m)) == []

    def test_hand_built_general_model(self):
        assert validate(general_two_world()) == []

    def test_transfer_violation_reported(self):
        r = general_two_world()
        bad = RelationalModel(
            r.worlds, r.variables, "general", dict(r.relations),
            {"a": r.dep_atoms["a"], "b": frozenset({
                (fs("x"), "x"), (fs("x", "y"), "x"), (fs("x", "y"), "y"),
                (fs("y"), "y")})},
            dict(r.pred_atoms))
        problems = validate(bad)
        assert any("(3)" in p for p in problems)

    def test_projection_violation_reported(self):
        r = general_two_world()
        bad = RelationalModel(
            r.worlds, r.variables, "general", dict(r.relations),
            {"a": frozenset({(fs("x"), "y")}),
             "b": frozenset({(fs("x"), "y")})},
            dict(r.pred_atoms))
        problems = validate(bad)
        assert any("(2) projection" in p for p in problems)

    def test_standard_atom_condition_messages(self):
        # P(x) holds at w0 and w4 but not at their x-equivalent w1
        relations = {
            fs("x"): {"w0": 0, "w1": 0, "w2": 1, "w3": 1, "w4": 0},
            fs("y"): {"w0": 0, "w1": 1, "w2": 1, "w3": 2, "w4": 3},
        }
        atoms = {
            "w0": frozenset({("P", ("x",)), ("R", ("x", "x")),
                             ("R", ("x", "y"))}),
            "w2": frozenset({("P", ("y",))}),
            "w3": frozenset({("P", ("x",))}),
            "w4": frozenset({("P", ("x",))}),
        }
        r = RelationalModel(("w0", "w1", "w2", "w3", "w4"), ("x", "y"),
                            "standard", relations, {}, atoms)
        assert validate(r) == [
            "atom condition: P('x',) at w0 but not at "
            "['x']-equivalent w1",
            "atom condition: P('x',) at w3 but not at "
            "['x']-equivalent w2",
            "atom condition: P('x',) at w4 but not at "
            "['x']-equivalent w1",
            "atom condition: P('y',) at w2 but not at "
            "['y']-equivalent w1",
            "atom condition: R('x', 'x') at w0 but not at "
            "['x']-equivalent w1",
            "atom condition: R('x', 'x') at w0 but not at "
            "['x']-equivalent w4",
        ]

    def test_general_transfer_message_sorts_the_set(self):
        # D{y,z}x holds at a but not at its {y,z}-equivalent b
        yz = fs("y", "z")
        proj = {(yz, "y"), (yz, "z")}
        r = RelationalModel(("a", "b"), ("x", "y", "z"), "general",
                            {fs(): {"a": 0, "b": 0}, yz: {"a": 0, "b": 0}},
                            {"a": frozenset(proj | {(yz, "x")}),
                             "b": frozenset(proj)}, {})
        assert validate(r) == [
            "(3) transfer fails: D['y', 'z']x at a but not at "
            "['y', 'z']-equivalent b"]

    def test_standard_missing_relation_reported(self):
        r = RelationalModel(("w0", "w1"), ("x", "y"), "standard",
                            {fs("y"): {"w0": 0, "w1": 0}}, {},
                            {"w0": frozenset({("R", ("x", "y"))})})
        assert validate(r) == ["missing relation for variable x"]

    def test_non_global_empty_relation_reported(self):
        r = general_two_world()
        bad_rel = dict(r.relations)
        bad_rel[fs()] = {"a": 0, "b": 1}
        bad = RelationalModel(r.worlds, r.variables, "general", bad_rel,
                              dict(r.dep_atoms), dict(r.pred_atoms))
        assert any("(5)" in p for p in validate(bad))


class TestEvalRel:
    def test_single_world_modalitiy_is_identity(self):
        r = RelationalModel(("w",), ("x",), "general",
                            {fs(): {"w": 0}, fs("x"): {"w": 0}},
                            {"w": frozenset({(fs("x"), "x")})},
                            {"w": frozenset({("P", ("x",))})})
        assert eval_rel(r, "w", parse("box{x}P(x)"))
        assert eval_rel(r, "w", parse("P(x)"))

    def test_restaurant_dependence(self):
        m = restaurant_model()
        r = rel_of(m)
        wz = [i for i in range(len(m.team))
              if m.team[i]["Restaurant"] == "Wilde Zwider"][0]
        assert eval_rel(r, f"w{wz}", parse("D{Food}Price"))

    def test_missing_relation_errors(self):
        r = general_two_world()
        trimmed = RelationalModel(r.worlds, r.variables, "general",
                                  {fs(): r.relations[fs()]},
                                  dict(r.dep_atoms), dict(r.pred_atoms))
        with pytest.raises(RelationalError):
            eval_rel(trimmed, "a", parse("box{x}P(x)"))


class TestBridges:
    def test_rel_of_preserves_team_size(self):
        m = restaurant_model()
        assert len(rel_of(m).worlds) == len(m.team)

    def test_rel_of_agrees_with_checker(self):
        # three-variable teams take several formulas in turn on one model,
        # so its partition index is filled by one query and read by the next
        rng = random.Random(92)
        for vs, rows, n_models, n_formulas in ((("x", "y"), 6, 60, 1),
                                               (("x", "y", "z"), 12, 20, 5)):
            for _ in range(n_models):
                m = random_model(rng, vs, max_rows=rows)
                r = rel_of(m)
                for _ in range(n_formulas):
                    f = random_base_formula(rng, vs, rng.randint(0, 3))
                    got = {i for i in range(len(m.team))
                           if eval_rel(r, f"w{i}", f)}
                    assert got == checker.truth_set(m, f), f

    def test_dep_of_agrees_with_relational(self):
        rng = random.Random(93)
        vs = ("x", "y")
        for _ in range(40):
            m = random_model(rng, vs)
            r = rel_of(m)
            back = dep_of(r)
            of_world = world_to_row(r)
            f = random_base_formula(rng, vs, rng.randint(0, 3))
            for w in r.worlds:
                assert eval_rel(r, w, f) == \
                    checker.eval_formula(back, of_world[w], f)

    def test_single_world_round_trip(self):
        r = RelationalModel(("w",), ("x",), "standard",
                            {fs("x"): {"w": 0}}, {},
                            {"w": frozenset({("P", ("x",))})})
        m = dep_of(r)
        assert len(m.team) == 1

    def test_world_map_is_homomorphism(self):
        rng = random.Random(94)
        vs = ("x", "y")
        for _ in range(40):
            m = random_model(rng, vs)
            r = rel_of(m)
            rr = rel_of(dep_of(r))
            h = world_to_row(r)
            # surjective
            assert set(h.values()) == set(range(len(rr.worlds)))
            # relation preserving both ways on the singleton relations
            for x in vs:
                rel1 = r.relations[fs(x)]
                rel2 = rr.relations[fs(x)]
                for w, v in itertools.product(r.worlds, repeat=2):
                    if rel1[w] == rel1[v]:
                        assert rel2[f"w{h[w]}"] == rel2[f"w{h[v]}"]
            # atoms preserved
            for w in r.worlds:
                assert r.pred_atoms.get(w, frozenset()) == \
                    rr.pred_atoms.get(f"w{h[w]}", frozenset())


class TestUnravel:
    def test_depth_zero_is_single_history(self):
        r = general_two_world()
        u = unravel(r, "a", 0)
        assert u.worlds == ("h0",)
        assert u.pred_atoms["h0"] == r.pred_atoms["a"]

    def test_result_is_standard_and_valid(self):
        r = general_two_world()
        u = unravel(r, "a", 2)
        assert u.kind == "standard"
        assert validate(u) == []

    def test_last_map_relation_preserving_and_surjective(self):
        r = general_two_world()
        depth = 2
        u = unravel(r, "a", depth)
        last = last_world_map(r, "a", depth)
        assert set(last.values()) == set(r.worlds)  # one empty-set step away
        for x in r.variables:
            relu = u.relations[fs(x)]
            relr = r.relation(fs(x))
            for h, h2 in itertools.product(u.worlds, repeat=2):
                if relu[h] == relu[h2]:
                    assert relr[last[h]] == relr[last[h2]]

    def test_eval_agreement_up_to_depth(self):
        rng = random.Random(95)
        r = general_two_world()
        u = unravel(r, "a", 2)
        for _ in range(60):
            f = random_base_formula(rng, ("x", "y"), rng.randint(0, 2),
                                    {"P": 1})
            if F.modal_depth(F.desugar(f)) > 1:
                continue
            assert eval_rel(r, "a", f) == eval_rel(u, "h0", f)


class TestFiltrate:
    def test_distinct_worlds_stay_distinct(self):
        m = restaurant_model()
        r = rel_of(m)
        out = filtrate(r, parse("D{Food}Price"))
        assert validate(out) == []

    def test_filtration_lemma_and_size_bound(self):
        rng = random.Random(96)
        for vs, rows, n_models, n_formulas in ((("x", "y"), 6, 25, 1),
                                               (("x", "y", "z"), 12, 10, 3)):
            for _ in range(n_models):
                m = random_model(rng, vs, max_rows=rows)
                r = rel_of(m)
                for _ in range(n_formulas):
                    f = random_base_formula(rng, vs, rng.randint(0, 2))
                    out = filtrate(r, f)
                    phi = closure_index([f])
                    assert len(out.worlds) <= 2 ** len(phi)
                    assert validate(out) == []
                    # each world satisfies exactly the closure formulas its
                    # class does, and the checker agrees on every row
                    truth = [checker.truth_set(m, g) for g in phi.formulas]
                    profiles = {}
                    for i, w in enumerate(r.worlds):
                        prof = tuple(eval_rel(r, w, g) for g in phi.formulas)
                        assert prof == tuple(i in t for t in truth), f
                        profiles.setdefault(prof, w)
                    for prof, w in profiles.items():
                        cls = [c for c in out.worlds if prof == tuple(
                            eval_rel(out, c, g) for g in phi.formulas)]
                        assert len(cls) == 1, (f, prof)

    def test_restaurant_collapses_agreeing_rows(self):
        m = restaurant_model()
        r = rel_of(m)
        out = filtrate(r, parse("D{Food}Price"))
        assert len(out.worlds) <= len(r.worlds)

    def test_same_text_as_reference_filtration(self):
        # standard inputs from 2- and 3-variable teams, and general inputs:
        # each quotient filtrated again by a second formula
        rng = random.Random(97)

        def formula(vs):
            return F.And(random_base_formula(rng, vs, rng.randint(1, 2)),
                         random_base_formula(rng, vs, rng.randint(0, 2)))

        for vs, n_models in ((("x", "y"), 60), (("x", "y", "z"), 30)):
            for _ in range(n_models):
                r = rel_of(random_model(rng, vs, max_objects=5, max_rows=30))
                f = formula(vs)
                out = filtrate(r, f)
                # a second formula over the variables the quotient keeps
                g = formula(out.variables)
                assert dumps_relational(out) == \
                    dumps_relational(reference_filtrate(r, f)), f
                assert dumps_relational(filtrate(out, g)) == \
                    dumps_relational(reference_filtrate(out, g)), (f, g)


def reference_filtrate(r, phi):
    """The filtration as first written: truth profiles grouped in order of
    first occurrence, with =X classes keyed by the profile bits framed by
    each class's dependence atoms."""
    phi_set = sorted(F.closure([phi]), key=F.sort_key)
    vf = sorted({v for f in phi_set for v in F.all_vars(f)})
    profile_of = {w: tuple(eval_rel(r, w, g) for g in phi_set)
                  for w in r.worlds}
    classes = {}
    rep = {}
    for w in r.worlds:
        p = profile_of[w]
        if p not in classes:
            classes[p] = f"c{len(classes)}"
            rep[classes[p]] = w
    worlds = tuple(classes.values())
    dep_atoms = {}
    pred_atoms = {}
    for c in worlds:
        held = [f for f, t in zip(phi_set, profile_of[rep[c]]) if t]
        dep_atoms[c] = frozenset(
            (f.xs, f.y) for f in held if isinstance(f, F.DepAtom))
        pred_atoms[c] = frozenset(
            (f.name, f.args) for f in held if isinstance(f, F.Pred))
    relations = {}
    for xs in F.subsets(vf):
        keys = {}
        for c in worlds:
            frame = {y for (us, y) in dep_atoms[c] if us == xs}
            keys[c] = tuple((i, profile_of[rep[c]][i])
                            for i, f in enumerate(phi_set)
                            if F.free_vars(f) <= frame)
        ids = {}
        relations[xs] = {c: ids.setdefault(keys[c], len(ids)) for c in worlds}
    return RelationalModel(worlds, tuple(vf), "general", relations, dep_atoms,
                           pred_atoms)


class TestTextFormat:
    def test_round_trip(self):
        r = general_two_world()
        again = parse_relational(dumps_relational(r))
        assert again.worlds == r.worlds
        assert again.kind == r.kind
        assert {k: dict(v) for k, v in again.relations.items()} == \
            {k: dict(v) for k, v in r.relations.items()}
        assert dict(again.dep_atoms) == dict(r.dep_atoms)
        assert dict(again.pred_atoms) == dict(r.pred_atoms)

    def test_standard_round_trip(self):
        m = restaurant_model()
        r = rel_of(m)
        again = parse_relational(dumps_relational(r))
        assert again.worlds == r.worlds
        for x in m.variables:
            a = again.relations[fs(x)]
            b = r.relations[fs(x)]
            for w, v in itertools.product(r.worlds, repeat=2):
                assert (a[w] == a[v]) == (b[w] == b[v])
