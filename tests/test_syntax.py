"""Formula layer: parsing, printing, free variables, renaming, closure,
term elimination and the learning-modality reduction."""

import dataclasses
import gc
import pickle
import random

import pytest

from helpers import (random_any_formula, random_base_formula,
                     random_learn_formula, random_model,
                     random_surface_formula)
from lfd import checker
from lfd import formulas as F
from lfd.parser import ParseError, format_formula, parse, parse_sequent


def fs(*names):
    return frozenset(names)


class TestParse:
    def test_dep_atom(self):
        assert parse("D{x}y") == F.DepAtom(fs("x"), "y")

    def test_box_with_implication(self):
        got = parse("box{x,y} (P(x,y) -> !Q(y))")
        assert got == F.Box(fs("x", "y"),
                            F.Imp(F.Pred("P", ("x", "y")),
                                  F.Not(F.Pred("Q", ("y",)))))

    def test_conditional_independence(self):
        assert parse("I{x}{y}|{z}") == F.Indep(fs("x"), fs("y"), fs("z"))

    def test_unconditional_independence(self):
        assert parse("I{x}{y}") == F.Indep(fs("x"), fs("y"), None)

    def test_precedence(self):
        assert parse("P() & Q() | S()") == F.Or(F.And(F.Pred("P", ()), F.Pred("Q", ())),
                                                F.Pred("S", ()))
        assert parse("P() -> Q() -> S()") == F.Imp(F.Pred("P", ()),
                                                   F.Imp(F.Pred("Q", ()), F.Pred("S", ())))

    def test_conditional_dependence_vs_disjunction(self):
        assert parse("D{x}y|(P(x))") == F.CondDep(fs("x"), "y", F.Pred("P", ("x",)))
        assert parse("D{x}y | P(x)") == F.Or(F.DepAtom(fs("x"), "y"),
                                             F.Pred("P", ("x",)))

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as e:
            parse("box{x} &")
        assert e.value.line == 1 and e.value.column == 8

    def test_arity_mismatch(self):
        with pytest.raises(ParseError):
            parse("P(x) & P(x,y)")
        with pytest.raises(ParseError):
            parse("P(x, f(x), f(x,y))")

    def test_sequent(self):
        left, right = parse_sequent("P(x); Q(y) => D{x}y")
        assert left == (F.Pred("P", ("x",)), F.Pred("Q", ("y",)))
        assert right == (F.DepAtom(fs("x"), "y"),)


class TestRoundTrip:
    def test_random_asts(self):
        rng = random.Random(7)
        for _ in range(400):
            f = random_surface_formula(rng, ("x", "y", "z"), rng.randint(0, 6))
            text = format_formula(f)
            assert parse(text) == f, text

    def test_print_parse_fixpoint(self):
        rng = random.Random(8)
        for _ in range(200):
            f = random_surface_formula(rng, ("x", "y"), rng.randint(0, 5))
            text = format_formula(f)
            assert format_formula(parse(text)) == text


class TestFreeVars:
    def test_dep_atom_frees_sources(self):
        assert F.free_vars(parse("D{x,z}y")) == fs("x", "z")

    def test_box_frees_subscript(self):
        assert F.free_vars(parse("box{x}P(x,y)")) == fs("x")

    def test_boolean_union(self):
        assert F.free_vars(parse("P(x,y) & Q(z)")) == fs("x", "y", "z")

    def test_quantifier_subtracts(self):
        rng = random.Random(9)
        for _ in range(100):
            body = random_base_formula(rng, ("x", "y", "z"), 3)
            xs = frozenset(v for v in ("x", "y", "z") if rng.random() < 0.5)
            for q in (F.AllQ(xs, body), F.ExQ(xs, body)):
                assert F.free_vars(q) == F.free_vars(body) - xs

    def test_extension_clauses(self):
        assert F.free_vars(parse("I{x}{y}|{z}")) == fs("x", "y", "z")
        assert F.free_vars(parse("D{x}y|(P(z))")) == fs("x", "z")
        assert F.free_vars(parse("[learn x] P(y)")) == fs("x", "y")
        assert F.free_vars(parse("[ann P(x)] Q(y)")) == fs("x", "y")


class TestRename:
    def test_swap(self):
        assert F.rename(parse("D{x}y"), {"x": "y", "y": "x"}) == parse("D{y}x")

    def test_identity(self):
        f = parse("box{x}P(x,y)")
        assert F.rename(f, {}) == f

    def test_structural(self):
        assert F.rename(parse("P(x,y) & D{x}y"), {"x": "u", "y": "v"}) == \
            parse("P(u,v) & D{u}v")

    def test_not_injective(self):
        with pytest.raises(F.FormulaError):
            F.rename(parse("P(x,y)"), {"x": "y"})

    def test_not_injective_message_is_fixed(self):
        # the occurring variables are checked in sorted order, whatever the
        # hash seed
        with pytest.raises(F.FormulaError) as e:
            F.rename(parse("P(x,y)"), {"x": "y"})
        assert str(e.value) == \
            "renaming not injective: 'x' and 'y' both map to 'y'"

    def test_action_laws(self):
        rng = random.Random(11)
        vs = ("x", "y", "z")
        for _ in range(100):
            f = random_surface_formula(rng, vs, rng.randint(0, 4))
            perm = list(vs)
            rng.shuffle(perm)
            tau = dict(zip(vs, perm))
            perm2 = list(vs)
            rng.shuffle(perm2)
            sigma = dict(zip(vs, perm2))
            composed = {v: sigma[tau[v]] for v in vs}
            assert F.rename(f, composed) == F.rename(F.rename(f, tau), sigma)
            assert F.rename(f, {v: v for v in vs}) == f


class TestClosure:
    def test_single_unary_atom(self):
        got = F.closure([parse("P(x)")])
        want = {parse(t) for t in
                ("P(x)", "!P(x)", "D{x}x", "D{}x", "!D{x}x", "!D{}x")}
        assert got == want

    def test_all_atoms_over_two_variables(self):
        got = F.closure([parse("D{x}y")])
        atoms = {F.DepAtom(xs, y)
                 for xs in (fs(), fs("x"), fs("y"), fs("x", "y"))
                 for y in ("x", "y")}
        assert got == atoms | {F.Not(a) for a in atoms}

    def test_empty(self):
        assert F.closure([]) == frozenset()

    def test_idempotent_and_var_bounded(self):
        rng = random.Random(12)
        for _ in range(30):
            f = random_base_formula(rng, ("x", "y"), 3)
            c = F.closure([f])
            assert F.closure(c) == c
            vf = F.all_vars(f)
            assert all(F.all_vars(g) <= vf for g in c)

    def test_cap(self):
        many = [F.Pred("P", (f"v{i}",)) for i in range(13)]
        big = many[0]
        for p in many[1:]:
            big = F.And(big, p)
        with pytest.raises(F.ClosureCapError):
            F.closure([big])


class TestEliminateTerms:
    def test_nested_terms(self):
        got = F.eliminate_terms(parse("P(x, f(x,g(y)))"))
        assert got == F.desugar(parse("A D{y}_t0 & A D{x,_t0}_t1 & P(x,_t1)")), \
            format_formula(got)

    def test_term_free_identity(self):
        assert F.eliminate_terms(parse("P(x)")) == parse("P(x)")

    def test_term_in_dependence_source(self):
        got = F.eliminate_terms(parse("D{f(x)}y"))
        assert got == F.desugar(parse("A D{x}_t0 & D{_t0}y"))

    def test_satisfiability_preserved(self):
        # the compiled form is satisfiable exactly when the original is;
        # spot-check the satisfiable direction with the decision procedure
        from lfd import decide
        got = F.eliminate_terms(parse("P(x, f(x)) & !P(x, x)"))
        assert decide.sat(got).status == "sat"

    def test_shared_terms_get_one_variable(self):
        got = F.eliminate_terms(parse("P(f(x), f(x))"))
        assert got == F.desugar(parse("A D{x}_t0 & P(_t0,_t0)"))


class TestReduceLearn:
    def test_atom_absorbs(self):
        assert F.reduce_learn(parse("[learn x] D{y}z")) == parse("D{x,y}z")

    def test_box_commutes(self):
        assert F.reduce_learn(parse("[learn x] box{y} P(y)")) == \
            parse("box{x,y} P(y)")

    def test_empty_learn_on_atom(self):
        assert F.reduce_learn(parse("[learn] P(x)")) == parse("P(x)")

    def test_output_learn_free_and_equivalent(self):
        rng = random.Random(13)
        vs = ("x", "y")
        for _ in range(60):
            f = random_learn_formula(rng, vs, rng.randint(1, 4))
            g = F.reduce_learn(f)
            assert F.is_base(g)
            m = random_model(rng, vs)
            for i in range(len(m.team)):
                assert checker.eval_formula(m, i, f) == \
                    checker.eval_formula(m, i, g)

    def test_unsupported_operator(self):
        with pytest.raises(F.FormulaError):
            F.reduce_learn(parse("[learn x] I{x}{y}"))


# ---------------------------------------------------------------------------
# Reference ladders: the per-class traversals as they were written before the
# node table, kept to check that the table-driven ones give the same answers.


def ref_children(f):
    if isinstance(f, F.Not):
        return (f.body,)
    if isinstance(f, (F.And, F.Or, F.Imp, F.Iff)):
        return (f.left, f.right)
    if isinstance(f, (F.Box, F.Dia, F.Learn, F.AllQ, F.ExQ, F.Univ, F.Exis)):
        return (f.body,)
    if isinstance(f, F.CondDep):
        return (f.cond,)
    if isinstance(f, F.Announce):
        return (f.ann, f.body)
    return ()


def ref_desugar(f):
    if isinstance(f, (F.Pred, F.DepAtom, F.Top, F.Bot, F.PredT, F.DepAtomT,
                      F.Compare)):
        return f
    if isinstance(f, F.Not):
        return F.Not(ref_desugar(f.body))
    if isinstance(f, F.And):
        return F.And(ref_desugar(f.left), ref_desugar(f.right))
    if isinstance(f, F.Box):
        return F.Box(f.xs, ref_desugar(f.body))
    if isinstance(f, F.Or):
        return F.Not(F.And(F.Not(ref_desugar(f.left)),
                           F.Not(ref_desugar(f.right))))
    if isinstance(f, F.Imp):
        return F.Not(F.And(ref_desugar(f.left), F.Not(ref_desugar(f.right))))
    if isinstance(f, F.Iff):
        a, b = ref_desugar(f.left), ref_desugar(f.right)
        return F.And(F.Not(F.And(a, F.Not(b))), F.Not(F.And(b, F.Not(a))))
    if isinstance(f, F.Dia):
        return F.Not(F.Box(f.xs, F.Not(ref_desugar(f.body))))
    if isinstance(f, F.Univ):
        return F.Box(frozenset(), ref_desugar(f.body))
    if isinstance(f, F.Exis):
        return F.Not(F.Box(frozenset(), F.Not(ref_desugar(f.body))))
    if isinstance(f, F.ConstAtom):
        return F.DepAtom(frozenset(), f.y)
    if isinstance(f, F.AllQ):
        body = ref_desugar(f.body)
        return F.Box(F.free_vars(body) - f.xs, body)
    if isinstance(f, F.ExQ):
        body = ref_desugar(f.body)
        return F.Not(F.Box(F.free_vars(body) - f.xs, F.Not(body)))
    if isinstance(f, F.MultiDep):
        return F.conj([F.DepAtom(f.xs, y) for y in sorted(f.ys)])
    if isinstance(f, F.Indep):
        return F.Indep(f.xs, f.ys, f.cond)
    if isinstance(f, F.CondDep):
        return F.CondDep(f.xs, f.y, ref_desugar(f.cond))
    if isinstance(f, F.Learn):
        return F.Learn(f.xs, ref_desugar(f.body))
    if isinstance(f, F.Announce):
        return F.Announce(ref_desugar(f.ann), ref_desugar(f.body))
    raise F.FormulaError(f"cannot desugar {f!r}")


def ref_terms_vars(ts):
    out = set()
    for t in ts:
        out |= F.term_vars(t)
    return frozenset(out)


def ref_all_vars(f):
    if isinstance(f, F.Pred):
        return frozenset(f.args)
    if isinstance(f, F.DepAtom):
        return f.xs | {f.y}
    if isinstance(f, (F.Box, F.Dia, F.Learn, F.AllQ, F.ExQ)):
        return f.xs | ref_all_vars(f.body)
    if isinstance(f, F.ConstAtom):
        return frozenset((f.y,))
    if isinstance(f, F.MultiDep):
        return f.xs | f.ys
    if isinstance(f, F.Indep):
        return f.xs | f.ys | (f.cond or frozenset())
    if isinstance(f, F.Compare):
        return f.xs | f.ys | f.zs
    if isinstance(f, F.CondDep):
        return f.xs | {f.y} | ref_all_vars(f.cond)
    if isinstance(f, F.PredT):
        return ref_terms_vars(f.terms)
    if isinstance(f, F.DepAtomT):
        return ref_terms_vars(f.sources) | F.term_vars(f.target)
    out = set()
    for c in ref_children(f):
        out |= ref_all_vars(c)
    return frozenset(out)


def ref_modal_depth(f):
    if isinstance(f, (F.Box, F.Dia, F.Univ, F.Exis, F.AllQ, F.ExQ, F.Learn)):
        return 1 + ref_modal_depth(f.body)
    if isinstance(f, F.CondDep):
        return ref_modal_depth(f.cond)
    if isinstance(f, F.Announce):
        return 1 + max(ref_modal_depth(f.ann), ref_modal_depth(f.body))
    return max((ref_modal_depth(c) for c in ref_children(f)), default=0)


def ref_rename(f, sigma):
    """The old renaming, without its injectivity check."""
    s = lambda v: sigma.get(v, v)
    sset = lambda xs: frozenset(s(v) for v in xs)

    def sterm(t):
        if isinstance(t, F.TermVar):
            return F.TermVar(s(t.name))
        return F.TermApp(t.func, tuple(sterm(a) for a in t.args))

    def go(g):
        if isinstance(g, F.Pred):
            return F.Pred(g.name, tuple(s(a) for a in g.args))
        if isinstance(g, F.DepAtom):
            return F.DepAtom(sset(g.xs), s(g.y))
        if isinstance(g, (F.Top, F.Bot)):
            return g
        if isinstance(g, (F.Not, F.Univ, F.Exis)):
            return type(g)(go(g.body))
        if isinstance(g, (F.And, F.Or, F.Imp, F.Iff)):
            return type(g)(go(g.left), go(g.right))
        if isinstance(g, (F.Box, F.Dia, F.AllQ, F.ExQ, F.Learn)):
            return type(g)(sset(g.xs), go(g.body))
        if isinstance(g, F.ConstAtom):
            return F.ConstAtom(s(g.y))
        if isinstance(g, F.MultiDep):
            return F.MultiDep(sset(g.xs), sset(g.ys))
        if isinstance(g, F.Indep):
            return F.Indep(sset(g.xs), sset(g.ys),
                           sset(g.cond) if g.cond is not None else None)
        if isinstance(g, F.Compare):
            return F.Compare(sset(g.xs), sset(g.ys), sset(g.zs))
        if isinstance(g, F.CondDep):
            return F.CondDep(sset(g.xs), s(g.y), go(g.cond))
        if isinstance(g, F.Announce):
            return F.Announce(go(g.ann), go(g.body))
        if isinstance(g, F.PredT):
            return F.PredT(g.name, tuple(sterm(t) for t in g.terms))
        if isinstance(g, F.DepAtomT):
            return F.DepAtomT(frozenset(sterm(t) for t in g.sources),
                              sterm(g.target))
        raise F.FormulaError(f"cannot rename {g!r}")

    return go(f)


def ref_reduce_learn(f):
    f = F.desugar(f)

    def push(xs, g):
        if isinstance(g, (F.Pred, F.PredT, F.Top, F.Bot)):
            return g
        if isinstance(g, F.Not):
            return F.Not(push(xs, g.body))
        if isinstance(g, F.And):
            return F.And(push(xs, g.left), push(xs, g.right))
        if isinstance(g, F.Box):
            return F.Box(xs | g.xs, push(xs, g.body))
        if isinstance(g, F.DepAtom):
            return F.DepAtom(xs | g.xs, g.y)
        raise F.FormulaError(
            f"operator not supported under a learning modality: {g!r}")

    def go(g):
        if isinstance(g, F.Learn):
            return push(g.xs, go(g.body))
        if isinstance(g, F.Not):
            return F.Not(go(g.body))
        if isinstance(g, F.And):
            return F.And(go(g.left), go(g.right))
        if isinstance(g, F.Box):
            return F.Box(g.xs, go(g.body))
        if isinstance(g, F.CondDep):
            return F.CondDep(g.xs, g.y, go(g.cond))
        if isinstance(g, F.Announce):
            return F.Announce(go(g.ann), go(g.body))
        return g

    return go(f)


def ref_eliminate_terms(f):
    f = F.desugar(f)
    order, seen = [], {}

    def scan_term(t):
        if isinstance(t, F.TermApp):
            for a in t.args:
                scan_term(a)
            if t not in seen:
                seen[t] = f"_t{len(order)}"
                order.append(t)

    def scan(g):
        if isinstance(g, F.PredT):
            for t in g.terms:
                scan_term(t)
        elif isinstance(g, F.DepAtomT):
            for t in sorted(g.sources, key=F.term_key):
                scan_term(t)
            scan_term(g.target)
        elif isinstance(g, (F.Pred, F.DepAtom, F.Top, F.Bot)):
            pass
        elif isinstance(g, (F.Not, F.Box)):
            scan(g.body)
        elif isinstance(g, F.And):
            scan(g.left)
            scan(g.right)
        else:
            raise F.FormulaError(f"term elimination does not support {g!r}")

    def tvar(t):
        return t.name if isinstance(t, F.TermVar) else seen[t]

    def rewrite(g):
        if isinstance(g, F.PredT):
            return F.Pred(g.name, tuple(tvar(t) for t in g.terms))
        if isinstance(g, F.DepAtomT):
            return F.DepAtom(frozenset(tvar(t) for t in g.sources),
                             tvar(g.target))
        if isinstance(g, F.Not):
            return F.Not(rewrite(g.body))
        if isinstance(g, F.And):
            return F.And(rewrite(g.left), rewrite(g.right))
        if isinstance(g, F.Box):
            return F.Box(g.xs, rewrite(g.body))
        return g

    scan(f)
    body = rewrite(f)
    defs = [F.Box(frozenset(),
                  F.DepAtom(frozenset(tvar(a) for a in t.args), seen[t]))
            for t in order]
    return F.conj(defs + [body]) if defs else body


def outcome(fn, *args):
    """The result of fn, or the class and text of the FormulaError it raised."""
    try:
        return fn(*args)
    except F.FormulaError as e:
        return (type(e), str(e))


# the fields of every node class, in declaration order
NODE_FIELDS = {
    "Pred": ("name", "args"), "Not": ("body",), "And": ("left", "right"),
    "Box": ("xs", "body"), "DepAtom": ("xs", "y"), "Top": (), "Bot": (),
    "Indep": ("xs", "ys", "cond"), "Compare": ("xs", "ys", "zs"),
    "CondDep": ("xs", "y", "cond"), "Learn": ("xs", "body"),
    "Announce": ("ann", "body"), "PredT": ("name", "terms"),
    "DepAtomT": ("sources", "target"), "Or": ("left", "right"),
    "Imp": ("left", "right"), "Iff": ("left", "right"), "Dia": ("xs", "body"),
    "Univ": ("body",), "Exis": ("body",), "ConstAtom": ("y",),
    "AllQ": ("xs", "body"), "ExQ": ("xs", "body"), "MultiDep": ("xs", "ys"),
}


def nodes(f):
    yield f
    for c in ref_children(f):
        yield from nodes(c)


class TestNodeTable:
    VS = ("x", "y", "z")

    def sample(self, n=700, seed=22):
        rng = random.Random(seed)
        return [random_any_formula(rng, self.VS, rng.randint(0, 4))
                for _ in range(n)]

    def test_draw_hits_every_node_class(self):
        seen = {type(g) for f in self.sample() for g in nodes(f)}
        assert set(F.Formula.__subclasses__()) <= seen
        assert any(isinstance(t, F.TermApp) and
                   any(isinstance(a, F.TermApp) for a in t.args)
                   for f in self.sample() for g in nodes(f)
                   if isinstance(g, F.PredT) for t in g.terms)

    def test_node_fields_unchanged(self):
        classes = F.Formula.__subclasses__()
        assert {c.__name__ for c in classes} == set(NODE_FIELDS)
        for c in classes:
            assert tuple(fl.name for fl in dataclasses.fields(c)) == \
                NODE_FIELDS[c.__name__]

    def test_every_field_has_a_known_role(self):
        for c in F.Formula.__subclasses__():
            assert tuple(name for name, _ in c._roles) == NODE_FIELDS[c.__name__]
            assert all(role in F.ROLES for _, role in c._roles)
            assert c._kids == tuple(name for name, role in c._roles
                                    if role == "Formula")

    def test_unknown_role_refused(self):
        with pytest.raises(TypeError, match="unknown field role"):
            class Odd(F.Formula):
                xs: frozenset
        gc.collect()  # drop the half-made class from Formula.__subclasses__()

    def test_map_children(self):
        f = parse("[ann P(x)] D{x}y|(Q(y))")
        assert F.map_children(f, F.Not) == \
            F.Announce(F.Not(parse("P(x)")), F.Not(parse("D{x}y|(Q(y))")))
        leaf = parse("I{x}{y}")
        assert F.map_children(leaf, F.Not) is leaf

    def test_same_as_reference_ladders(self):
        rng = random.Random(5)
        for f in self.sample(2000):
            for g in nodes(f):
                assert F.children(g) == ref_children(g)
                assert F.all_vars(g) == ref_all_vars(g)
                assert F.modal_depth(g) == ref_modal_depth(g)
            assert outcome(F.desugar, f) == outcome(ref_desugar, f)
            assert outcome(F.reduce_learn, f) == outcome(ref_reduce_learn, f)
            assert outcome(F.eliminate_terms, f) == \
                outcome(ref_eliminate_terms, f)
            perm = list(self.VS)
            rng.shuffle(perm)
            sigma = dict(zip(self.VS, perm))
            assert F.rename(f, sigma) == ref_rename(f, sigma)
            fresh = {v: v + "1" for v in self.VS}
            assert F.rename(f, fresh) == ref_rename(f, fresh)
            merge = {"x": "y"}
            if {"x", "y"} <= F.all_vars(f):
                with pytest.raises(F.FormulaError):
                    F.rename(f, merge)
            else:
                assert F.rename(f, merge) == ref_rename(f, merge)

    def test_pickle_and_hash_unchanged(self):
        for f in self.sample(100):
            g = pickle.loads(pickle.dumps(f))
            # (no repr check: a rebuilt frozenset may list its items in
            # another order)
            assert g == f and hash(g) == hash(f) and type(g) is type(f)
