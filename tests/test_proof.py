"""Hilbert checking, sequent search, structural proof checks and strong
interpolation."""

import random

import pytest

from helpers import data_path, random_base_formula, random_model
from lfd import checker, decide
from lfd import formulas as F
from lfd import prover as P
from lfd.hilbert import (Axiom, HilbertProof, Line, MP, Nec,
                         Taut, check_hilbert, dumps_proof, is_tautology,
                         matches_axiom, parse_proof)
from lfd.parser import parse, parse_sequent


def fs(*names):
    return frozenset(names)


def seq(text: str) -> P.Sequent:
    left, right = parse_sequent(text)
    return P.sequent(left, right)


def load_proof(name: str) -> HilbertProof:
    with open(data_path(name), "r", encoding="utf-8") as fh:
        return parse_proof(fh.read())


class TestTautology:
    def test_excluded_middle(self):
        assert is_tautology(parse("P(x) | !P(x)"))

    def test_modal_subformulas_are_opaque(self):
        assert not is_tautology(parse("box{x}P(x) -> P(x)"))

    def test_chained(self):
        assert is_tautology(parse(
            "(P(x) -> Q(x)) -> ((Q(x) -> S(x)) -> (P(x) -> S(x)))"))


class TestAxiomMatching:
    def test_projection(self):
        assert matches_axiom("proj", parse("D{x,y}x"))
        assert not matches_axiom("proj", parse("D{x}y"))

    def test_intro_side_condition(self):
        assert matches_axiom("intro", parse("P(x) -> box{x,y}P(x)"))
        assert not matches_axiom("intro", parse("P(x,y) -> box{x}P(x,y)"))

    def test_transitivity_set_form(self):
        good = parse("(D{x}y & D{x}z) & (D{y,z}u & D{y,z}w) -> (D{x}u & D{x}w)")
        assert matches_axiom("trans", good)
        assert not matches_axiom("trans",
                                 parse("(D{x}y & D{y}z) -> D{y}x"))

    def test_transfer(self):
        assert matches_axiom("transfer",
                             parse("(D{x}y & box{y}P(y)) -> box{x}P(y)"))
        assert not matches_axiom("transfer",
                                 parse("(D{x}y & box{x}P(y)) -> box{y}P(y)"))


class TestCheckHilbert:
    @pytest.mark.parametrize("name", ["inclusion.hp", "additivity.hp",
                                      "monotonicity.hp",
                                      "modal-monotonicity.hp",
                                      "quantifier-laws.hp"])
    def test_fixture_proofs_accepted(self, name):
        result = check_hilbert(load_proof(name))
        assert result.ok, (name, result.line, result.reason)

    def test_bad_intro_rejected_with_line(self):
        result = check_hilbert(load_proof("bad-intro.hp"))
        assert not result.ok
        assert result.line == 1
        assert "intro" in result.reason

    def test_dangling_reference(self):
        proof = HilbertProof((
            Line(parse("P(x)"), MP(2, 3)),
        ))
        result = check_hilbert(proof)
        assert not result.ok and result.line == 1

    def test_necessitation(self):
        proof = HilbertProof((
            Line(parse("P(x) | !P(x)"), Taut()),
            Line(parse("box{y}(P(x) | !P(x))"), Nec(1, fs("y"))),
        ))
        assert check_hilbert(proof).ok

    def test_wrong_necessitation_set(self):
        proof = HilbertProof((
            Line(parse("P(x) | !P(x)"), Taut()),
            Line(parse("box{y}(P(x) | !P(x))"), Nec(1, fs("x"))),
        ))
        result = check_hilbert(proof)
        assert not result.ok and result.line == 2

    def test_round_trip(self):
        proof = load_proof("additivity.hp")
        assert parse_proof(dumps_proof(proof)) == proof

    def test_fixture_lines_evaluate_valid(self):
        rng = random.Random(71)
        proof = load_proof("monotonicity.hp")
        for _ in range(30):
            m = random_model(rng, ("x", "y", "z"))
            for line in proof.lines:
                for i in range(len(m.team)):
                    assert checker.eval_formula(m, i, line.formula)


PROVABLE = [
    "=> (D{x}y & D{y}z) -> D{x}z",
    "=> (D{x}{y,z} & D{y,z}w) -> D{x}w",
    "=> (D{x}{y,z} & D{y,z}{w,x}) -> D{x}{w}",
    "=> box{x}P(x) -> box{x,y}P(x)",
    "=> (D{x}y & box{y}P(y)) -> box{x}P(y)",
    "=> box{x}P(x) -> P(x)",
    "=> box{x}(P(x) -> Q(x)) -> (box{x}P(x) -> box{x}Q(x))",
    "=> D{x,y}x",
    "=> D{x}y -> D{x,z}y",
    "=> box{x}P(x) -> box{x}box{x}P(x)",
    "=> !box{x}P(x) -> box{x}!box{x}P(x)",
    "P(x) => P(x) | Q(y)",
    "P(x); !P(x) => Q(y)",
    "=> (dia{x}P(x) & box{x}Q(x)) -> dia{x}(P(x) & Q(x))",
]

REFUSED = [
    "=> P(x) -> box{y}P(x)",
    "=> dia{x}dia{y}R(x,y) -> dia{y}dia{x}R(x,y)",
    "=> D{x}y -> D{y}x",
    "=> P(x) | Q(y)",
    "=> box{x}box{y}P(x,y) -> box{}P(x,y)",
]


class TestProve:
    @pytest.mark.parametrize("text", PROVABLE)
    def test_provable(self, text):
        tree = P.prove(seq(text))
        assert tree is not None
        P.check_tree(tree)

    @pytest.mark.parametrize("text", REFUSED)
    def test_refused(self, text):
        assert P.prove(seq(text)) is None

    def test_rejects_extensions(self):
        with pytest.raises(P.ProofError):
            P.sequent([parse("I{x}{y}")], [])

    def test_parsed_sequent_accepted(self):
        goal = parse_sequent("P(x) => P(x)")
        assert P.proves(goal)
        tree = P.prove(goal)
        assert tree.conclusion == seq("P(x) => P(x)")
        assert not P.proves(parse_sequent("D{x}y => D{y}x"))

    def test_parsed_sequent_with_non_base_side_refused(self):
        goal = parse_sequent("I{x}{y} => P(x)")
        with pytest.raises(P.ProofError):
            P.proves(goal)
        with pytest.raises(P.ProofError):
            P.prove(goal)

    def test_soundness_on_random_models(self):
        rng = random.Random(72)
        pv = P.Prover()
        goals = []
        for _ in range(60):
            left = [random_base_formula(rng, ("x", "y"), rng.randint(0, 2))
                    for _ in range(rng.randint(0, 2))]
            right = [random_base_formula(rng, ("x", "y"), rng.randint(0, 2))
                     for _ in range(rng.randint(1, 2))]
            goals.append((left, right))
        proved = [(l, r) for l, r in goals
                  if pv.proves(P.sequent(l, r))]
        assert proved
        for _ in range(500):
            m = random_model(rng, ("x", "y"))
            for l, r in proved:
                body = F.Imp(F.conj(l) if l else F.Top(),
                             F.Not(F.conj([F.Not(g) for g in r])))
                for i in range(len(m.team)):
                    assert checker.eval_formula(m, i, body), (l, r)

    def test_agreement_with_decide_on_random_formulas(self):
        rng = random.Random(73)
        pv = P.Prover()
        for _ in range(60):
            f = random_base_formula(rng, ("x", "y"), rng.randint(0, 2))
            want = decide.valid(f).status == "valid"
            got = pv.proves(P.sequent([], [f]))
            assert got == want, f

    def test_serialization_mentions_rules(self):
        tree = P.prove(seq("=> D{x}y -> D{x,z}y"))
        text = P.serialize_tree(tree)
        assert "trans" in text or "da-cut" in text
        assert "=>" in text

    def test_tree_nodes_stay_in_subformula_space(self):
        for text in PROVABLE:
            tree = P.prove(seq(text))
            P.check_tree(tree)  # raises on a violation


class TestInterpolation:
    def test_left_side_is_its_own_interpolant(self):
        tree = P.prove(seq("P(x) => P(x) | Q(y)"))
        assert P.interpolant(tree) == parse("P(x)")

    def test_inconsistent_antecedent_gives_falsum(self):
        tree = P.prove(seq("P(x); !P(x) => Q(y)"))
        assert P.interpolant(tree) == F.Bot()

    def test_dependence_chain(self):
        tree = P.prove(seq("D{x}y; D{y}z => D{x}z"))
        theta = P.interpolant(tree)
        assert F.all_vars(theta) <= fs("x", "z")

    def test_conditions_verified_on_random_provables(self):
        rng = random.Random(74)
        pv = P.Prover()
        checked = 0
        for _ in range(300):
            left = [random_base_formula(rng, ("x", "y"), rng.randint(0, 2))
                    for _ in range(rng.randint(1, 2))]
            right = [random_base_formula(rng, ("x", "y"), rng.randint(0, 2))]
            goal = P.sequent(left, right)
            tree = pv.prove(goal)
            if tree is None:
                continue
            theta = P.interpolant(tree, prover=pv)  # verifies internally
            checked += 1
            assert theta is not None
        assert checked > 20

    def test_custom_split(self):
        tree = P.prove(seq("P(x); P(x) -> Q(x) => Q(x)"))
        split = P.Split(frozenset({F.desugar(parse("P(x)"))}), frozenset())
        theta = P.interpolant(tree, split)
        # P(x) => theta and theta, P(x)->Q(x) => Q(x) must both hold
        assert P.proves((frozenset({F.desugar(parse("P(x)"))}),
                         frozenset({F.desugar(theta)})))
