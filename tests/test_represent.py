"""Abstract dependence relations: structural axioms, closures, and the three
representation constructions."""

import functools
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import data_path
from lfd import models as M
from lfd.formulas import ClosureCapError
from lfd.represent import (AbstractDependence, RelationError, check_structural,
                           closure_of_pairs, dumps_relation,
                           enumerate_dependence_relations, parse_relations,
                           r_closure, represent_family, represent_global,
                           represent_uniform)


def fs(*names):
    return frozenset(names)


def rel(variables, pairs):
    return AbstractDependence(frozenset(variables),
                              frozenset((frozenset(x), y) for x, y in pairs))


def projection_closure(variables):
    return closure_of_pairs(frozenset(variables), ())


def chain_relation():
    # x -> y -> z, closed under the axioms
    return closure_of_pairs(fs("x", "y", "z"), [(fs("x"), "y"), (fs("y"), "z")])


def brute_force_relations(vs):
    """Reference enumeration: every intersection-closed family of subsets
    holding the full set, read as a relation, sorted by its pairs."""
    subs = [frozenset(c) for n in range(len(vs) + 1)
            for c in itertools.combinations(vs, n)]
    full = frozenset(vs)
    rest = [s for s in subs if s != full]
    out = set()
    for n in range(len(rest) + 1):
        for combo in itertools.combinations(rest, n):
            fam = set(combo) | {full}
            if all((a & b) in fam for a in fam for b in fam):
                out.add(frozenset(
                    (xs, y) for xs in subs
                    for y in full.intersection(*(c for c in fam if xs <= c))))
    return [(full, pairs) for pairs in sorted(
        out, key=lambda ps: sorted((tuple(sorted(xs)), y) for xs, y in ps))]


@functools.lru_cache(maxsize=None)
def cached_relations(vs):
    return enumerate_dependence_relations(vs)


def global_pattern(m):
    vs = sorted(m.variables)
    subs = [frozenset(c) for n in range(len(vs) + 1)
            for c in itertools.combinations(vs, n)]
    return frozenset((xs, y) for xs in subs for y in vs
                     if M.global_dep(m, xs, y))


def local_pattern(m, s):
    vs = sorted(m.variables)
    subs = [frozenset(c) for n in range(len(vs) + 1)
            for c in itertools.combinations(vs, n)]
    return frozenset((xs, y) for xs in subs for y in vs
                     if M.local_dep(m, s, xs, y))


class TestCheckStructural:
    def test_projection_closure_satisfies_everything(self):
        r = projection_closure(("x", "y"))
        rep = check_structural(r)
        assert rep.reflexive and rep.transitive and rep.monotone
        assert rep.projection and rep.inclusion
        assert rep.constants == fs()

    def test_broken_transitivity_detected(self):
        base = projection_closure(("x", "y", "z"))
        r = AbstractDependence(base.variables,
                               base.pairs | {(fs("x"), "y"), (fs("y"), "z")})
        assert not check_structural(r).transitive

    def test_projection_iff_reflexive_and_monotone_under_transitivity(self):
        rng = random.Random(51)
        vs = ("x", "y", "z")
        subs = [frozenset(c) for n in range(4)
                for c in itertools.combinations(vs, n)]
        for _ in range(200):
            pairs = frozenset((xs, y) for xs in subs for y in vs
                              if rng.random() < 0.3)
            r = AbstractDependence(fs(*vs), pairs)
            rep = check_structural(r)
            if rep.transitive:
                assert rep.projection == (rep.reflexive and rep.monotone)
                assert rep.projection == rep.inclusion


class TestRClosure:
    def test_chain(self):
        assert r_closure(chain_relation(), fs("x")) == fs("x", "y", "z")

    def test_closed_set_is_fixed(self):
        r = chain_relation()
        assert r_closure(r, fs("y", "z")) == fs("y", "z")

    def test_idempotent(self):
        r = chain_relation()
        for xs in (fs(), fs("x"), fs("y"), fs("z"), fs("x", "z")):
            once = r_closure(r, xs)
            assert r_closure(r, once) == once

    def test_requires_axioms(self):
        bad = rel(("x", "y"), [(("x",), "y")])
        with pytest.raises(RelationError):
            r_closure(bad, fs("x"))


class TestEnumeration:
    def test_counts_match_intersection_closed_families(self):
        # one relation per intersection-closed family of closed sets
        assert len(enumerate_dependence_relations(("x",))) == 2
        assert len(enumerate_dependence_relations(("x", "y"))) == 7
        assert len(enumerate_dependence_relations(("x", "y", "z"))) == 61
        assert len(enumerate_dependence_relations(("x", "y", "z", "w"))) == 2480

    def test_fresh_list_per_call(self):
        vs = ("x", "y", "z", "w")
        first = enumerate_dependence_relations(vs)
        want = list(first)
        first.clear()
        again = enumerate_dependence_relations(vs)
        assert again == want
        assert len({r.pairs for r in again}) == 2480

        def key(r):
            return sorted((tuple(sorted(xs)), y) for xs, y in r.pairs)
        assert [key(r) for r in again] == sorted(key(r) for r in again)

    def test_refuses_more_than_four_variables(self):
        with pytest.raises(ClosureCapError, match="limit of 4"):
            enumerate_dependence_relations(("a", "b", "c", "d", "e"))

    def test_every_enumerated_relation_satisfies_axioms(self):
        for r in enumerate_dependence_relations(("x", "y")):
            assert check_structural(r).is_dependence_relation

    @pytest.mark.parametrize("vs", [(), ("x",), ("x", "y"), ("x", "y", "z")])
    def test_matches_brute_force_reference(self, vs):
        got = enumerate_dependence_relations(vs)
        assert [(r.variables, r.pairs) for r in got] == brute_force_relations(vs)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.data())
    def test_closure_of_pairs_is_the_least_relation(self, data):
        vs = ("w", "x", "y", "z")[:data.draw(st.integers(1, 4))]
        subs = [frozenset(c) for n in range(len(vs) + 1)
                for c in itertools.combinations(vs, n)]
        pairs = data.draw(st.lists(
            st.tuples(st.sampled_from(subs), st.sampled_from(vs)), max_size=5))
        containing = [r.pairs for r in cached_relations(vs)
                      if set(pairs) <= r.pairs]
        least = frozenset.intersection(*containing)
        assert closure_of_pairs(frozenset(vs), pairs).pairs == least


class TestRepresentGlobal:
    def test_projection_closure_two_vars(self):
        r = projection_closure(("x", "y"))
        m = represent_global(r)
        assert len(m.team) <= 4
        assert global_pattern(m) == r.pairs

    def test_chain_bounded(self):
        r = chain_relation()
        m = represent_global(r)
        assert len(m.team) <= 8
        assert global_pattern(m) == r.pairs

    def test_total_relation_gives_constants(self):
        r = closure_of_pairs(fs("x", "y"), [(fs(), "x"), (fs(), "y")])
        m = represent_global(r)
        assert global_pattern(m) == r.pairs
        assert len(m.values("x")) == 1 and len(m.values("y")) == 1


class TestRepresentUniform:
    def test_single_variable(self):
        r = projection_closure(("x",))
        m = represent_uniform(r)
        for s in m.team:
            assert local_pattern(m, s) == r.pairs

    def test_chain_every_row_matches(self):
        r = chain_relation()
        m = represent_uniform(r)
        assert len(m.team) <= 2 ** (2 ** 3)
        for s in m.team:
            assert local_pattern(m, s) == r.pairs

    def test_constants_agree(self):
        r = closure_of_pairs(fs("x", "y"), [(fs(), "y")])
        m = represent_uniform(r)
        assert len(m.values("y")) == 1
        assert len(m.values("x")) > 1

    def test_cap(self):
        r = projection_closure(("a", "b", "c", "d", "e"))
        with pytest.raises(RelationError):
            represent_uniform(r)


class TestRepresentFamily:
    def test_singleton_family(self):
        r = chain_relation()
        m = represent_family([r])
        for s in m.team:
            assert local_pattern(m, s) == r.pairs

    def test_two_chains_intersect_globally(self):
        r1 = closure_of_pairs(fs("x", "y"), [(fs("x"), "y")])
        r2 = closure_of_pairs(fs("x", "y"), [(fs("y"), "x")])
        m = represent_family([r1, r2])
        locals_ = {local_pattern(m, s) for s in m.team}
        assert locals_ == {r1.pairs, r2.pairs}
        assert global_pattern(m) == r1.pairs & r2.pairs

    def test_constants_mismatch_rejected(self):
        r1 = closure_of_pairs(fs("x", "y"), [(fs(), "x")])
        r2 = projection_closure(("x", "y"))
        with pytest.raises(RelationError, match="constants"):
            represent_family([r1, r2])


class TestRelationFiles:
    def test_parse_chain(self):
        with open(data_path("chain.rel"), "r", encoding="utf-8") as fh:
            rels = parse_relations(fh.read())
        assert len(rels) == 1
        assert rels[0].pairs == chain_relation().pairs

    def test_empty_left_side(self):
        rels = parse_relations("variables x y\ndep -> y\n")
        assert (fs(), "y") in rels[0].pairs

    def test_round_trip(self):
        r = chain_relation()
        again = parse_relations(dumps_relation(r))[0]
        assert again.pairs == r.pairs

    def test_unknown_target_variable_rejected(self):
        with pytest.raises(RelationError):
            parse_relations("variables x y\ndep x -> q\n")

    def test_sections(self):
        text = ("variables x y\n"
                "relation a\ndep x -> y\n"
                "relation b\ndep y -> x\n")
        rels = parse_relations(text)
        assert len(rels) == 2
        assert (fs("x"), "y") in rels[0].pairs
        assert (fs("y"), "x") in rels[1].pairs
