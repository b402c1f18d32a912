"""The brute-force oracles and the seeded instance generators."""

import itertools
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from pikit import (
    Clause,
    Compound,
    GenConfig,
    Literal,
    compile,
    gen_clause,
    gen_kb,
    parse_clause,
    parse_clause_file,
    subsumes,
    vary_seed,
)

from oracles import (
    CapacityError,
    GroundUniverse,
    check_implicate_semantically,
    ground_instances,
    models_of,
    propositional_prime_implicates,
    satisfiable,
    truth_table_entails,
)
from strategies import entries


def cl(text):
    return parse_clause(text)


def texts(clauses):
    return sorted(str(c) for c in clauses)


class TestPropositionalPrimeImplicates:
    def test_unit_propagation_example(self):
        # Truth table over {p,q}: the only model of {p, ~p|q} is p=q=true,
        # so the minimal entailed clauses are exactly {p} and {q}.
        got = propositional_prime_implicates(parse_clause_file("p. ~p|q."))
        assert texts(got) == ["p", "q"]

    def test_single_clause_is_already_prime(self):
        got = propositional_prime_implicates([cl("p|q.")])
        assert texts(got) == ["p|q"]

    def test_unsatisfiable_kb_has_only_the_empty_clause(self):
        clauses = parse_clause_file("p|q. ~p|q. p|~q. ~p|~q.")
        assert models_of(clauses) == []  # oracle for the oracle: truth table
        got = propositional_prime_implicates(clauses)
        assert texts(got) == ["$false"]

    def test_alphabet_cap_is_enforced(self):
        clauses = [cl("p(%s)." % c) for c in "abcdefghijklmno"]
        with pytest.raises(CapacityError):
            propositional_prime_implicates(clauses, max_atoms=14)

    @settings(deadline=None, max_examples=80)
    @given(st.integers(0, 10**9))
    def test_output_is_sound_and_minimal(self, seed):
        cfg = GenConfig(
            num_predicates=5,
            max_arity=0,
            num_variables=0,
            num_constants=0,
            clause_len_range=(1, 3),
            kb_size_range=(2, 5),
            seed=seed,
        )
        clauses = list(gen_kb(cfg))
        primes = propositional_prime_implicates(clauses)
        for p in primes:
            assert truth_table_entails(clauses, p)
        for p, q in itertools.permutations(primes, 2):
            assert subsumes(p, q) is None


class TestGroundInstances:
    def test_ground_clause_maps_to_itself(self):
        c = cl("p(a)|~q(b,b).")
        assert ground_instances(c, GroundUniverse(("a", "b"))) == [c]

    def test_constants_only(self):
        got = ground_instances(cl("p(X)."), GroundUniverse(("a", "b")))
        assert texts(got) == ["p(a)", "p(b)"]

    def test_depth_one_universe(self):
        u = GroundUniverse(("a",), (("f", 1),), 1)
        got = ground_instances(cl("p(X)|~q(X)."), u)
        assert texts(got) == ["p(a)|~q(a)", "p(f(a))|~q(f(a))"]

    def test_cap_is_enforced(self):
        u = GroundUniverse(("a", "b", "c"))
        with pytest.raises(CapacityError):
            ground_instances(cl("p(X,Y,Z)."), u, cap=10)

    def test_empty_universe_is_an_error(self):
        with pytest.raises(CapacityError):
            ground_instances(cl("p(X)."), GroundUniverse(()))


class TestCheckImplicateSemantically:
    def test_member_clause_is_an_implicate(self):
        kb = parse_clause_file("p(a). q(X)|r(X).")
        assert check_implicate_semantically(kb, cl("p(a)."), GroundUniverse(("a",)))

    def test_derived_unit_is_an_implicate(self):
        kb = parse_clause_file("q(Y). ~r(f(X),b). p(X)|r(Y,b)|~q(Z). ~p(a)|~q(Z).")
        assert check_implicate_semantically(kb, cl("~p(a)."), GroundUniverse(("a", "b")))

    def test_fresh_predicate_is_not_an_implicate(self):
        kb = parse_clause_file("p(a).")
        assert not check_implicate_semantically(kb, cl("s(a)."), GroundUniverse(("a",)))

    def test_atom_cap_is_enforced(self):
        kb = [cl("p(X,Y,Z).")]
        u = GroundUniverse(("a", "b", "c"))
        with pytest.raises(CapacityError):
            check_implicate_semantically(kb, cl("p(a,a,a)."), u, max_atoms=16)


class TestSatisfiable:
    def test_small_cases(self):
        assert satisfiable([])
        assert not satisfiable([Clause()])
        assert satisfiable(parse_clause_file("p|q. ~p|q. p|~q."))
        assert not satisfiable(parse_clause_file("p|q. ~p|q. p|~q. ~p|~q."))
        assert satisfiable(parse_clause_file("p|~p. q."))

    def test_agrees_with_the_truth_table(self):
        """Random ground sets over six atoms, tautologies included: DPLL finds
        a model exactly when the truth table has one."""
        atoms = [Compound(p, (Compound(c),)) for p in "pqr" for c in "ab"]
        outcomes = []
        for seed in range(1000):
            rng = random.Random(seed)
            clauses = [
                Clause(
                    tuple(
                        Literal(rng.choice(atoms), rng.random() < 0.5)
                        for _ in range(rng.randint(1, 3))
                    )
                )
                for _ in range(rng.randint(1, 14))
            ]
            expected = bool(models_of(clauses))
            assert satisfiable(clauses) == expected, (seed, clauses)
            outcomes.append(expected)
        # Both answers occur often, so neither branch of the search goes unchecked.
        assert min(outcomes.count(True), outcomes.count(False)) >= 100


class TestGenerators:
    def test_same_seed_same_output(self):
        cfg = GenConfig(seed=42)
        first, second = gen_kb(cfg), gen_kb(cfg)
        assert first == second and entries(first) == entries(second)
        assert gen_clause(cfg) == gen_clause(cfg)

    def test_different_seeds_usually_differ(self):
        cfg = GenConfig(seed=1)
        assert any(
            gen_kb(vary_seed(cfg, i)) != gen_kb(vary_seed(cfg, i + 1)) for i in range(5)
        )

    @settings(deadline=None, max_examples=100)
    @given(st.integers(0, 10**9))
    def test_outputs_are_fundamental_and_in_range(self, seed):
        cfg = GenConfig(
            num_functions=1,
            max_term_depth=1,
            clause_len_range=(1, 3),
            kb_size_range=(2, 6),
            seed=seed,
        )
        kb = gen_kb(cfg)
        assert 2 <= len(kb) <= 6
        for m in kb:
            assert m.is_fundamental()
            assert 1 <= len(m) <= 3
            assert m.assoc.is_empty()

    def test_companion_clause_shares_the_signature(self):
        cfg = GenConfig(num_functions=1, max_term_depth=1, seed=7)
        kb_arities = {}
        for m in gen_kb(cfg):
            for lit in m.literals:
                kb_arities.setdefault(lit.atom.functor, len(lit.atom.args))
        extra = gen_clause(vary_seed(cfg, 1_000_003))
        for lit in extra.literals:
            pred = lit.atom.functor
            if pred in kb_arities:
                assert kb_arities[pred] == len(lit.atom.args)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10**9))
def test_engine_matches_oracle_on_ground_kbs(seed):
    cfg = GenConfig(
        num_predicates=4,
        max_arity=1,
        num_variables=0,
        num_constants=2,
        clause_len_range=(1, 3),
        kb_size_range=(2, 5),
        seed=seed,
    )
    clauses = list(gen_kb(cfg))
    kb = compile(clauses)
    oracle = propositional_prime_implicates(clauses)
    assert texts(kb.pi) == texts(oracle)
