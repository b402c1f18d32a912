"""Unification, substitution application and composition, and their algebra."""

import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, assume, given, settings

from pikit import (
    EMPTY,
    Atom,
    Clause,
    Compound,
    Literal,
    Substitution,
    Variable,
    apply,
    compose,
    match,
    unify,
    variables_of,
)

from strategies import atoms, literals, substitutions, terms

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
a, b = Compound("a"), Compound("b")


def f(*args):
    return Compound("f", tuple(args))


def g(*args):
    return Compound("g", tuple(args))


class TestApply:
    def test_replaces_all_bound_variables_simultaneously(self):
        s = Substitution({"X": b, "Y": f(a)})
        assert apply(s, Atom("p", (X, f(a)))) == Atom("p", (b, f(a)))

    def test_empty_substitution_is_identity(self):
        t = Atom("p", (X, f(Y)))
        assert apply(EMPTY, t) == t

    def test_applies_to_whole_clauses(self):
        s = Substitution({"X": g(a)})
        c = Clause((Literal(Atom("r", (X, f(a))), False), Literal(Atom("p", (Y,)), False)))
        expected = Clause(
            (Literal(Atom("r", (g(a), f(a))), False), Literal(Atom("p", (Y,)), False))
        )
        assert apply(s, c) == expected

    def test_clause_application_merges_collapsing_literals(self):
        c = Clause((Literal(Atom("p", (X,))), Literal(Atom("p", (Y,)))))
        merged = apply(Substitution({"X": a, "Y": a}), c)
        assert len(merged) == 1

    def test_rejects_unknown_values(self):
        with pytest.raises(TypeError):
            apply(EMPTY, object())


class TestCompose:
    def test_empty_then_binding(self):
        assert compose(EMPTY, Substitution({"X": b})) == Substitution({"X": b})

    def test_left_bindings_take_precedence(self):
        s1 = Substitution({"X": b, "Z": f(a)})
        s2 = Substitution({"X": b})
        assert compose(s1, s2) == Substitution({"X": b, "Z": f(a)})

    def test_binding_then_empty(self):
        s = Substitution({"X": f(Y)})
        assert compose(s, EMPTY) == s

    def test_identity_bindings_are_dropped(self):
        s1 = Substitution({"X": Y})
        s2 = Substitution({"Y": X})
        # X -> Y -> X collapses to nothing on X.
        assert compose(s1, s2) == Substitution({"Y": X})


class TestSubstitutionEquality:
    def test_distinguishes_maps_by_extra_binding(self):
        assert Substitution({"X": b}) != Substitution({"X": b, "Z": f(a)})

    def test_empty_equals_empty(self):
        assert Substitution() == EMPTY

    def test_equality_matches_pointwise_behaviour(self):
        # Oracle first: both substitutions act identically on a probe tuple.
        lhs = Substitution({"Y": Z, "X": a})
        rhs = compose(Substitution({"Y": Z}), Substitution({"X": a}))
        probe = Atom("t", (X, Y, Z))
        assert apply(lhs, probe) == apply(rhs, probe)
        assert lhs == rhs

    def test_identity_bindings_never_stored(self):
        assert Substitution({"X": X}) == EMPTY
        assert len(Substitution({"X": X, "Y": a})) == 1


class TestUnify:
    def test_ground_against_variables(self):
        got = unify(Atom("p", (X, f(a))), Atom("p", (b, Y)))
        assert got == Substitution({"X": b, "Y": f(a)})

    def test_identical_atoms_yield_empty(self):
        assert unify(Atom("p", (a,)), Atom("p", (a,))) == EMPTY

    def test_occurs_check_fails(self):
        assert unify(Atom("p", (X,)), Atom("p", (f(X),))) is None

    def test_clashing_functors_fail(self):
        assert unify(Atom("p", (a,)), Atom("p", (b,))) is None
        assert unify(Atom("p", (a,)), Atom("q", (a,))) is None
        assert unify(Atom("p", (a,)), Atom("p", (a, b))) is None

    def test_variable_pair_binds_left_to_right(self):
        assert unify(Atom("q", (Y,)), Atom("q", (Z,))) == Substitution({"Y": Z})

    def test_mixed_kinds_rejected(self):
        with pytest.raises(TypeError):
            unify(Atom("p", (a,)), a)


class TestDeepGroundTerm:
    """A node fixes its facts from its children's when it is built, so no
    use of a 1,000-level term recurses once per level."""

    @staticmethod
    def build():
        t = a
        for _ in range(1000):
            t = f(t)
        return t

    @pytest.fixture(scope="class")
    def deep(self):
        return self.build()

    def test_str(self, deep):
        assert str(deep) == "f(" * 1000 + "a" + ")" * 1000

    def test_hash(self, deep):
        assert hash(deep) == hash(self.build())

    def test_literal_sort_key(self, deep):
        assert Literal(Atom("p", (deep,))).sort_key == ("p", 0, (deep.text,))

    def test_clause(self, deep):
        lit = Literal(Atom("p", (deep,)))
        assert Clause((lit, lit)).literals == (lit,)

    def test_clause_features(self, deep):
        lit = Literal(Atom("p", (deep,)))
        assert Clause((lit,)).features == {"p", ("a", 0), ("f", 1), lit}

    def test_apply_returns_the_ground_term_itself(self, deep):
        assert apply(Substitution({"X": a}), deep) is deep


class TestVariablesOf:
    def test_atom(self):
        assert variables_of(Atom("p", (X, f(a)))) == {"X"}

    def test_ground(self):
        assert variables_of(Atom("p", (a,))) == set()

    def test_clause(self):
        c = Clause((Literal(Atom("p", (X,))), Literal(Atom("q", (Z, a)), False)))
        assert variables_of(c) == {"X", "Z"}


class TestMatch:
    def test_one_way_only(self):
        assert match(Atom("p", (X,)), Atom("p", (f(a),))) == Substitution({"X": f(a)})
        assert match(Atom("p", (f(a),)), Atom("p", (X,))) is None

    def test_consistency_across_occurrences(self):
        assert match(Atom("q", (X, X)), Atom("q", (a, b))) is None
        assert match(Atom("q", (X, X)), Atom("q", (a, a))) == Substitution({"X": a})


# Same-predicate pairs unify often enough to property-test the mgu.
same_predicate_pairs = st.one_of(
    st.tuples(
        st.builds(lambda t: Atom("p", (t,)), terms),
        st.builds(lambda t: Atom("p", (t,)), terms),
    ),
    st.tuples(
        st.builds(lambda s, t: Atom("q", (s, t)), terms, terms),
        st.builds(lambda s, t: Atom("q", (s, t)), terms, terms),
    ),
)


@settings(deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(same_predicate_pairs)
def test_mgu_is_idempotent_and_unifies(pair):
    a1, a2 = pair
    s = unify(a1, a2)
    assume(s is not None)
    assert compose(s, s) == s
    assert apply(s, a1) == apply(s, a2)


@settings(deadline=None, max_examples=60, suppress_health_check=[HealthCheck.filter_too_much])
@given(same_predicate_pairs)
def test_mgu_generality_over_bounded_universe(pair):
    """Every ground unifier over a small universe factors through the mgu."""
    a1, a2 = pair
    mgu = unify(a1, a2)
    assume(mgu is not None)
    names = sorted(variables_of(a1) | variables_of(a2))
    assume(len(names) <= 3)
    universe = [a, b, f(a)]
    image = apply(mgu, a1)
    for combo in itertools.product(universe, repeat=len(names)):
        u = Substitution(dict(zip(names, combo)))
        if apply(u, a1) != apply(u, a2):
            continue
        r = match(image, apply(u, a1))
        assert r is not None
        for n in names:
            assert apply(u, Variable(n)) == apply(r, apply(mgu, Variable(n)))


@settings(deadline=None)
@given(substitutions, substitutions, substitutions, terms)
def test_compose_is_associative(s1, s2, s3, t):
    lhs = compose(s1, compose(s2, s3))
    rhs = compose(compose(s1, s2), s3)
    assert lhs == rhs
    assert apply(lhs, t) == apply(rhs, t)


@settings(deadline=None)
@given(substitutions, substitutions, terms)
def test_apply_compose_coherence(s1, s2, t):
    assert apply(compose(s1, s2), t) == apply(s2, apply(s1, t))


@settings(deadline=None)
@given(atoms, substitutions)
def test_match_recovers_applied_substitution(a1, s):
    target = apply(s, a1)
    r = match(a1, target)
    assert r is not None
    assert apply(r, a1) == target


def reference_text(x):
    """The recursive printer that the fixed `text` replaces."""
    if isinstance(x, Variable):
        return x.name
    if isinstance(x, Literal):
        return reference_text(x.atom) if x.positive else "~" + reference_text(x.atom)
    head = x.functor if isinstance(x, Compound) else x.predicate
    if not x.args:
        return head
    return "%s(%s)" % (head, ",".join(reference_text(t) for t in x.args))


def rebuilt(x):
    """A structurally equal copy that shares no node with `x`."""
    if isinstance(x, Variable):
        return Variable(x.name)
    if isinstance(x, Literal):
        return Literal(rebuilt(x.atom), x.positive)
    args = tuple(rebuilt(t) for t in x.args)
    return Compound(x.functor, args) if isinstance(x, Compound) else Atom(x.predicate, args)


@given(terms, atoms, literals)
def test_fixed_text_and_sort_key_match_recursive_reference(t, at, lit):
    for x in (t, at, lit):
        assert x.text == str(x) == reference_text(x)
    sign = 0 if lit.positive else 1
    args_text = tuple(reference_text(arg) for arg in lit.atom.args)
    assert lit.sort_key == (lit.atom.predicate, sign, args_text)


@given(terms, literals)
def test_equal_nodes_built_apart_share_their_fixed_facts(t, lit):
    for x in (t, lit.atom, lit):
        twin = rebuilt(x)
        assert twin == x
        assert (hash(twin), twin.text, twin.ground) == (hash(x), x.text, x.ground)
        assert x.ground == (not variables_of(x))
