"""Unification, substitution application and composition, and their algebra."""

import copy
import gc
import itertools
import os
import pickle
import sys
import threading
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, assume, example, given, settings

import pikit.clauses
from pikit import (
    EMPTY,
    Clause,
    Compound,
    Literal,
    Substitution,
    Variable,
    add_clause,
    apply,
    compile,
    compose,
    parse_clause,
    parse_clause_file,
    subsumes,
    unify,
)
from pikit.terms import _COMPOUNDS, _LITERALS, _SUBSTITUTIONS, _VARIABLES, _match, literal_features

from oracles import reference_apply, reference_match, reference_unify
from strategies import atoms, clauses, literals, substitutions, terms

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
a, b = Compound("a"), Compound("b")


def f(*args):
    return Compound("f", tuple(args))


def unit(atom):
    """The one-literal clause on `atom`, to match atoms through `subsumes`."""
    return Clause((Literal(atom),))


class TestApply:
    def test_replaces_all_bound_variables_simultaneously(self):
        s = Substitution({"X": b, "Y": f(a)})
        assert apply(s, Compound("p", (X, f(a)))) == Compound("p", (b, f(a)))

    def test_empty_substitution_is_identity(self):
        t = Compound("p", (X, f(Y)))
        assert apply(EMPTY, t) == t

    def test_rejects_unknown_values(self):
        for x in (object(), Clause((Literal(Compound("p", (X,))),))):
            with pytest.raises(TypeError):
                apply(Substitution({"X": a}), x)


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
        probe = Compound("t", (X, Y, Z))
        assert apply(lhs, probe) == apply(rhs, probe)
        assert lhs == rhs

    def test_identity_bindings_never_stored(self):
        assert Substitution({"X": X}) == EMPTY
        assert len(Substitution({"X": X, "Y": a})) == 1


class TestUnify:
    def test_ground_against_variables(self):
        got = unify(Compound("p", (X, f(a))), Compound("p", (b, Y)))
        assert got == Substitution({"X": b, "Y": f(a)})

    def test_identical_atoms_yield_empty(self):
        assert unify(Compound("p", (a,)), Compound("p", (a,))) == EMPTY

    def test_occurs_check_fails(self):
        assert unify(Compound("p", (X,)), Compound("p", (f(X),))) is None

    def test_clashing_functors_fail(self):
        assert unify(Compound("p", (a,)), Compound("p", (b,))) is None
        assert unify(Compound("p", (a,)), Compound("q", (a,))) is None
        assert unify(Compound("p", (a,)), Compound("p", (a, b))) is None

    def test_variable_pair_binds_left_to_right(self):
        assert unify(Compound("q", (Y,)), Compound("q", (Z,))) == Substitution({"Y": Z})

    def test_a_literal_is_refused(self):
        # A variable must never be bound to a literal; two literals are
        # unified through their atoms.
        ground, open_ = Literal(Compound("p", (a,))), Literal(Compound("p", (X,)), False)
        for pair in [(X, ground), (ground, X), (open_, ground), (ground, ground), (a, open_)]:
            with pytest.raises(TypeError, match="cannot unify a Literal"):
                unify(*pair)


def built_nodes():
    """One node of each type, built anew on every call."""
    return [
        Variable("X"),
        Compound("f", (Variable("X"), Compound("a"))),
        Literal(Compound("p", (Compound("f", (Variable("X"),)),)), False),
    ]


class TestNodes:
    FIELDS = {
        Variable: ("name",),
        Compound: ("functor", "args"),
        Literal: ("atom", "positive", "sort_key", "features"),
    }

    @pytest.mark.parametrize("at", range(3))
    def test_fields_cannot_be_assigned_or_deleted(self, at):
        node = built_nodes()[at]
        text = node.text
        for name in ("text", "variables", "_hash", "other") + self.FIELDS[type(node)]:
            with pytest.raises(AttributeError):
                setattr(node, name, None)
            with pytest.raises(AttributeError):
                delattr(node, name)
        assert node.text == text and node == built_nodes()[at]

    @pytest.mark.parametrize("at", range(3))
    def test_a_copied_or_unpickled_node_equals_the_original(self, at):
        node = built_nodes()[at]
        for twin in (copy.copy(node), copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
            assert type(twin) is type(node) and twin == node and hash(twin) == hash(node)

    def test_equal_nodes_built_apart_are_equal_and_hash_alike(self):
        for x, y in zip(built_nodes(), built_nodes()):
            assert x is y and x == y and hash(x) == hash(y)

    def test_equality_is_structural_not_by_text(self):
        # The constructors do not check names: a constant named `a,b`
        # prints like two arguments, but is one.
        odd, plain = Compound("f", (Compound("a,b"),)), f(a, b)
        assert odd.text == plain.text and odd != plain and odd is not plain

    def test_a_variable_equals_no_node_of_another_type(self):
        # Built with the same text: `X` and `p` name a variable, a constant
        # and an atom alike, since the constructors do not check names.
        for name in ("X", "p"):
            var, const, lit = Variable(name), Compound(name), Literal(Compound(name))
            for x, y in ((var, const), (var, lit), (const, lit)):
                assert x.text == y.text and x != y and y != x


def table_sizes():
    """The entries of the four intern tables, once dead values are gone."""
    gc.collect()
    return [len(t) for t in (_VARIABLES, _COMPOUNDS, _LITERALS, _SUBSTITUTIONS)]


class TestInterning:
    """Equal values are one object across threads, and an object nobody
    holds leaves its table."""

    # Each round renames its symbols, so that every thread races to build
    # values that do not exist yet.
    TEXT = "p{0}(X,f{0}(Y))|~q{0}(Y,a{0}). q{0}(g{0}(X),b{0})|r{0}(X). ~p{0}(a{0},Z)|r{0}(Z)."

    @classmethod
    def build(cls, round_):
        """The literals of one round's clauses, their pairwise unifiers and
        those composed: terms, literals and substitutions alike."""
        clauses_ = parse_clause_file(cls.TEXT.format(round_))
        atoms_ = [lit.atom for c in clauses_ for lit in c.literals]
        mgus = [unify(x, y) for x in atoms_ for y in atoms_ if x.functor == y.functor]
        mgus = [m for m in mgus if m is not None]
        composed = [compose(m1, m2) for m1 in mgus for m2 in mgus]
        return [lit for c in clauses_ for lit in c.literals] + mgus + composed

    def test_threads_building_one_value_get_one_object(self):
        rounds = 25
        workers = (os.cpu_count() or 1) + 3
        start = threading.Barrier(workers)
        built = [None] * workers
        # The last churned literal some thread kept, or nothing: such
        # values die and are built again while other threads look them up,
        # and any two that are alive at once must be one object.
        box, split = [], []

        def work(at):
            start.wait(timeout=30)
            out = []
            for r in range(rounds):
                out.append(self.build(r))
                for i in range(20):
                    lit = Literal(Compound("churned", (Compound("c"),)))
                    kept = box[:]
                    if kept and kept[0] is not lit:
                        split.append(lit)
                    box[:] = [lit] if i % 2 else []
            built[at] = out

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(at,)) for at in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        mine = [self.build(r) for r in range(rounds)]
        for out in built:
            assert len(out) == rounds
            for values, expected in zip(out, mine):
                assert len(values) == len(expected)
                assert all(x is y for x, y in zip(values, expected))
        assert not split
        box.clear()
        gc.collect()
        assert not [key for key in _COMPOUNDS if key[0] == "churned"]

    def test_a_value_nobody_holds_leaves_its_table(self):
        before = table_sizes()
        values = [
            Variable("Lifetime"),
            Compound("lifetime", (Variable("Lifetime"), Compound("lifetime_c"))),
            Literal(Compound("lifetime", (Variable("Lifetime"),)), False),
            Substitution({"Lifetime": Compound("lifetime_c")}),
        ]
        assert table_sizes() == [n + k for n, k in zip(before, (1, 3, 1, 1))]
        del values
        assert table_sizes() == before
        assert "Lifetime" not in _VARIABLES and ("lifetime_c", ()) not in _COMPOUNDS

    def test_a_repeated_fold_builds_everything_again(self):
        """A fold repeated into one KB, as the benchmark's fold streams do,
        keeps nothing of the first fold once its result is dropped."""
        kb = compile(parse_clause_file("q(Y). ~r(f(X),b). p(X)|r(Y,b)|~q(Z)."))
        clause = parse_clause("~p(a)|~q(Z)|s(g(Z)).")
        before = table_sizes()
        first = add_clause(kb, clause)
        assert first.outcome == "recompiled"
        after = table_sizes()
        assert after != before
        del first
        assert table_sizes() == before
        second = add_clause(kb, clause)
        assert second.outcome == "recompiled" and table_sizes() == after


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

    def test_equality_of_separately_built_copies(self, deep):
        other = self.build()
        assert deep == other and Literal(Compound("p", (deep,))) == Literal(Compound("p", (other,)))
        assert deep != f(deep) and deep != Compound("g", deep.args)
        assert Literal(Compound("p", (deep,))) != Literal(Compound("p", (other,)), False)

    def test_literal_sort_key(self, deep):
        assert Literal(Compound("p", (deep,))).sort_key == ("p", 0, (deep.text,))

    def test_clause(self, deep):
        lit = Literal(Compound("p", (deep,)))
        assert Clause((lit, lit)).literals == (lit,)

    def test_clause_features(self, deep):
        lit = Literal(Compound("p", (deep,)))
        assert Clause((lit,)).features == {"p", ("a", 0), ("f", 1), lit.text}
        assert lit.features == frozenset(literal_features(lit.text, lit.atom.args))
        neg = Literal(Compound("q", (deep, X)), False)
        assert neg.features == {"~q", ("a", 0), ("f", 1)}
        assert Clause((lit, neg)).features == lit.features | neg.features
        # Two separately built clauses: their features compare by text.
        other = Clause((Literal(Compound("p", (self.build(),))),))
        assert other.features == Clause((lit,)).features

    def test_apply_returns_the_ground_term_itself(self, deep):
        assert apply(Substitution({"X": a}), deep) is deep


class TestDeepTermWithVariable:
    """A 1,000-level term over a variable: its fixed variable set serves
    `variables`, the occurs check and `apply` without a walk."""

    @staticmethod
    def nest(t):
        for _ in range(1000):
            t = f(t)
        return t

    @pytest.fixture(scope="class")
    def deep(self):
        return self.nest(Y)

    def test_variables_of(self, deep):
        assert deep.variables == {"Y"}

    def test_apply_of_an_unbound_name_returns_the_term_itself(self, deep):
        assert apply(Substitution({"Z": a}), deep) is deep

    def test_occurs_check(self):
        assert unify(X, self.nest(X)) is None

    def test_unify_binds_the_variable_to_the_term(self, deep):
        assert unify(X, deep).get("X") is deep


class TestVariablesOf:
    def test_atom(self):
        assert Compound("p", (X, f(a))).variables == {"X"}

    def test_ground(self):
        assert Compound("p", (a,)).variables == set()


class TestMatch:
    """One-way matching, as `subsumes` runs it on unit clauses."""

    def test_one_way_only(self):
        p = lambda t: unit(Compound("p", (t,)))
        assert subsumes(p(X), p(f(a))) == Substitution({"X": f(a)})
        assert subsumes(p(f(a)), p(X)) is None

    def test_consistency_across_occurrences(self):
        q = lambda s, t: unit(Compound("q", (s, t)))
        assert subsumes(q(X, X), q(a, b)) is None
        assert subsumes(q(X, X), q(a, a)) == Substitution({"X": a})


# Same-predicate pairs unify often enough to property-test the mgu.
same_predicate_pairs = st.one_of(
    st.tuples(
        st.builds(lambda t: Compound("p", (t,)), terms),
        st.builds(lambda t: Compound("p", (t,)), terms),
    ),
    st.tuples(
        st.builds(lambda s, t: Compound("q", (s, t)), terms, terms),
        st.builds(lambda s, t: Compound("q", (s, t)), terms, terms),
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
    names = sorted(a1.variables | a2.variables)
    assume(len(names) <= 3)
    universe = [a, b, f(a)]
    image = apply(mgu, a1)
    for combo in itertools.product(universe, repeat=len(names)):
        u = Substitution(dict(zip(names, combo)))
        if apply(u, a1) != apply(u, a2):
            continue
        r = subsumes(unit(image), unit(apply(u, a1)))
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
    r = subsumes(unit(a1), unit(target))
    assert r is not None
    assert apply(r, a1) == target


def reference_text(x):
    """The recursive printer that the fixed `text` replaces."""
    if isinstance(x, Variable):
        return x.name
    if isinstance(x, Literal):
        return reference_text(x.atom) if x.positive else "~" + reference_text(x.atom)
    if not x.args:
        return x.functor
    return "%s(%s)" % (x.functor, ",".join(reference_text(t) for t in x.args))


def rebuilt(x):
    """A structurally equal copy that shares no node with `x`."""
    if isinstance(x, Variable):
        return Variable(x.name)
    if isinstance(x, Literal):
        return Literal(rebuilt(x.atom), x.positive)
    args = tuple(rebuilt(t) for t in x.args)
    return Compound(x.functor, args)


@given(terms, atoms, literals)
def test_fixed_text_and_sort_key_match_recursive_reference(t, at, lit):
    for x in (t, at, lit):
        assert x.text == str(x) == reference_text(x)
    sign = 0 if lit.positive else 1
    args_text = tuple(reference_text(arg) for arg in lit.atom.args)
    assert lit.sort_key == (lit.atom.functor, sign, args_text)


@given(terms, literals)
def test_equal_nodes_built_apart_share_their_fixed_facts(t, lit):
    for x in (t, lit.atom, lit):
        twin = rebuilt(x)
        assert twin == x
        assert (hash(twin), twin.text, twin.variables) == (hash(x), x.text, x.variables)


def reference_variables(x):
    """The recursive collector that the fixed `variables` replaces."""
    if isinstance(x, Variable):
        return {x.name}
    if isinstance(x, Literal):
        return reference_variables(x.atom)
    return set().union(*[reference_variables(t) for t in x.args])


@given(terms, atoms, literals)
def test_fixed_variables_match_recursive_reference(t, at, lit):
    for x in (t, at, lit):
        assert x.variables == reference_variables(x)


@given(clauses)
def test_a_literal_carries_its_features_and_a_clause_their_union(c):
    for lit in c.literals:
        assert lit.features == frozenset(literal_features(lit.text, lit.atom.args))
    assert c.features == frozenset().union(*[lit.features for lit in c.literals])
    assert Clause(()).features == frozenset()


@given(st.one_of(terms, atoms, literals), st.dictionaries(st.sampled_from("XYZUV"), terms))
def test_apply_returns_a_node_whose_variables_it_leaves_unbound(x, bindings):
    unbound = {name: t for name, t in bindings.items() if name not in x.variables}
    assert apply(Substitution(unbound), x) is x


# The kernels against their first versions in `oracles`.  Terms here also
# take a binary function symbol, so that equations branch and bindings
# chain through more than one argument.
wide_terms = st.recursive(
    st.sampled_from("XYZ").map(Variable) | st.sampled_from("ab").map(Compound),
    lambda kids: st.builds(Compound, st.sampled_from("fg"), st.tuples(kids))
    | st.builds(lambda s, t: Compound("h", (s, t)), kids, kids),
    max_leaves=6,
)
wide_atoms = st.builds(lambda s, t: Compound("q", (s, t)), wide_terms, wide_terms)
term_nodes = st.one_of(terms, atoms, wide_terms, wide_atoms)
nodes = term_nodes | literals
binding_maps = st.dictionaries(st.sampled_from("XYZU"), wide_terms, max_size=3)
not_nodes = st.one_of(st.integers(), st.text(max_size=3), st.none(), st.tuples(terms), clauses)


def _same_map(new, ref):
    """Two results agree: both None, or equal bindings in the same order."""
    if new is None or ref is None:
        return new is ref
    return list(new.items()) == list(ref.items())


def _instance_pairs(pattern, target):
    """Pairs of a pattern and a target, or an instance of the pattern."""
    return st.one_of(
        st.tuples(pattern, target),
        st.builds(lambda p, b: (p, apply(Substitution(b), p)), pattern, binding_maps),
    )


# Two atoms with a variable on each side: the second binding often has to
# be applied to the first one's term.
crossed_atoms = st.builds(
    lambda x, s, t, y: (Compound("q", (x, s)), Compound("q", (t, y))),
    st.sampled_from("XYZ").map(Variable),
    wide_terms,
    wide_terms,
    st.sampled_from("XYZ").map(Variable),
)


@settings(deadline=None, max_examples=300)
@given(
    st.one_of(
        same_predicate_pairs,
        crossed_atoms,
        st.tuples(wide_terms, wide_terms),
        _instance_pairs(wide_atoms, wide_atoms),
        st.tuples(term_nodes, term_nodes),
    )
)
@example((Compound("q", (X, Y)), Compound("q", (f(Y), a))))
def test_unify_gives_what_the_reference_gives(pair):
    assert _same_map(unify(*pair), reference_unify(*pair))


@settings(deadline=None, max_examples=200)
@given(nodes, binding_maps)
def test_apply_gives_what_the_reference_gives(x, bound):
    sub = Substitution(bound)
    new, ref = apply(sub, x), reference_apply(sub, x)
    assert type(new) is type(ref) and new == ref and new.text == ref.text
    assert (new is x) == (ref is x)


@settings(deadline=None, max_examples=200)
@given(
    st.one_of(_instance_pairs(wide_atoms, wide_atoms), _instance_pairs(atoms, atoms)),
    st.dictionaries(st.sampled_from("XYZU"), wide_terms | st.sampled_from("XYZ").map(Variable)),
)
def test_match_gives_what_the_reference_gives(pair, d):
    assert _same_map(_match(*pair, dict(d)), reference_match(*pair, dict(d)))


@settings(deadline=None, max_examples=150)
@given(clauses, clauses, binding_maps)
def test_subsumes_gives_the_reference_witness(c1, c2, bound):
    bound = Substitution(bound)
    for target in (c2, Clause(tuple(apply(bound, l) for l in c1.literals + c2.literals))):
        witness = subsumes(c1, target)
        with mock.patch.object(pikit.clauses, "_match", reference_match):
            assert _same_map(witness, subsumes(c1, target))


@given(not_nodes, term_nodes, binding_maps)
def test_kernels_refuse_what_is_no_node_as_the_reference_does(bad, term, bound):
    for new, ref, args in (
        (apply, reference_apply, (Substitution(bound), bad)),
        (unify, reference_unify, (bad, term)),
        (unify, reference_unify, (term, bad)),
    ):
        with pytest.raises(TypeError) as expected:
            ref(*args)
        with pytest.raises(TypeError) as got:
            new(*args)
        assert str(got.value) == str(expected.value)
