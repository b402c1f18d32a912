"""Fundamentality, θ-subsumption with witness, and the subsumption residue."""

import itertools
import random

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from pikit import (
    EMPTY,
    Clause,
    ClauseSet,
    Compound,
    GenConfig,
    Literal,
    ResourceLimitExceeded,
    Substitution,
    Variable,
    apply,
    gen_kb,
    parse_clause,
    residue,
    subsumes,
    vary_seed,
)

from oracles import GroundUniverse, ground_instances
from strategies import FO_CFG, clauses, closure_iterates, entries, texts


def cl(text):
    return parse_clause(text)


def brute_force_subsumes(c1, c2):
    """Independent subsumption oracle: try every literal-to-literal map."""

    def match_term(p, t, binding):
        if isinstance(p, Variable):
            if p.name in binding:
                return binding if binding[p.name] == t else None
            ext = dict(binding)
            ext[p.name] = t
            return ext
        if isinstance(t, Variable):
            return None
        if p.functor != t.functor or len(p.args) != len(t.args):
            return None
        for pa, ta in zip(p.args, t.args):
            binding = match_term(pa, ta, binding)
            if binding is None:
                return None
        return binding

    for assignment in itertools.product(c2.literals, repeat=len(c1.literals)):
        binding = {}
        for lit, target in zip(c1.literals, assignment):
            if lit.positive != target.positive or lit.atom.functor != target.atom.functor:
                binding = None
                break
            if len(lit.atom.args) != len(target.atom.args):
                binding = None
                break
            for pa, ta in zip(lit.atom.args, target.atom.args):
                binding = match_term(pa, ta, binding)
                if binding is None:
                    break
            if binding is None:
                break
        if binding is not None:
            return Substitution(binding)
    return None


class TestClauseConstruction:
    def test_literals_are_merged_and_ordered(self):
        assert cl("r(b,X)|~q(g(a))|r(b,X).") == cl("~q(g(a))|r(b,X).")

    def test_equality_is_order_insensitive(self):
        assert cl("p(X)|q(Y).") == cl("q(Y)|p(X).")

    def test_empty_clause_prints_as_false(self):
        assert str(Clause()) == "$false"


class TestFundamental:
    def test_complementary_pair_is_not_fundamental(self):
        assert not cl("p(X)|~p(X).").is_fundamental()

    def test_distinct_atoms_are_fundamental(self):
        assert cl("p(X)|~q(Z).").is_fundamental()

    def test_same_predicate_same_sign_is_fundamental(self):
        assert cl("r(b,X)|r(a,b).").is_fundamental()

    def test_empty_clause_is_fundamental(self):
        assert Clause().is_fundamental()


class TestSubsumes:
    def test_witness_from_worked_example(self):
        got = subsumes(cl("~r(X,f(a))|~p(Y)."), cl("~r(g(a),f(a))|~p(Y)|q(Z)."))
        assert got == Substitution({"X": Compound("g", (Compound("a"),))})

    def test_reflexive_with_empty_witness(self):
        c = cl("p(X)|q(Y,b).")
        assert subsumes(c, c) == EMPTY

    def test_shared_variable_blocks_subsumption(self):
        c1, c2 = cl("p(X)|q(X,X)."), cl("p(a)|q(b,b).")
        # Oracle first: exhaustive matching confirms no single witness works.
        assert brute_force_subsumes(c1, c2) is None
        assert subsumes(c1, c2) is None

    def test_witness_makes_instance_a_subset(self):
        c1, c2 = cl("p(X)."), cl("p(f(b))|q(a,a).")
        w = subsumes(c1, c2)
        assert w is not None
        assert {apply(w, l) for l in c1.literals} <= set(c2.literals)

    def test_empty_clause_subsumes_everything(self):
        assert subsumes(Clause(), cl("p(X).")) == EMPTY
        assert subsumes(cl("p(X)."), Clause()) is None

    def test_worked_example_witness_is_semantically_sound(self):
        c1, c2 = cl("~r(X,f(a))|~p(Y)."), cl("~r(g(a),f(a))|~p(Y)|q(Z).")
        assert subsumes(c1, c2) is not None
        # Ground both over a universe containing the witness term g(a).
        u = GroundUniverse(("a",), (("f", 1), ("g", 1)), 1)
        lhs, rhs = ground_instances(c1, u), ground_instances(c2, u)
        atoms = sorted({l.atom for c in lhs + rhs for l in c.literals}, key=str)
        index = {atom: i for i, atom in enumerate(atoms)}

        def satisfies(m, clause):
            return any(
                (m >> index[l.atom]) & 1 == (1 if l.positive else 0)
                for l in clause.literals
            )

        for m in range(1 << len(index)):
            if all(satisfies(m, c) for c in lhs):
                assert all(satisfies(m, c) for c in rhs)


@settings(deadline=None, max_examples=150)
@given(clauses, clauses)
def test_subsumes_agrees_with_brute_force(c1, c2):
    got = subsumes(c1, c2)
    expected = brute_force_subsumes(c1, c2)
    assert (got is None) == (expected is None)
    if got is not None:
        assert {apply(got, l) for l in c1.literals} <= set(c2.literals)


@settings(deadline=None, max_examples=80)
@given(clauses, clauses, clauses)
def test_subsumes_is_transitive(c1, c2, c3):
    if subsumes(c1, c2) is not None and subsumes(c2, c3) is not None:
        assert subsumes(c1, c3) is not None


# Shallow clauses keep the finite grounding instantiation-closed: every
# subsumption witness maps variables to variables or constants, so the
# witnessing instance is always among the enumerated ones.
shallow_terms = st.sampled_from("XYZ").map(Variable) | st.sampled_from("ab").map(Compound)
shallow_atoms = st.one_of(
    st.builds(lambda t: Compound("p", (t,)), shallow_terms),
    st.builds(lambda s, t: Compound("q", (s, t)), shallow_terms, shallow_terms),
)
shallow_clauses = st.lists(
    st.builds(Literal, shallow_atoms, st.booleans()), min_size=1, max_size=3
).map(lambda ls: Clause(tuple(ls)))


@settings(deadline=None, max_examples=60, suppress_health_check=[HealthCheck.filter_too_much])
@given(shallow_clauses, shallow_clauses)
def test_subsumption_implies_ground_entailment(c1, c2):
    """If c1 subsumes c2 then every Herbrand model of c1 satisfies c2."""
    if subsumes(c1, c2) is None:
        return
    u = GroundUniverse(("a", "b"), (("f", 1),), 1)
    lhs = ground_instances(c1, u)
    lhs_atoms = sorted({l.atom for c in lhs for l in c.literals}, key=str)

    def open_or_true(m, clause):
        # An unassigned atom counts as satisfying its literal.
        return any(m.get(l.atom, l.positive) == l.positive for l in clause.literals)

    def model_extends(m, i):
        """Some assignment extending m satisfies every lhs instance."""
        if not all(open_or_true(m, c) for c in lhs):
            return False
        while i < len(lhs_atoms) and lhs_atoms[i] in m:
            i += 1
        if i == len(lhs_atoms):
            return True
        for value in (False, True):
            if model_extends({**m, lhs_atoms[i]: value}, i + 1):
                return True
        return False

    # Exact refutation: no model of lhs falsifies a non-tautological rhs instance.
    for d in ground_instances(c2, u):
        if d.is_fundamental():
            falsified = {l.atom: not l.positive for l in d.literals}
            assert not model_extends(falsified, 0), d


def member(text, assoc=None, parents=None):
    return Clause(cl(text).literals, Substitution(assoc or {}), parents)


def members(*texts_and_assocs):
    return ClauseSet(
        member(item) if isinstance(item, str) else member(*item) for item in texts_and_assocs
    )


class TestResidue:
    def test_unit_deletes_its_extensions(self):
        s = members(
            "q(Y).",
            "~r(f(X),b).",
            ("p(X)|r(Z,b).", {"Y": Variable("Z")}),
            ("p(X)|~q(Z).", {"Y": Compound("f", (Variable("X"),))}),
            "~p(a)|~q(Z).",
            ("~p(a).", {"Y": Variable("Z")}),
        )
        got = residue(s)
        assert "~p(a)|~q(Z)" not in texts(got.kept)
        assert [str(m) for m in s if m not in got.kept] == ["~p(a)|~q(Z)"]

    def test_unit_deletes_superset_clause(self):
        s = members(
            "q(Y).",
            "~r(f(X),b).",
            ("p(X)|r(Z,b).", {"Y": Variable("Z")}),
            ("p(X)|~q(Z).", {"Y": Compound("f", (Variable("X"),))}),
            ("~p(a).", {"Y": Variable("Z")}),
            ("r(Z,b).", {"X": Compound("a"), "Y": Variable("Z")}),
        )
        got = residue(s)
        assert [str(m) for m in s if m not in got.kept] == ["p(X)|r(Z,b)"]

    def test_singleton_is_kept(self):
        s = members("p(X).")
        kept = residue(s).kept
        assert kept == s and entries(kept) == entries(s)

    def test_variants_keep_the_earlier_member(self):
        s = members("p(X)|q(Y,b).", "p(Z)|q(X,b).")
        got = residue(s)
        assert texts(got.kept) == ["p(X)|q(Y,b)"]
        assert [str(m) for m in s if m not in got.kept] == ["p(Z)|q(X,b)"]

    def test_empty_clause_wins(self):
        s = ClauseSet([cl("p(a)."), Clause()])
        got = residue(s)
        assert texts(got.kept) == ["$false"]

    # Feature prefilter: j can subsume i only if j's (predicate, sign) pairs
    # and (symbol, arity) pairs are subsets of i's, and j's ground literals
    # are among i's literals.  Inclusion of sets, not of multisets: literal
    # counts and clause lengths can shrink under a substitution.
    def test_longer_clause_deletes_its_instance(self):
        s = members("p(a).", "p(X)|p(Y).")
        got = residue(s)
        assert texts(got.kept) == ["p(X)|p(Y)"]
        assert got.checks == 2

    def test_clause_with_extra_symbol_deletes_nothing(self):
        s = members("q(f(X)).", "q(X).")
        got = residue(s)
        assert texts(got.kept) == ["q(X)"]
        assert got.checks == 2

    def test_ground_literal_absent_from_target_deletes_nothing(self):
        s = members("p(a)|q(X).", "p(b)|q(c).", "p(a)|q(b)|r(c).")
        got = residue(s)
        assert texts(got.kept) == ["p(a)|q(X)", "p(b)|q(c)"]
        assert got.checks == 5


def random_clause_sets(seed):
    cfg = GenConfig(
        num_predicates=3,
        max_arity=2,
        num_variables=2,
        num_constants=2,
        clause_len_range=(1, 3),
        kb_size_range=(2, 6),
        seed=seed,
    )
    return gen_kb(cfg)


@settings(deadline=None, max_examples=120)
@given(st.integers(0, 10**9))
def test_residue_is_minimal_covering_and_idempotent(seed):
    s = random_clause_sets(seed)
    got = residue(s)
    kept = got.kept.members
    # minimality: no kept member subsumes another kept member
    for d, e in itertools.permutations(kept, 2):
        assert subsumes(d, e) is None
    # covering: every input member is subsumed by some kept member
    for m in s:
        assert any(subsumes(d, m) is not None for d in kept)
    # partition
    deleted = [m for m in s if m not in got.kept]
    assert len(kept) + len(deleted) == len(s)
    # idempotence
    again = residue(got.kept)
    assert again.kept == got.kept
    assert entries(again.kept) == entries(got.kept)
    assert [m for m in got.kept if m not in again.kept] == []


def reference_residue(s):
    """The residue decided pair by pair, each ordered pair searched once,
    with the number of pairs searched."""
    members = list(s)
    n = len(members)
    cache = {}

    def covers(i, j):
        k = (i, j)
        if k not in cache:
            cache[k] = subsumes(members[i], members[j]) is not None
        return cache[k]

    kept = []
    for i in range(n):
        for j in range(n):
            if i == j or not covers(j, i):
                continue
            if not covers(i, j) or j < i:
                break
        else:
            kept.append(members[i])
    return ClauseSet(kept), len(cache)


def assert_residue_matches_reference(s):
    got = residue(s)
    ref, ref_checks = reference_residue(s)
    assert got.kept == ref and entries(got.kept) == entries(ref)
    assert got.checks == ref_checks


def test_residue_matches_pairwise_reference_on_seeded_sets():
    for seed in range(200):
        assert_residue_matches_reference(gen_kb(GenConfig(seed=seed, **FO_CFG)))


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 10**9))
def test_settled_prefix_matches_pairwise_reference(seed):
    # A residue's output, then newcomers: fresh clauses, and some of the
    # settled clauses again under another association.
    cfg = GenConfig(seed=seed, **FO_CFG)
    settled = residue(gen_kb(cfg)).kept
    newcomers = [*gen_kb(vary_seed(cfg, 7))]
    newcomers += [Clause(m.literals, Substitution({"X": Compound("a")})) for m in settled][::2]
    random.Random(seed).shuffle(newcomers)
    s = ClauseSet([*settled, *newcomers])
    got = residue(s, settled=len(settled))
    assert (got.kept, got.checks) == reference_residue(s)


def test_settled_prefix_is_not_searched(monkeypatch):
    import pikit.clauses as clauses_module

    # p(X,X) passes the feature test against p(a,b) but does not subsume it.
    settled = members("p(X,X).", "p(a,b).", "q(b).")
    s = ClauseSet([*settled, *members("p(a,a)|q(a).", "q(X)|r(a).", "r(b).")])
    searched = []

    def spy(c1, c2):
        searched.append((str(c1), str(c2)))
        return subsumes(c1, c2)

    monkeypatch.setattr(clauses_module, "subsumes", spy)
    full = residue(s)
    full_searched, searched[:] = list(searched), []
    skip = residue(s, settled=3)
    assert skip.kept == full.kept and entries(skip.kept) == entries(full.kept)
    assert skip.checks == full.checks
    old = {str(m) for m in settled}
    assert [p for p in full_searched if old.issuperset(p)] != []
    assert [p for p in searched if old.issuperset(p)] == []


def test_residue_matches_pairwise_reference_on_closure_iterates():
    for seed in range(50):
        try:
            _, iterates = closure_iterates(gen_kb(GenConfig(seed=seed, **FO_CFG)))
        except ResourceLimitExceeded:
            continue
        for iterate in iterates:
            assert_residue_matches_reference(iterate)


class TestClauseSetEqual:
    def test_empty_sets_are_equal(self):
        assert ClauseSet() == ClauseSet()

    def test_variants_are_distinct_members(self):
        assert members("p(X).") != members("p(Y).")
        # Equality is ordered: the same members inserted in another order differ.
        assert members("p(X).", "q(Y).") != members("q(Y).", "p(X).")

    def test_association_is_part_of_identity(self):
        s1 = members(("p(X).", {"Y": Compound("a")}))
        s2 = members("p(X).")
        assert s1 != s2

    def test_parents_are_not_part_of_identity(self):
        first = member("p(X).", {"Y": Compound("a")}, (1, 2))
        second = member("p(X).", {"Y": Compound("a")}, (3, 4))
        assert first == second and hash(first) == hash(second)
        derived = member("p(X).", parents=(1, 2))
        assert first != derived
        # One clause type: a member with the empty association is the parsed
        # clause, whatever its parents; a non-empty association sets it apart.
        assert derived == cl("p(X).") and hash(derived) == hash(cl("p(X)."))
        assert first != cl("p(X).") and first.clause == cl("p(X).")
        assert derived.clause is derived
        assert str(first) == str(first.clause) == "p(X)"
        assert derived.entry_text == "p(X) ; assoc ; origin consensus(1,2)"
        s = ClauseSet([first])
        assert second in s and not s.add(second)
        assert entries(s) == ["p(X) ; assoc Y->a ; origin consensus(1,2)"]
        kept = ClauseSet([second, first]).members
        assert len(kept) == 1 and kept[0] is second


class TestClauseSet:
    def test_duplicate_members_are_not_readded(self):
        s = ClauseSet()
        assert s.add(cl("p(X)."))
        assert not s.add(cl("p(X)."))
        assert len(s) == 1

    def test_same_clause_different_assoc_kept_separately(self):
        s = ClauseSet()
        s.add(cl("p(X)."))
        s.add(member("p(X).", {"Y": Compound("a")}))
        assert len(s) == 2
