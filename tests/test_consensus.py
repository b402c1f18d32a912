"""Consensus pairs, association gating, the saturation step, and closure."""

import collections
import functools
import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from pikit import (
    Clause,
    ClauseSet,
    Compound,
    GenConfig,
    Outcome,
    ResourceLimitExceeded,
    ResourceLimits,
    Substitution,
    TraceEvent,
    Variable,
    add_clause,
    apply,
    compile,
    compose,
    consensus_closure,
    gen_clause,
    gen_kb,
    parse_clause,
    parse_clause_file,
    vary_seed,
)
from pikit.consensus import _resolve, _Rounds

from oracles import (
    CapacityError,
    GroundUniverse,
    check_implicate_semantically,
    complementary_pairs,
    consensus,
    same_models,
    truth_table_entails,
)
from strategies import FO_CFG, closure_iterates, entries, substitutions


def cl(text):
    return parse_clause(text)


def ac(text, assoc=None):
    return Clause(cl(text).literals, Substitution(assoc or {}))


EXAMPLE_CHAIN = "p(X,a)|~q(a,f(X)). ~p(b,a)|r(b,Z). ~r(X,f(a))|q(Z,f(a))."


def example_chain_inputs():
    return ClauseSet(parse_clause_file(EXAMPLE_CHAIN))


class TestComplementaryPairs:
    def test_single_unifiable_pair(self):
        got = complementary_pairs(ac("r(b,X)|~q(g(a))."), ac("r(a,b)|q(Z)."))
        assert len(got) == 1
        r, s, mgu = got[0]
        assert str(r) == "~q(g(a))" and str(s) == "q(Z)"
        assert mgu == Substitution({"Z": Compound("g", (Compound("a"),))})

    def test_same_sign_yields_nothing(self):
        assert complementary_pairs(ac("p(a)."), ac("p(b).")) == []

    def test_variable_to_variable_pair(self):
        got = complementary_pairs(ac("q(Y)."), ac("~p(a)|~q(Z)."))
        assert len(got) == 1
        r, s, mgu = got[0]
        assert str(r) == "q(Y)" and str(s) == "~q(Z)"
        assert mgu == Substitution({"Y": Variable("Z")})

    def test_multiple_mgus_are_all_reported(self):
        got = complementary_pairs(ac("p(a)|p(b)."), ac("~p(X)."))
        assert len(got) == 2


def test_pikit_consensus_is_the_module():
    import pikit.consensus as m

    assert m.__name__ == "pikit.consensus"
    assert callable(m.unify) and callable(m.compose)


class TestConsensus:
    def test_resolvent_with_composed_association(self):
        c1 = ac("p(X,a)|~q(a,f(X)).")
        c2 = ac("~p(b,a)|r(b,Z).")
        pairs = complementary_pairs(c1, c2)
        assert len(pairs) == 1
        got = consensus(c1, c2, pairs[0], parents=(1, 2))
        assert isinstance(got, Clause)
        assert got.entry_text == "~q(a,f(b))|r(b,Z) ; assoc X->b ; origin consensus(1,2)"
        assert got.assoc == Substitution({"X": Compound("b")})

    def test_blocked_when_associations_disagree(self):
        c1 = ac("p(X,a)|~q(a,f(X)).")
        c6 = ac(
            "~p(b,a)|q(f(a),f(a)).",
            {"X": Compound("b"), "Z": Compound("f", (Compound("a"),))},
        )
        pairs = complementary_pairs(c1, c6)
        assert len(pairs) == 1
        assert consensus(c1, c6, pairs[0]) is Outcome.BLOCKED

    def test_tautological_resolvent_is_rejected(self):
        c1 = ac("p(X)|q(X).")
        c2 = ac("~p(a)|~q(a).")
        pairs = complementary_pairs(c1, c2)
        on_p = [p for p in pairs if p[0].atom.functor == "p"]
        assert consensus(c1, c2, on_p[0]) is Outcome.NON_FUNDAMENTAL


@settings(deadline=None, max_examples=120, suppress_health_check=[HealthCheck.filter_too_much])
@given(st.integers(0, 10**9), substitutions, substitutions)
def test_association_coherence_of_results(seed, a1, a2):
    """Every consensus result carries compose(parent assoc, mgu) for both parents."""
    cfg = GenConfig(num_variables=2, kb_size_range=(2, 2), seed=seed)
    m1, m2 = list(gen_kb(cfg))
    c1 = Clause(m1.literals, a1)
    c2 = Clause(m2.literals, a2)
    for pair in complementary_pairs(c1, c2):
        got = consensus(c1, c2, pair)
        if isinstance(got, Clause):
            assert got.assoc == compose(c1.assoc, pair[2])
            assert got.assoc == compose(c2.assoc, pair[2])
        elif got is Outcome.BLOCKED:
            assert compose(c1.assoc, pair[2]) != compose(c2.assoc, pair[2])


def test_memoized_resolvents_match_built_then_tested_ones():
    """`_resolve`, with plain `apply` and with one memo shared by every
    attempt on a set as an engine round shares it, decides each unblocked
    attempt as the reference `consensus`, which builds the resolvent and
    then tests it, does.  The set is a criterion-4 KB and its first round's
    resolvents, which carry associations."""
    outcomes = collections.Counter()
    for seed in range(200):
        x = ClauseSet(gen_kb(GenConfig(seed=seed, **FO_CFG)))
        members = [*x, *_Rounds(x, 1, None).next(x, x)]
        applied = functools.cache(apply)
        for (i, d1), (j, d2) in itertools.permutations(enumerate(members, 1), 2):
            for pair in complementary_pairs(d1, d2):
                expected = consensus(d1, d2, pair, (i, j))
                got = []
                if expected is not Outcome.BLOCKED:
                    assoc = compose(d1.assoc, pair[2])
                    got = [_resolve(d1, d2, pair, assoc, (i, j), f) for f in (apply, applied)]
                for res in got:
                    if isinstance(expected, Outcome):
                        assert res is expected
                    else:
                        assert (res.entry_text, res.parents) == (expected.entry_text, (i, j))
                outcomes[expected if isinstance(expected, Outcome) else "built"] += 1
    assert min(outcomes.values()) > 50 and len(outcomes) == 3, outcomes


class TestConsensusStep:
    """The saturation step, seen as the iterates of the closure."""

    def test_first_step_of_worked_chain(self):
        got = closure_iterates(example_chain_inputs())[1][1]
        entries = [m.entry_text for m in got]
        assert entries == [
            "p(X,a)|~q(a,f(X)) ; assoc ; origin input",
            "~p(b,a)|r(b,Z) ; assoc ; origin input",
            "q(Z,f(a))|~r(X,f(a)) ; assoc ; origin input",
            "~q(a,f(b))|r(b,Z) ; assoc X->b ; origin consensus(1,2)",
            "p(a,a)|~r(a,f(a)) ; assoc X->a,Z->a ; origin consensus(1,3)",
            "~p(b,a)|q(f(a),f(a)) ; assoc X->b,Z->f(a) ; origin consensus(2,3)",
        ]

    def test_second_step_adds_one_clause(self):
        _, iterates = closure_iterates(example_chain_inputs())
        first, second = iterates[1], iterates[2]
        added = [m for m in second if m not in first]
        assert [m.entry_text for m in added] == [
            "q(f(a),f(a))|~q(a,f(b)) ; assoc X->b,Z->f(a) ; origin consensus(3,4)"
        ]


def prop_resolution_closure(clause_texts):
    """Independent oracle: propositional resolution closure over literal sets."""
    def parse(text):
        if text == "$false":
            return frozenset()
        return frozenset(text.split("|"))

    def negate(lit):
        return lit[1:] if lit.startswith("~") else "~" + lit

    work = {parse(t) for t in clause_texts}
    while True:
        new = set()
        for c1, c2 in itertools.permutations(work, 2):
            for lit in c1:
                if negate(lit) in c2:
                    resolvent = (c1 - {lit}) | (c2 - {negate(lit)})
                    if not any(negate(l) in resolvent for l in resolvent):
                        new.add(resolvent)
        if new <= work:
            break
        work |= new
    return work


class TestClosure:
    def test_worked_chain_reaches_fixpoint_at_round_two(self):
        got, iterates = closure_iterates(example_chain_inputs())
        assert got.rounds == 2
        assert len(got.clauses) == 7
        assert len(iterates) == 3
        assert iterates[-1] == got.clauses
        assert entries(iterates[-1]) == entries(got.clauses)

    def test_input_is_left_as_it_was(self):
        x = example_chain_inputs()
        before = entries(x)
        assert len(consensus_closure(x).clauses) == 7
        assert entries(x) == before
        for caps in ({"max_rounds": 0}, {"max_rounds": 1}, {"max_clauses": 4}):
            with pytest.raises(ResourceLimitExceeded) as err:
                consensus_closure(x, ResourceLimits(**caps))
            assert err.value.partial is not x
            assert entries(x) == before

    def test_single_clause_is_its_own_closure(self):
        base = ClauseSet([cl("q(Y).")])
        got = consensus_closure(base)
        assert got.clauses == base and entries(got.clauses) == entries(base)
        assert got.rounds == 0

    def test_ground_closure_matches_resolution_oracle(self):
        base = ClauseSet(parse_clause_file("p. ~p|q. ~q."))
        got = consensus_closure(base)
        got_literal_sets = {
            frozenset(str(l) for l in m.literals) for m in got.clauses
        }
        expected = prop_resolution_closure(["p", "~p|q", "~q"])
        assert got_literal_sets == expected
        assert {"|".join(sorted(c)) if c else "$false" for c in expected} == {
            "p", "q|~p", "~q", "q", "~p", "$false",
        }

    def test_round_cap_raises_with_partial_set(self):
        base = example_chain_inputs()
        with pytest.raises(ResourceLimitExceeded) as err:
            consensus_closure(base, ResourceLimits(max_rounds=1))
        assert err.value.limit == "max-rounds"
        assert len(err.value.partial) == 6  # the first iterate was completed

    def test_clause_cap_stops_at_the_admission_that_overflows(self):
        events = []
        with pytest.raises(ResourceLimitExceeded) as err:
            consensus_closure(
                example_chain_inputs(), ResourceLimits(max_clauses=4), trace=events.append
            )
        assert err.value.limit == "max-clauses"
        assert [m.entry_text for m in err.value.partial] == [
            "p(X,a)|~q(a,f(X)) ; assoc ; origin input",
            "~p(b,a)|r(b,Z) ; assoc ; origin input",
            "q(Z,f(a))|~r(X,f(a)) ; assoc ; origin input",
            "~q(a,f(b))|r(b,Z) ; assoc X->b ; origin consensus(1,2)",
            "p(a,a)|~r(a,f(a)) ; assoc X->a,Z->a ; origin consensus(1,3)",
        ]
        assert [(e.parents, e.outcome) for e in events] == [((1, 2), "added")]

    def test_negative_cap_is_rejected_when_built(self):
        for caps in ({"max_rounds": -1}, {"max_clauses": -1}):
            with pytest.raises(ValueError, match="must not be negative"):
                ResourceLimits(**caps)
        assert ResourceLimits(max_rounds=0, max_clauses=0).max_rounds == 0

    def test_clause_cap_raises_named_limit(self):
        base = example_chain_inputs()
        with pytest.raises(ResourceLimitExceeded) as err:
            consensus_closure(base, ResourceLimits(max_clauses=4))
        assert err.value.limit == "max-clauses"
        assert "max-clauses" in str(err.value)

    def test_trace_records_every_attempt(self):
        events = []
        consensus_closure(example_chain_inputs(), trace=events.append)
        outcomes = {e.outcome for e in events}
        assert "added" in outcomes and "duplicate" in outcomes
        assert all(e.round >= 1 for e in events)


def small_kb(seed, ground=False):
    if ground:
        cfg = GenConfig(
            num_predicates=5,
            max_arity=0,
            num_variables=0,
            num_constants=0,
            clause_len_range=(1, 3),
            kb_size_range=(2, 5),
            seed=seed,
        )
    else:
        cfg = GenConfig(
            num_predicates=3,
            max_arity=2,
            num_variables=3,
            num_constants=2,
            clause_len_range=(1, 3),
            kb_size_range=(2, 5),
            seed=seed,
        )
    return gen_kb(cfg)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10**9))
def test_closure_iterates_form_increasing_chain_and_are_stable(seed):
    base = small_kb(seed)
    try:
        got, iterates = closure_iterates(base, ResourceLimits(max_rounds=30, max_clauses=2000))
    except ResourceLimitExceeded:
        return
    for earlier, later in zip(iterates, iterates[1:]):
        assert all(m in later for m in earlier)
        assert len(later) > len(earlier)
    again = consensus_closure(got.clauses, ResourceLimits(max_rounds=30, max_clauses=2000))
    assert again.clauses == got.clauses
    assert entries(again.clauses) == entries(got.clauses)
    assert again.rounds == 0


def test_trace_iterates_are_the_round_capped_partials():
    """Iterate k, read off the trace, is what a closure capped at k rounds
    stops with, and the whole closure once the fixpoint comes first; so the
    chain tests on the trace's iterates do not hold by construction."""
    limits = ResourceLimits(max_rounds=30, max_clauses=2000)
    checked = 0
    for seed in range(60):
        base = gen_kb(GenConfig(seed=seed, **FO_CFG))
        try:
            closure, iterates = closure_iterates(base, limits)
        except ResourceLimitExceeded:
            continue
        assert len(iterates) == closure.rounds + 1
        for k, iterate in enumerate(iterates):
            with pytest.raises(ResourceLimitExceeded) as err:
                consensus_closure(base, ResourceLimits(max_rounds=k, max_clauses=2000))
            assert entries(err.value.partial) == entries(iterate)
            checked += 1
        capped = consensus_closure(base, ResourceLimits(max_rounds=len(iterates)))
        assert entries(capped.clauses) == entries(closure.clauses)
    assert checked > 100


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 10**9))
def test_ground_step_preserves_models(seed):
    base = small_kb(seed, ground=True)
    for iterate in closure_iterates(base)[1]:
        assert same_models(base, iterate)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10**9))
def test_ground_consensus_results_are_implicates(seed):
    base = small_kb(seed, ground=True)
    events = []
    try:
        got = consensus_closure(
            base, ResourceLimits(max_rounds=20, max_clauses=500), trace=events.append
        )
    except ResourceLimitExceeded:
        return
    for m in got.clauses:
        if m.parents is not None:
            assert truth_table_entails(base, m)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10**9))
def test_first_order_consensus_results_are_implicates_over_herbrand(seed):
    cfg = GenConfig(
        num_predicates=2,
        max_arity=1,
        num_variables=2,
        num_constants=1,
        clause_len_range=(1, 2),
        kb_size_range=(2, 3),
        seed=seed,
    )
    base = gen_kb(cfg)
    universe = GroundUniverse(("a",), (("f", 1),), 1)
    members = list(base)
    for d1, d2 in itertools.permutations(members, 2):
        for pair in complementary_pairs(d1, d2):
            got = consensus(d1, d2, pair)
            if isinstance(got, Clause):
                try:
                    ok = check_implicate_semantically(base, got, universe)
                except CapacityError:
                    continue
                assert ok


def nested_loop_round(base, new_side, seen, fresh, round_no):
    """One round of the pair engine as nested loops over members and pairs.

    D1 runs over `base` and D2 over `new_side`, skipping the same member and,
    when `fresh` is given, the pairs of two members outside it; each pair of
    `complementary_pairs(D1, D2)` is decided by `consensus` under base
    positions as parent ids.  Returns the trace events and the admitted
    members, growing a copy of `seen` as the engine does.
    """
    position = {m: i for i, m in enumerate(base, 1)}
    seen = set(seen)
    events, admitted = [], []
    for i, d1 in enumerate(base, 1):
        for d2 in new_side:
            if d1 == d2 or (fresh is not None and d1 not in fresh and d2 not in fresh):
                continue
            ids = (i, position[d2])
            for pair in complementary_pairs(d1, d2):
                res = consensus(d1, d2, pair, ids)
                if isinstance(res, Outcome):
                    outcome = res
                elif res in seen:
                    outcome = Outcome.DUPLICATE
                else:
                    outcome = Outcome.ADDED
                    seen.add(res)
                    admitted.append(res)
                texts = (str(d1), str(d2))
                result = None if isinstance(res, Outcome) else str(res)
                events.append(TraceEvent(round_no, ids, texts, pair[2], outcome.value, result))
    return events, admitted


# The criterion-4 seeds above 99 whose X ∪ {C} grounding refutes and whose
# `compile` leaves without `$false` (the gating gap of test_acceptance.py).
GATING_GAP_SEEDS = (139, 144, 147, 156, 197, 202, 214, 217, 240, 301, 315, 416, 432, 482)

# The fold that `TestAddClause` in test_compiler.py pins: round 1 derives a
# member equal to an input, which the support set then holds later than eta.
EQUAL_MEMBER_FOLD = ("p|q. q|r. ~r|s.", "~p|r.")


def test_pair_engine_matches_nested_loops(monkeypatch):
    """Every round that `compile` and `add_clause` ask of the engine, traced
    or not, gives the events and admissions of `nested_loop_round`."""
    real = _Rounds.next
    rounds = []

    def recorded(self, base, new_side, max_clauses=None):
        # The fresh set the round skips old pairs by; a traced fold skips none.
        fresh = None if self.fold and self.trace is not None else self.fresh
        rounds.append((base.copy(), new_side.copy(), set(self.seen), fresh, self.round + 1))
        return real(self, base, new_side, max_clauses)

    monkeypatch.setattr(_Rounds, "next", recorded)
    x, c = EQUAL_MEMBER_FOLD
    instances = [(parse_clause_file(x), cl(c))]
    for seed in [*range(100), *GATING_GAP_SEEDS]:
        cfg = GenConfig(seed=seed, **FO_CFG)
        instances.append((list(gen_kb(cfg)), gen_clause(vary_seed(cfg, 1_000_003))))
    for x, c in instances:
        try:
            kb = compile(x)
            add_clause(kb, c)
            add_clause(kb, c, trace=[].append)
        except ResourceLimitExceeded:
            continue
    assert len(rounds) > 400
    for base, new_side, seen, fresh, round_no in rounds:
        events, expected = nested_loop_round(base, new_side, seen, fresh, round_no)
        traced = []
        for trace in (traced.append, None):
            engine = _Rounds(seen, round_no, trace)
            engine.fresh, engine.round = fresh, round_no - 1
            got = real(engine, base, new_side)
            assert [(m, m.parents) for m in got] == [(m, m.parents) for m in expected]
        assert traced == events
