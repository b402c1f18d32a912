"""Batch compilation, incremental updates, and entailment queries."""

import collections
import importlib
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import pikit
from pikit import (
    DEFAULT_LIMITS,
    EMPTY,
    Clause,
    ClauseSet,
    CompiledKB,
    Compound,
    GenConfig,
    ResourceLimitExceeded,
    ResourceLimits,
    Substitution,
    add_clause,
    add_clauses,
    compile,
    consensus_closure,
    dumps_kb,
    entails,
    gen_clause,
    gen_kb,
    loads_kb,
    parse_clause,
    parse_clause_file,
    residue,
    subsumes,
    vary_seed,
)

from oracles import GroundUniverse, check_implicate_semantically, models_of, same_models
from strategies import FO_CFG, entries, texts
from test_consensus import nested_loop_round

BASE_KB = "q(Y). ~r(f(X),b). p(X)|r(Y,b)|~q(Z)."
ADDED = "~p(a)|~q(Z)."


def cl(text):
    return parse_clause(text)


def base_compiled():
    return compile(parse_clause_file(BASE_KB))


class TestCompile:
    def test_worked_example_prime_implicates(self):
        kb = base_compiled()
        assert [m.entry_text for m in kb.pi] == [
            "q(Y) ; assoc ; origin input",
            "~r(f(X),b) ; assoc ; origin input",
            "p(X)|r(Z,b) ; assoc Y->Z ; origin consensus(1,3)",
            "p(X)|~q(Z) ; assoc Y->f(X) ; origin consensus(2,3)",
        ]
        assert not kb.inconsistent

    def test_single_unit_clause(self):
        kb = compile([cl("p(a).")])
        assert texts(kb.pi) == ["p(a)"]
        assert kb.stats.rounds == 0

    def test_unsatisfiable_ground_kb_compiles_to_empty_clause(self):
        text = "p|q. ~p|q. p|~q. ~p|~q."
        clauses = parse_clause_file(text)
        # Oracle first: the truth table confirms unsatisfiability.
        assert models_of(clauses) == []
        kb = compile(clauses)
        assert texts(kb.pi) == ["$false"]
        assert kb.inconsistent

    def test_non_fundamental_inputs_dropped_with_warning(self):
        clauses = parse_clause_file("p(X)|~p(X). q(a).")
        with pytest.warns(UserWarning, match="non-fundamental"):
            kb = compile(clauses)
        assert texts(kb.pi) == ["q(a)"]

    def test_result_is_subsumption_minimal_and_fundamental(self):
        kb = base_compiled()
        assert [m for m in kb.pi if m not in residue(kb.pi).kept] == []
        assert all(m.is_fundamental() for m in kb.pi)

    def test_empty_input_compiles_to_empty_kb(self):
        kb = compile([])
        assert len(kb.pi) == 0

    def test_digest_is_deterministic(self):
        assert base_compiled().source_digest == base_compiled().source_digest

    def test_heavy_seed_134_keeps_its_counters(self):
        # The costliest closure among the first 500 criterion-4 seeds.
        kb = compile(gen_kb(GenConfig(seed=134, **FO_CFG)))
        assert kb.stats.format() == "rounds=8 consensus_attempts=312120 subsumption_checks=11778"
        assert len(kb.pi) == 18


class TestAddClause:
    def test_worked_example_final_set(self):
        report = add_clause(base_compiled(), cl(ADDED))
        assert report.outcome == "recompiled"
        assert [m.entry_text for m in report.result.pi] == [
            "q(Y) ; assoc ; origin input",
            "~r(f(X),b) ; assoc ; origin input",
            "p(X)|~q(Z) ; assoc Y->f(X) ; origin consensus(2,3)",
            "~p(a) ; assoc Y->Z ; origin consensus(1,5)",
            "r(Z,b) ; assoc X->a,Y->Z ; origin consensus(3,5)",
        ]

    def test_worked_example_snapshots(self):
        report = add_clause(base_compiled(), cl(ADDED))
        snapshots = [texts(snap) for snap in report.snapshot_history]
        assert snapshots[0] == [
            "q(Y)", "~r(f(X),b)", "p(X)|r(Z,b)", "p(X)|~q(Z)", "~p(a)|~q(Z)",
        ]
        assert snapshots[1] == ["q(Y)", "~r(f(X),b)", "p(X)|r(Z,b)", "p(X)|~q(Z)", "~p(a)"]
        assert snapshots[2] == ["q(Y)", "~r(f(X),b)", "p(X)|~q(Z)", "~p(a)", "r(Z,b)"]
        assert snapshots[3] == snapshots[2]  # fixpoint: two equal consecutive snapshots
        assert len(snapshots) == 4

    def test_worked_example_support_history(self):
        report = add_clause(base_compiled(), cl(ADDED))
        support = [[str(m) for m in snap] for snap in report.support_history]
        assert support == [
            ["~p(a)|~q(Z)"],
            ["~p(a)"],
            ["~p(a)", "r(Z,b)"],
            ["~p(a)", "r(Z,b)"],
        ]

    def test_worked_example_trace(self):
        events = []
        add_clause(base_compiled(), cl(ADDED), trace=events.append)
        rows = [
            (e.round, e.parent_texts, str(e.mgu), e.outcome, e.result_text)
            for e in events
        ]
        assert rows == [
            (1, ("q(Y)", "~p(a)|~q(Z)"), "{Y->Z}", "added", "~p(a)"),
            (1, ("p(X)|r(Z,b)", "~p(a)|~q(Z)"), "{X->a}", "blocked", None),
            (1, ("p(X)|~q(Z)", "~p(a)|~q(Z)"), "{X->a}", "blocked", None),
            (2, ("p(X)|r(Z,b)", "~p(a)"), "{X->a}", "added", "r(Z,b)"),
            (2, ("p(X)|~q(Z)", "~p(a)"), "{X->a}", "blocked", None),
            (3, ("~r(f(X),b)", "r(Z,b)"), "{Z->f(X)}", "blocked", None),
            (3, ("p(X)|~q(Z)", "~p(a)"), "{X->a}", "blocked", None),
        ]

    def test_tautology_leaves_kb_unchanged(self):
        kb = base_compiled()
        report = add_clause(kb, cl("p(a)|~p(a)."))
        assert report.outcome == "unchanged"
        assert report.result is kb

    def test_subsumed_clause_is_absorbed(self):
        kb = base_compiled()
        report = add_clause(kb, cl("q(a)|s(b)."))  # subsumed by q(Y)
        assert report.outcome == "absorbed"
        assert report.result.pi == kb.pi
        assert entries(report.result.pi) == entries(kb.pi)

    def test_existing_member_is_absorbed(self):
        kb = base_compiled()
        report = add_clause(kb, cl("q(Y)."))
        assert report.outcome == "absorbed"
        assert report.result.pi == kb.pi
        assert entries(report.result.pi) == entries(kb.pi)

    def test_added_clause_may_displace_old_members(self):
        kb = compile([cl("p(a)|q(b).")])
        report = add_clause(kb, cl("p(a)."))
        assert report.outcome == "recompiled"
        assert texts(report.result.pi) == ["p(a)"]

    def test_non_empty_association_is_rejected(self):
        kb = base_compiled()
        bad = Clause(cl("s(a).").literals, Substitution({"X": Compound("a")}))
        with pytest.raises(ValueError):
            add_clause(kb, bad)

    def test_round_cap_raises(self):
        kb = base_compiled()
        with pytest.raises(ResourceLimitExceeded) as err:
            add_clause(kb, cl(ADDED), ResourceLimits(max_rounds=1))
        assert err.value.limit == "max-rounds"

    def test_first_order_fold_golden(self):
        # Criterion-4 seed 56: three rounds, and the pair of ~r(X)|~r(f(Z))
        # and r(X) is tried in every round, under parent ids that shift as
        # the residue deletes members ahead of it.
        kb = compile(parse_clause_file(
            "~q(f(a),Y). r(a)|~r(X). ~p(a)|q(X,Z)|~r(a). p(f(X)). "
            "~r(a)|~r(f(Z)). ~p(Y)|~p(f(b))|~q(a,f(a))."
        ))
        events = []
        report = add_clause(kb, cl("r(X)."), trace=events.append)
        assert [e.format() for e in events] == [
            "ROUND 1: (3, 7) mgu={X->a} -> blocked",
            "ROUND 1: (4, 7) mgu={} -> added",
            "ROUND 1: (5, 7) mgu={} -> added",
            "ROUND 1: (5, 7) mgu={X->f(Z)} -> added",
            "ROUND 2: (1, 7) mgu={X->f(a),Y->Z} -> added",
            "ROUND 2: (3, 6) mgu={X->a} -> blocked",
            "ROUND 2: (4, 6) mgu={} -> duplicate",
            "ROUND 2: (4, 6) mgu={X->f(Z)} -> duplicate",
            "ROUND 2: (5, 7) mgu={X->a,Z->f(a)} -> blocked",
            "ROUND 3: (3, 5) mgu={} -> duplicate",
            "ROUND 3: (3, 5) mgu={X->f(Z)} -> duplicate",
        ]
        assert [e.result_text for e in events][-2:] == ["~r(f(Z))", "~r(f(Z))"]
        stats = report.result.stats
        assert (stats.rounds, stats.consensus_attempts, stats.subsumption_checks) == (3, 11, 222)
        assert dumps_kb(report.result) == (
            "PIKB 1\n"
            "digest sha256:a129f09f3f70566909c4682639dac659d6db4a55d402146a6059e5dbf7e9910c\n"
            "stats rounds=3 consensus_attempts=11 subsumption_checks=222\n"
            "pred p/1\npred q/2\npred r/1\nfn a/0\nfn b/0\nfn f/1\n"
            "clause ~q(f(a),Y) ; assoc ; origin input\n"
            "clause p(f(X)) ; assoc ; origin input\n"
            "clause ~r(X)|~r(f(Z)) ; assoc ; origin consensus(2,5)\n"
            "clause ~p(Y)|~q(a,f(a)) ; assoc X->b ; origin consensus(4,6)\n"
            "clause r(X) ; assoc ; origin input\n"
            "clause ~p(a) ; assoc X->f(a),Y->Z ; origin consensus(1,7)\n"
            "end\n"
        )

    def test_fold_orders_a_second_parent_by_its_support_position(self):
        # Round 1 derives q|r, equal to the input q|r: eta keeps the input at
        # position 2 while the support set holds the resolvent second.  So
        # round 2 pairs ~r|s with ~p|r before q|r, though eta holds q|r first.
        kb = compile(parse_clause_file("p|q. q|r. ~r|s."))
        events = []
        for trace in (events.append, None):
            report = add_clause(kb, cl("~p|r."), trace=trace)
            stats = report.result.stats
            assert (stats.rounds, stats.consensus_attempts, stats.subsumption_checks) == (2, 6, 80)
            assert [m.entry_text for m in report.support_history[1]] == [
                "~p|r ; assoc ; origin input",
                "q|r ; assoc ; origin consensus(1,5)",
                "~p|s ; assoc ; origin consensus(3,5)",
            ]
            assert report.snapshot_history[1].members[1].entry_text == "q|r ; assoc ; origin input"
        assert [(e.round, e.parents, e.outcome, e.result_text) for e in events] == [
            (1, (1, 5), "added", "q|r"),
            (1, (3, 5), "added", "~p|s"),
            (2, (1, 5), "duplicate", "q|r"),
            (2, (1, 6), "added", "q|s"),
            (2, (3, 5), "duplicate", "~p|s"),
            (2, (3, 2), "duplicate", "q|s"),
        ]

    def test_fold_counts_one_attempt_per_trace_event(self):
        for seed in range(50):
            cfg = GenConfig(seed=seed, **FO_CFG)
            try:
                kb = compile(list(gen_kb(cfg)))
                events = []
                report = add_clause(kb, gen_clause(vary_seed(cfg, 1_000_003)), trace=events.append)
            except ResourceLimitExceeded:
                continue
            if report.outcome == "recompiled":
                assert report.result.stats.consensus_attempts == len(events), seed


# A round cap counts every engine round, the last one that finds nothing new
# included.  `compile` reports its rounds without that last one and the fold
# with it, so a compiled KB that reports N rounds needed a cap of N + 1.
# Each row: input, added clause (None: compile only), cap, and the reported
# rounds or the partial set the cap stops with.
ROUND_CAPS = [
    ("p(a). ~p(X)|q(X).", None, 0, ["p(a)", "~p(X)|q(X)"]),
    ("p(a). ~p(X)|q(X).", None, 1, ["p(a)", "~p(X)|q(X)", "q(a)"]),
    ("p(a). ~p(X)|q(X).", None, 2, 1),
    ("p(a).", None, 0, ["p(a)"]),
    ("p(a).", None, 1, 0),
    (BASE_KB, ADDED, 0, ["q(Y)", "~r(f(X),b)", "p(X)|r(Z,b)", "p(X)|~q(Z)", "~p(a)|~q(Z)"]),
    (BASE_KB, ADDED, 1, ["q(Y)", "~r(f(X),b)", "p(X)|r(Z,b)", "p(X)|~q(Z)", "~p(a)"]),
    (BASE_KB, ADDED, 2, ["q(Y)", "~r(f(X),b)", "p(X)|~q(Z)", "~p(a)", "r(Z,b)"]),
    (BASE_KB, ADDED, 3, 3),
]


@pytest.mark.parametrize("x, added, max_rounds, expected", ROUND_CAPS)
def test_round_cap_counts_every_engine_round(x, added, max_rounds, expected):
    limits = ResourceLimits(max_rounds=max_rounds)
    clauses = parse_clause_file(x)

    def run():
        if added is None:
            return compile(clauses, limits)
        return add_clause(compile(clauses), cl(added), limits).result

    if isinstance(expected, int):
        assert run().stats.rounds == expected
        return
    with pytest.raises(ResourceLimitExceeded) as err:
        run()
    assert (err.value.limit, err.value.value) == ("max-rounds", max_rounds)
    assert texts(err.value.partial) == expected


def _criterion_4_instances(count=50):
    """(X, C) of criterion-4 seeds 0..count-1, in the FO_CFG shape."""
    for seed in range(count):
        cfg = GenConfig(seed=seed, **FO_CFG)
        yield list(gen_kb(cfg)), gen_clause(vary_seed(cfg, 1_000_003))


class TestDecidedOnce:
    """Work one compile or fold call has done is not done again in that call."""

    def test_each_unify_and_compose_pair_is_decided_once_per_call(self, monkeypatch):
        engine = importlib.import_module("pikit.consensus")
        calls = collections.Counter()

        def counted(name):
            inner = getattr(engine, name)

            def wrapper(a, b):
                calls[name, a, b] += 1
                return inner(a, b)

            monkeypatch.setattr(engine, name, wrapper)

        counted("unify")
        counted("compose")

        def twice(run):
            # A memo that outlived its call would leave the second run fewer
            # pairs to decide than a fresh `pikit add` process has.
            runs = []
            for _ in range(2):
                calls.clear()
                result = run()
                assert [k for k, n in calls.items() if n > 1] == []
                runs.append(set(calls))
            assert runs[0] == runs[1]
            return result, len(runs[0])

        decided = folds = 0
        for x, c in _criterion_4_instances():
            try:
                kb, n = twice(lambda: compile(x))
                report, m = twice(lambda: add_clause(kb, c))
            except ResourceLimitExceeded:
                continue
            decided += n + m
            folds += report.outcome == "recompiled"
        assert folds >= 20 and decided > 1000

    def test_round_residues_search_no_pair_of_the_previous_working_set(self, monkeypatch):
        clauses_module = importlib.import_module("pikit.clauses")
        compiler_module = importlib.import_module("pikit.compiler")
        real_residue, real_subsumes = compiler_module.residue, clauses_module.subsumes
        state = {"previous": frozenset(), "settled": frozenset()}
        searched = collections.Counter()

        def residue_wrapper(s, *args, **kwargs):
            state["settled"] = state["previous"]
            try:
                out = real_residue(s, *args, **kwargs)
            finally:
                state["settled"] = frozenset()
            state["previous"] = frozenset(id(m) for m in out.kept)
            return out

        def subsumes_wrapper(c1, c2):
            settled = state["settled"]
            if settled:
                both = id(c1) in settled and id(c2) in settled
                searched["settled" if both else "round"] += 1
            return real_subsumes(c1, c2)

        monkeypatch.setattr(compiler_module, "residue", residue_wrapper)
        monkeypatch.setattr(clauses_module, "subsumes", subsumes_wrapper)
        for x, c in _criterion_4_instances():
            try:
                state["previous"] = frozenset()
                kb = compile(x)
                # The fold's first residue skips the pairs of the compiled pi.
                add_clause(kb, c)
            except ResourceLimitExceeded:
                continue
        assert searched["settled"] == 0
        assert searched["round"] > 100


TIGHT = ResourceLimits(max_rounds=3, max_clauses=12)


def _outputs(run):
    """The members and stats of run()'s KB, or its limit and partial set."""
    try:
        kb = run()
    except ResourceLimitExceeded as err:
        return err.limit, entries(err.partial)
    return entries(kb.pi), kb.stats


class TestCountedAttempts:
    """The engine visits only unblocked attempts, and an untraced fold only
    the pairs with a member new in that round; it counts the others."""

    def test_untraced_runs_count_every_traced_event(self, monkeypatch):
        compiler_module = importlib.import_module("pikit.compiler")
        real_add_clause = compiler_module.add_clause
        events, counts = [], []

        def fold(kb, clause, limits, trace):
            # Each finished fold's attempts: its trace events or its stats' count.
            before = len(events)
            report = real_add_clause(kb, clause, limits, trace)
            own = report.result.stats.consensus_attempts if report.outcome == "recompiled" else 0
            counts.append(len(events) - before if trace else own)
            return report

        monkeypatch.setattr(compiler_module, "add_clause", fold)
        folds = 0
        for seed, (x, c) in enumerate(_criterion_4_instances(100)):
            d = gen_clause(vary_seed(GenConfig(seed=seed, **FO_CFG), 2_000_003))
            for limits in (DEFAULT_LIMITS, TIGHT):
                try:
                    kb = compile(x, limits)
                except ResourceLimitExceeded:
                    kb = None
                runs = {}
                for trace in (None, events.append):
                    events.clear()
                    counts.clear()
                    got = [_outputs(lambda: compile(x, limits, trace))]
                    compile_events = len(events)
                    if kb is not None:
                        got.append(_outputs(lambda: fold(kb, c, limits, trace).result))
                        got.append(_outputs(lambda: add_clauses(kb, [c, d], limits, trace).result))
                    runs[trace] = got, list(counts)
                assert runs[None] == runs[events.append], (seed, limits)
                if kb is not None:
                    assert kb.stats.consensus_attempts == compile_events, (seed, limits)
                folds += sum(1 for n in counts if n)
        assert folds > 150

    def test_untraced_runs_never_build_a_blocked_or_old_attempt(self, monkeypatch):
        engine = importlib.import_module("pikit.consensus")
        built, admitted = TestResolventsBuilt.built(monkeypatch)
        real_fundamental, real_next = engine.fundamental, engine._Rounds.next
        rounds = []  # (fold, round, base, new side, seen, fresh, attempts resolved)
        resolved = collections.Counter()  # `fundamental` calls of the running round

        def fundamental_spy(literals):
            # The engine tests each attempt it resolves once, and no other.
            resolved["round"] += 1
            return real_fundamental(literals)

        def next_spy(self, base, new_side, max_clauses=None):
            seen = [Clause(literals, assoc) for literals, assoc in self.seen]
            start = (self.fold, self.round + 1, base.copy(), new_side.copy(), seen, self.fresh)
            resolved.clear()
            added = real_next(self, base, new_side, max_clauses)
            rounds.append((*start, resolved["round"]))
            return added

        monkeypatch.setattr(engine, "fundamental", fundamental_spy)
        monkeypatch.setattr(engine._Rounds, "next", next_spy)
        for x, c in _criterion_4_instances(100):
            try:
                add_clause(compile(x), c)
            except ResourceLimitExceeded:
                continue
        # Each untraced round resolves exactly the unblocked attempts of the
        # nested loops that skip the pairs of two members outside `fresh`.
        total = later_rounds = 0
        for fold, k, base, new_side, seen, fresh, count in rounds:
            events, _ = nested_loop_round(base, new_side, seen, fresh, k)
            assert count == sum(e.outcome != "blocked" for e in events), (fold, k)
            total += count
            later_rounds += count if fold and k > 1 else 0
        assert later_rounds > 40 and total > 500
        # Untraced, a duplicate is never built: each resolvent built is
        # admitted, and in the order it was built.
        assert len(built) == len(admitted) > 500
        assert all(b is a for b, a in zip(built, admitted))


class TestResolventsBuilt:
    """Untraced, the engine builds a resolvent only to admit it: it tells a
    duplicate by its literal set and association before any `Clause` is
    built.  Traced, it still builds each duplicate, whose event prints it.
    The counts are of the criterion-4 instances and of the fold streams of
    the `fo-compile` and `fo-add-stream` benchmarks; an engine that built
    every unblocked, fundamental resolvent untraced would build 25,916 and
    411."""

    @staticmethod
    def built(monkeypatch):
        """Lists of the `Clause`s the engine builds and of those it admits,
        each in order."""
        engine = importlib.import_module("pikit.consensus")
        real_clause, real_next = engine.Clause, engine._Rounds.next
        built, admitted = [], []

        def build(*args):
            built.append(real_clause(*args))
            return built[-1]

        def next_spy(self, *args):
            added = real_next(self, *args)
            admitted.extend(added)
            return added

        monkeypatch.setattr(engine, "Clause", build)
        monkeypatch.setattr(engine._Rounds, "next", next_spy)
        return built, admitted

    @staticmethod
    def fold_streams(monkeypatch):
        """The `fo-add-stream` benchmark's workload, its streams built."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        workloads = importlib.import_module("workloads")
        return workloads.FoAddStream(pikit, workloads.FULL["fo-add-stream"])

    def test_an_untraced_closure_builds_one_resolvent_per_admission(self, monkeypatch):
        built, admitted = self.built(monkeypatch)
        for seed in range(500):
            consensus_closure(ClauseSet(gen_kb(GenConfig(seed=seed, **FO_CFG))))
        assert (len(built), len(admitted)) == (3283, 3283)

    def test_an_untraced_fold_pass_builds_one_resolvent_per_admission(self, monkeypatch):
        streams = self.fold_streams(monkeypatch)
        built, admitted = self.built(monkeypatch)
        streams.run_pass(streams.ops)
        assert (len(built), len(admitted)) == (396, 396)

    def test_a_traced_run_builds_one_resolvent_per_added_or_duplicate_event(self, monkeypatch):
        streams = self.fold_streams(monkeypatch)
        built, admitted = self.built(monkeypatch)
        events = collections.Counter()

        def trace(event):
            events[event.outcome] += 1

        streams.run_pass(streams.ops, trace)
        assert (len(built), events["added"], events["duplicate"]) == (703, 396, 307)
        assert len(admitted) == events["added"]
        built.clear()
        admitted.clear()
        events.clear()
        for seed in range(100):
            consensus_closure(ClauseSet(gen_kb(GenConfig(seed=seed, **FO_CFG))), trace=trace)
        assert (len(built), events["added"], events["duplicate"]) == (936, 376, 560)
        assert len(admitted) == events["added"]


def _count_decisions(monkeypatch):
    """A counter of the real `unify` and `compose` calls of every engine
    built from now on, keyed by (name, first argument, second argument)."""
    engine = importlib.import_module("pikit.consensus")
    calls = collections.Counter()
    for name in ("unify", "compose"):
        inner = getattr(engine, name)

        def wrapper(a, b, name=name, inner=inner):
            calls[name, a, b] += 1
            return inner(a, b)

        monkeypatch.setattr(engine, name, wrapper)
    return calls


def _memo_snapshot(kb):
    """The KB's memo tables as (key, value) items, values by identity."""
    return [[(k, id(v)) for k, v in table.items()] for table in kb.memo]


def _stream(cfg, length=6):
    """A criterion-4 seed's clauses to fold one after another."""
    return [gen_clause(vary_seed(cfg, 1_000_003 * k)) for k in range(1, length + 1)]


class TestMemoLifetime:
    """A fold's `unify` and `compose` memos ride on the KB it returns: the
    next fold into that KB starts from a copy, and nothing else has one."""

    def test_two_folds_into_one_kb_decide_the_same_pairs(self, monkeypatch):
        calls = _count_decisions(monkeypatch)
        checked = 0
        for seed in range(50):
            cfg = GenConfig(seed=seed, **FO_CFG)
            c1, c2 = _stream(cfg, 2)
            try:
                kb = add_clause(compile(gen_kb(cfg)), c1).result
                if kb.memo is None:
                    continue  # c1 was absorbed or a tautology
                before = _memo_snapshot(kb)
                runs = []
                for _ in range(2):
                    calls.clear()
                    add_clause(kb, c2)
                    runs.append(set(calls))
            except ResourceLimitExceeded:
                continue
            assert runs[0] == runs[1]
            assert _memo_snapshot(kb) == before
            checked += bool(runs[0])
        assert checked >= 10

    def test_a_stream_of_folds_decides_each_pair_once(self, monkeypatch):
        calls = _count_decisions(monkeypatch)
        decided = recompiled = 0
        for seed in range(50):
            cfg = GenConfig(seed=seed, **FO_CFG)
            try:
                kb = compile(gen_kb(cfg))
                calls.clear()
                batch = add_clauses(kb, _stream(cfg))
            except ResourceLimitExceeded:
                continue
            assert [k for k, n in calls.items() if n > 1] == [], seed
            decided += len(calls)
            recompiled += batch.outcomes.count("recompiled")
        assert recompiled >= 100 and decided > 1000

    def test_only_a_fold_result_carries_a_memo(self):
        kb = base_compiled()
        assert kb.memo is None
        assert loads_kb(dumps_kb(kb)).memo is None
        assert CompiledKB(ClauseSet()).memo is None
        folded = add_clause(kb, cl(ADDED)).result
        assert folded.memo is not None and all(folded.memo)
        assert loads_kb(dumps_kb(folded)).memo is None
        assert loads_kb(dumps_kb(folded)) == folded  # the memo takes no part in ==

    def test_an_absorbed_or_tautological_clause_returns_the_input_kb(self):
        kb = add_clause(base_compiled(), cl(ADDED)).result
        before = _memo_snapshot(kb)
        for text, outcome in [("q(a).", "absorbed"), ("p(a)|~p(a).", "unchanged")]:
            report = add_clause(kb, cl(text))
            assert report.outcome == outcome
            assert report.result is kb and _memo_snapshot(kb) == before

    def test_a_memo_at_the_cap_is_not_carried(self, monkeypatch):
        kb = base_compiled()
        sizes = [len(table) for table in add_clause(kb, cl(ADDED)).result.memo]
        assert min(sizes) > 1 and sizes[0] != sizes[1]
        engine = importlib.import_module("pikit.consensus")
        for cap in sorted({*sizes, *(n + 1 for n in sizes)}):
            monkeypatch.setattr(engine, "MEMO_CAP", cap)
            folded = add_clause(kb, cl(ADDED)).result
            assert [len(table) for table in folded.memo] == [n if n < cap else 0 for n in sizes]


class TestMinimalFact:
    """`add_clause` trusts pi(X) to be minimal only when the KB says so."""

    REDUNDANT = (
        "PIKB 1\ndigest sha256:0\nstats rounds=0 consensus_attempts=0 subsumption_checks=0\n"
        "pred p/1\npred q/1\nfn a/0\n"
        "clause p(X) ; assoc ; origin input\n"
        "clause p(a)|q(a) ; assoc ; origin input\n"
        "end\n"
    )

    def test_a_loaded_kb_gets_the_full_first_residue(self):
        report = add_clause(loads_kb(self.REDUNDANT), cl("r(a)."))
        assert report.outcome == "recompiled"
        assert texts(report.result.pi) == ["p(X)", "r(a)"]
        assert report.result.stats.subsumption_checks == 7

    def test_compile_and_add_clause_set_the_fact_and_a_load_does_not(self):
        kb = base_compiled()
        folded = add_clause(kb, cl(ADDED)).result
        assert kb.minimal and folded.minimal
        assert not loads_kb(dumps_kb(folded)).minimal
        assert not loads_kb(self.REDUNDANT).minimal
        assert loads_kb(dumps_kb(folded)) == folded  # the fact takes no part in ==


class TestAddClauses:
    def test_empty_batch_returns_same_kb(self):
        kb = base_compiled()
        report = add_clauses(kb, [])
        assert report.result is kb
        assert report.outcomes == []

    def test_singleton_batch_equals_single_add(self):
        kb = base_compiled()
        batch = add_clauses(kb, [cl(ADDED)])
        single = add_clause(kb, cl(ADDED))
        assert batch.result.pi == single.result.pi
        assert entries(batch.result.pi) == entries(single.result.pi)
        assert batch.outcomes == [single.outcome]

    def test_resource_errors_carry_clause_index(self):
        kb = base_compiled()
        with pytest.raises(ResourceLimitExceeded) as err:
            add_clauses(kb, [cl("s(a)."), cl(ADDED)], ResourceLimits(max_rounds=1))
        assert err.value.clause_index == 1

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 10**9))
    def test_building_from_empty_matches_compile_on_single_clauses(self, seed):
        cfg = GenConfig(
            num_predicates=3,
            max_arity=2,
            num_variables=2,
            num_constants=2,
            clause_len_range=(1, 3),
            kb_size_range=(1, 1),
            seed=seed,
        )
        clauses = list(gen_kb(cfg))
        incremental = add_clauses(compile([]), clauses)
        batch = compile(clauses)
        assert sorted(texts(incremental.result.pi)) == sorted(texts(batch.pi))


def test_a_fold_computes_features_once_per_new_literal(monkeypatch):
    """Folding streams runs `literal_features` once per literal intern miss,
    from `Literal`'s constructor, and never from `Clause.features`, which
    only joins its literals' sets; every pikit module that binds the name
    is wrapped."""
    terms = importlib.import_module("pikit.terms")
    callers, misses = [], []
    features, enter = terms.literal_features, terms._enter_literal

    def counted_features(text, args):
        callers.append(sys._getframe(1).f_code.co_name)
        return features(text, args)

    def counted_enter(key, value):
        misses.append(key)
        return enter(key, value)

    for name, module in list(sys.modules.items()):
        if name.startswith("pikit") and hasattr(module, "literal_features"):
            monkeypatch.setattr(module, "literal_features", counted_features)
    monkeypatch.setattr(terms, "_enter_literal", counted_enter)
    outcomes = collections.Counter()
    for seed, (x, c) in enumerate(_criterion_4_instances(10)):
        try:
            kb = compile(x)
            for d in [c, *_stream(GenConfig(seed=seed, **FO_CFG))]:
                report = add_clause(kb, d)
                outcomes[report.outcome] += 1
                kb = report.result
        except ResourceLimitExceeded:
            continue
    assert outcomes["absorbed"] > 5 and outcomes["recompiled"] > 5, outcomes
    assert len(callers) == len(misses) > 100 and set(callers) == {"__new__"}


class TestAbsorption:
    """`add_clause` absorbs C exactly when `entails` says pi(X) subsumes it,
    although only `add_clause` skips members by their features."""

    @staticmethod
    def absorbed(kb, c):
        # With no round allowed, a fold that does not absorb C stops at its
        # first round.
        try:
            return add_clause(kb, c, ResourceLimits(max_rounds=0)).outcome == "absorbed"
        except ResourceLimitExceeded:
            return False

    def check(self, kb, c, loaded=None):
        """Compare on `kb` and on its reloaded copy `loaded`, whose members
        are built anew by the load; return the agreed answer."""
        expected = entails(kb, c).entailed
        for tried in (kb, loaded or loads_kb(dumps_kb(kb))):
            assert self.absorbed(tried, c) == expected, (str(c), tried.pi)
        return expected

    def test_a_shorter_clause_is_absorbed_by_a_longer_member(self):
        kb = compile([cl("p(X)|p(Y).")])
        assert self.check(kb, cl("p(a)."))
        assert not self.check(kb, cl("q(a)."))

    def test_agrees_with_entails_on_instances_and_fold_streams(self):
        answers = collections.Counter()
        for seed, (x, c) in enumerate(_criterion_4_instances(40)):
            try:
                kb = compile(x)
            except ResourceLimitExceeded:
                continue
            # A stream of eight clauses, each checked and then folded in.
            cfg = GenConfig(seed=seed, **FO_CFG)
            stream = [c, *(gen_clause(vary_seed(cfg, 3_000_017 * k)) for k in range(1, 8))]
            for d in stream:
                loaded = loads_kb(dumps_kb(kb))
                answers[self.check(kb, d, loaded)] += 1
                for m in kb.pi:
                    # A member's own clause, parsed anew unless it is $false.
                    own = cl(str(m) + ".") if m.literals else m.clause
                    assert self.check(kb, own, loaded)
                try:
                    kb = add_clause(kb, d).result
                except ResourceLimitExceeded:
                    break
        assert answers[True] > 100 and answers[False] > 100, answers


class TestEntails:
    def test_member_clause_is_entailed_with_itself_as_witness(self):
        kb = base_compiled()
        member = next(iter(kb.pi))
        answer = entails(kb, member)
        assert answer.entailed and answer.witness is member
        assert answer.substitution == EMPTY

    def test_weaker_clause_is_entailed_after_update(self):
        updated = add_clause(base_compiled(), cl(ADDED)).result
        query = cl("~p(a)|s(X).")
        answer = entails(updated, query)
        assert answer.entailed
        assert str(answer.witness) == "~p(a)"
        assert answer.substitution == EMPTY
        # Semantic cross-check by grounding over the constants.
        assert check_implicate_semantically(updated.pi, query, GroundUniverse(("a", "b")))

    def test_not_entailed_before_update(self):
        kb = base_compiled()
        answer = entails(kb, cl("~p(a)."))
        assert not answer.entailed
        assert all(subsumes(m, cl("~p(a).")) is None for m in kb.pi)

    def test_tautological_query_is_always_yes(self):
        kb = compile([])
        answer = entails(kb, cl("s(a)|~s(a)."))
        assert answer.entailed and answer.tautology

    def test_empty_kb_entails_only_tautologies(self):
        kb = compile([])
        assert not entails(kb, cl("p(a)."))

    def test_inconsistent_kb_entails_everything(self):
        kb = compile(parse_clause_file("p. ~p."))
        assert kb.inconsistent
        assert entails(kb, cl("anything(X).")).entailed


def _ground_cfg(seed):
    return GenConfig(
        num_predicates=4,
        max_arity=1,
        num_variables=0,
        num_constants=2,
        clause_len_range=(1, 3),
        kb_size_range=(2, 5),
        seed=seed,
    )


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 10**9))
def test_ground_incremental_agrees_with_batch(seed):
    """With an empty association everywhere, the two routes coincide."""
    cfg = _ground_cfg(seed)
    clauses = list(gen_kb(cfg))
    extra = gen_clause(vary_seed(cfg, 1_000_003))
    limits = ResourceLimits(max_rounds=50, max_clauses=2000)
    try:
        batch = compile(clauses + [extra], limits)
        incremental = add_clause(compile(clauses, limits), extra, limits)
    except ResourceLimitExceeded:
        return
    assert sorted(texts(batch.pi)) == sorted(texts(incremental.result.pi))


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 10**9))
def test_added_clause_is_entailed_afterwards(seed):
    cfg = GenConfig(
        num_predicates=3,
        max_arity=2,
        num_variables=3,
        num_constants=2,
        num_functions=1,
        max_term_depth=1,
        clause_len_range=(1, 3),
        kb_size_range=(2, 5),
        seed=seed,
    )
    extra = gen_clause(vary_seed(cfg, 99))
    limits = ResourceLimits(max_rounds=30, max_clauses=1500)
    try:
        report = add_clause(compile(gen_kb(cfg), limits), extra, limits)
    except ResourceLimitExceeded:
        return
    assert entails(report.result, extra).entailed


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**9))
def test_compile_is_idempotent_on_compiled_sets(seed):
    cfg = GenConfig(
        num_predicates=3,
        max_arity=2,
        num_variables=3,
        num_constants=2,
        num_functions=1,
        max_term_depth=1,
        clause_len_range=(1, 3),
        kb_size_range=(2, 5),
        seed=seed,
    )
    limits = ResourceLimits(max_rounds=30, max_clauses=1500)
    try:
        kb = compile(gen_kb(cfg), limits)
        again = compile(kb.pi, limits)
    except ResourceLimitExceeded:
        return
    assert again.pi == kb.pi and entries(again.pi) == entries(kb.pi)


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 10**9))
def test_ground_models_preserved_by_compilation(seed):
    clauses = list(gen_kb(_ground_cfg(seed)))
    kb = compile(clauses)
    assert same_models(clauses, kb.pi)


class TestKnownIncrementalDivergence:
    """The incremental route can return a coarser set than batch compilation.

    When compilation subsumes away an input clause whose association-free
    form was the only unblocked route to a later consensus, folding a new
    clause into the compiled set cannot recover that derivation: the
    surviving variant carries an association that blocks the step.  This is
    inherent to the association gating; see the README section "Incremental
    updates on first-order inputs".  Acceptance criterion 4 gates what still
    holds on every instance: the fold is sound, never stronger than batch,
    and exact when no step is blocked.
    """

    X = ["p(X).", "~p(Y)|q(Y)."]
    C = "~q(a)."

    def _both_routes(self):
        clauses = [cl(t) for t in self.X]
        batch = compile(clauses + [cl(self.C)])
        incremental = add_clause(compile(clauses), cl(self.C)).result
        return batch, incremental

    def test_divergence_is_real_and_pinned(self):
        batch, incremental = self._both_routes()
        assert sorted(texts(batch.pi)) == ["p(X)", "q(Y)", "~p(a)", "~q(a)"]
        assert sorted(texts(incremental.pi)) == ["p(X)", "q(Y)", "~q(a)"]

    @pytest.mark.xfail(
        strict=True,
        reason="association gating loses derivations through subsumed inputs; "
        "see the README section 'Incremental updates on first-order inputs'",
    )
    def test_batch_and_incremental_agree_in_general(self):
        batch, incremental = self._both_routes()
        assert sorted(texts(batch.pi)) == sorted(texts(incremental.pi))

    @pytest.mark.xfail(
        strict=True,
        reason="residue-of-closure agreement fails for the same reason; "
        "see the README section 'Incremental updates on first-order inputs'",
    )
    def test_residue_of_closure_agreement_in_general(self):
        from pikit import consensus_closure

        clauses = [cl(t) for t in self.X]
        pi = compile(clauses).pi
        with_pi = pi.copy()
        with_pi.add(cl(self.C))
        raw = ClauseSet(clauses + [cl(self.C)])
        lhs = residue(consensus_closure(with_pi).clauses).kept
        rhs = residue(consensus_closure(raw).clauses).kept
        assert sorted(texts(lhs)) == sorted(texts(rhs))

    def test_residue_of_closure_agreement_on_worked_example(self):
        from pikit import consensus_closure

        clauses = parse_clause_file(BASE_KB)
        pi = compile(clauses).pi
        with_pi = pi.copy()
        with_pi.add(cl(ADDED))
        raw = ClauseSet(clauses + [cl(ADDED)])
        lhs = residue(consensus_closure(with_pi).clauses).kept
        rhs = residue(consensus_closure(raw).clauses).kept
        assert sorted(texts(lhs)) == sorted(texts(rhs))
