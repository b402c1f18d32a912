"""The whole lifecycle as one state machine: compile, fold, store, query.

The other test files check one layer each.  Here Hypothesis chains the
steps a user chains, over criterion-4 clauses: compile a KB, fold clauses
into it, dump and load it, save and load it in a directory, and query,
show and extend it through the command line.  After each step it checks
the invariants that tie the layers together:

- a store round trip gives an equal KB that dumps to the same bytes;
- a load for one query gives the same answer, witness and substitution
  as a full load;
- after a fold, every member of the KB before it is entailed by the result;
- an absorbed or tautological clause returns the input KB object;
- `pikit query` exits 0 or 1 as `entails` answers;
- `pikit add` under a limit exits 3 and writes no output.
"""

import contextlib
import io
import os
import tempfile

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule

from pikit import (
    Clause,
    Compound,
    GenConfig,
    Literal,
    ResourceLimitExceeded,
    ResourceLimits,
    Substitution,
    add_clause,
    apply,
    compile,
    dumps_kb,
    entails,
    gen_clause,
    gen_kb,
    load_kb,
    loads_kb,
    save_kb,
)
from pikit.cli import main

from strategies import FO_CFG, answer, clause_file, entries

LIMITS = ResourceLimits(max_rounds=20, max_clauses=300)
seeds = st.integers(0, 10**6)
# Binds two of the generated clauses' variables, so that a query built from
# a member is an instance of it, and its witness substitution is not empty.
INSTANCE = Substitution({"X": Compound("a"), "Y": Compound("f", (Compound("b"),))})


def generated(seed):
    return gen_clause(GenConfig(seed=seed, **FO_CFG))


def tautology(seed):
    """A generated clause with the complement of its first literal added."""
    c = generated(seed)
    first = c.literals[0]
    return Clause((*c.literals, Literal(first.atom, not first.positive)))


class Lifecycle(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dir = tempfile.TemporaryDirectory()
        self.store = os.path.join(self.dir.name, "kb.pikb")
        self.kb = compile([])

    def teardown(self):
        self.dir.cleanup()

    def path(self, name):
        return os.path.join(self.dir.name, name)

    def cli(self, *argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        return code, out.getvalue(), err.getvalue()

    def saved(self):
        """The current KB's store, saved as `pikit` would."""
        save_kb(self.kb, self.store)
        return self.store

    @initialize(seed=st.integers(0, 499))
    def start(self, seed):
        self.compile_kb(seed)

    @rule(seed=st.integers(0, 499))
    def compile_kb(self, seed):
        try:
            self.kb = compile(gen_kb(GenConfig(seed=seed, **FO_CFG)), LIMITS)
        except ResourceLimitExceeded:
            pass

    def fold(self, clause, expected=None):
        before = self.kb
        try:
            report = add_clause(before, clause, LIMITS)
        except ResourceLimitExceeded:
            return
        assert expected in (None, report.outcome), (expected, report.outcome)
        if report.outcome == "recompiled":
            for m in before.pi:
                assert entails(report.result, m), "%s lost %s" % (report.result.pi, m)
        else:
            assert report.result is before, report.outcome
        self.kb = report.result

    @rule(seed=seeds)
    def add(self, seed):
        self.fold(generated(seed))

    @precondition(lambda self: len(self.kb.pi) > 0)
    @rule(data=st.data())
    def add_a_member(self, data):
        member = data.draw(st.sampled_from(self.kb.pi.members))
        self.fold(member.clause, "absorbed")

    @rule(seed=seeds)
    def add_a_tautology(self, seed):
        self.fold(tautology(seed), "unchanged")

    @rule()
    def dump_and_load(self):
        text = dumps_kb(self.kb)
        again = loads_kb(text)
        assert again == self.kb and entries(again.pi) == entries(self.kb.pi)
        assert dumps_kb(again) == text

    @rule()
    def save_and_load(self):
        # The loaded KB carries no memo and is not marked minimal, so the
        # folds after this step take the paths of a `pikit add` process.
        again = load_kb(self.saved())
        assert again == self.kb and entries(again.pi) == entries(self.kb.pi)
        with open(self.store, encoding="utf-8") as fh:
            assert fh.read() == dumps_kb(again) == dumps_kb(self.kb)
        self.kb = again

    @rule(kind=st.sampled_from(["clause", "member", "tautology"]), seed=seeds)
    def query(self, kind, seed):
        if kind == "member" and not self.kb.inconsistent and len(self.kb.pi):
            member = self.kb.pi.members[seed % len(self.kb.pi)]
            q = Clause(tuple(apply(INSTANCE, l) for l in member.literals))
        elif kind == "tautology":
            q = tautology(seed)
        else:
            q = generated(seed)
        text = dumps_kb(self.kb)
        full = entails(loads_kb(text), q)
        assert answer(entails(loads_kb(text, query=q), q)) == answer(full)
        assert answer(entails(self.kb, q)) == answer(full)
        code, out, err = self.cli("query", self.saved(), "%s." % q)
        if full.tautology:
            expected = "YES tautology\n"
        elif full.entailed:
            expected = "YES witness=%s subst=%s\n" % (full.witness, full.substitution)
        else:
            expected = "NO\n"
        assert (code, out, err) == (0 if full.entailed else 1, expected, "")

    @rule()
    def show(self):
        code, out, err = self.cli("show", self.saved())
        lines = ["prime implicates (%d):" % len(self.kb.pi)]
        lines += ["  %d. %s" % (i, m.entry_text) for i, m in enumerate(self.kb.pi, 1)]
        if self.kb.inconsistent:
            lines.append("inconsistent: the prime implicates reduce to the empty clause")
        lines += ["stats: %s" % self.kb.stats.format(), "digest: %s" % self.kb.source_digest]
        assert (code, out, err) == (0, "".join(line + "\n" for line in lines), "")

    @rule(seed=seeds)
    def add_with_no_rounds(self, seed):
        """`pikit add --max-rounds 0` folds a clause that needs no round
        and stops, with exit 3, at one that needs a round."""
        clause = generated(seed)
        source = self.path("new.fol")
        with open(source, "w", encoding="utf-8") as fh:
            fh.write(clause_file([clause]))
        output = self.path("out.pikb")
        with contextlib.suppress(FileNotFoundError):
            os.remove(output)
        code, out, err = self.cli(
            "add", self.saved(), source, "-o", output, "--max-rounds", "0"
        )
        try:
            report = add_clause(self.kb, clause, ResourceLimits(max_rounds=0))
        except ResourceLimitExceeded:
            assert (code, out) == (3, ""), (code, out, err)
            assert "max-rounds limit (0)" in err
            assert not os.path.exists(output)
            return
        assert report.result is self.kb
        assert (code, err) == (0, "") and out.startswith("%s: %s.\n" % (report.outcome, clause))
        with open(output, "rb") as new, open(self.store, "rb") as old:
            assert new.read() == old.read()


Lifecycle.TestCase.settings = settings(max_examples=40, stateful_step_count=25, deadline=None)
TestLifecycle = Lifecycle.TestCase
