"""Persistence round-trips and store validation errors."""

import json
import os
import random
import re
import stat
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings
from strategies import FO_CFG, answer, clauses, entries, substitutions

from pikit import (
    Clause,
    ClauseSet,
    CompiledKB,
    Compound,
    GenConfig,
    Literal,
    MalformedStoreError,
    ResourceLimitExceeded,
    ResourceLimits,
    SignatureConflictError,
    StoreVersionError,
    Substitution,
    Variable,
    add_clause,
    apply,
    compile,
    dumps_kb,
    entails,
    gen_clause,
    gen_kb,
    load_kb,
    loads_kb,
    parse_clause,
    parse_clause_file,
    save_kb,
    signature_of,
    subsumes,
    vary_seed,
)
import pikit.store
from pikit import syntax
from pikit.compiler import _STATS_RE
from pikit.terms import literal_features
from pikit.store import _BINDING_SPLIT_RE, _ORIGIN_RE, _SYMBOL_RE, _LoadTable

WORKED = "q(Y). ~r(f(X),b). p(X)|r(Y,b)|~q(Z)."


def worked_kb():
    kb = compile(parse_clause_file(WORKED))
    return add_clause(kb, parse_clause("~p(a)|~q(Z).")).result


def assert_same_kb(got, kb):
    assert got == kb
    assert entries(got.pi) == entries(kb.pi)


# Run as `python -c PICKLED dump|load PATH`: `dump` pickles a term, a
# member, its association, a folded KB's members and the KB, memo and all,
# to PATH; `load` unpickles them and prints, as JSON, which checks against
# the same values built afresh hold.  Terms, literals and associations are
# interned, so each one loaded is the object the loading process builds.
PICKLED = """
import json, operator, pickle, sys
from pikit import Clause, Compound, Substitution, Variable, add_clause, compile, dumps_kb, loads_kb
from pikit import parse_clause, parse_clause_file

def values():
    kb = compile(parse_clause_file("q(Y). ~r(f(X),b). p(X)|r(Y,b)|~q(Z)."))
    kb = add_clause(kb, parse_clause("~p(a)|~q(Z).")).result
    member = next(m for m in kb.pi if not m.assoc.is_empty())
    return [Compound("f", (Variable("X"),)), member, member.assoc, kb.pi, kb]

def interned(x):
    # The terms, literals and associations a value is made of.
    if isinstance(x, (Compound, Substitution)):
        return [x]
    members = [x] if isinstance(x, Clause) else list(x)
    return [v for m in members for v in (*m.literals, m.assoc)]

mode, path = sys.argv[1:]
if mode == "dump":
    with open(path, "wb") as fh:
        pickle.dump(values(), fh)
    sys.exit()
with open(path, "rb") as fh:
    got = pickle.load(fh)
fresh = values()
kb, again = got[-1], fresh[-1]
more = parse_clause("r(a,b)|s(Y).")
print(json.dumps({
    "equal": [x == y for x, y in zip(got, fresh)],
    "hash alike": [hash(x) == hash(y) for x, y in zip(got[:3], fresh[:3])],
    "one object": [
        len(interned(x)) == len(interned(y)) and all(map(operator.is_, interned(x), interned(y)))
        for x, y in zip(got[:4], fresh[:4])
    ],
    "members found": all(m in kb.pi for m in again.pi),
    "equals its store reload": kb == loads_kb(dumps_kb(kb)),
    "same store": dumps_kb(kb) == dumps_kb(again),
    "same store after a fold": dumps_kb(add_clause(kb, more).result)
    == dumps_kb(add_clause(again, more).result),
}))
"""


def run_pickled(mode, path, seed):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=str(seed))
    command = [sys.executable, "-c", PICKLED, mode, str(path)]
    return subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)


class TestRoundTrip:
    def test_worked_example_round_trips_exactly(self):
        kb = worked_kb()
        again = loads_kb(dumps_kb(kb))
        assert again == kb
        assert again.pi.members == kb.pi.members  # order, clauses, assocs
        assert entries(again.pi) == entries(kb.pi)  # and origins
        assert again.stats == kb.stats
        assert again.source_digest == kb.source_digest

    def test_dump_contains_expected_entry_lines(self):
        text = dumps_kb(compile(parse_clause_file(WORKED)))
        assert text.startswith("PIKB 1\n")
        assert "clause p(X)|r(Z,b) ; assoc Y->Z ; origin consensus(1,3)\n" in text
        assert "pred q/1\n" in text and "fn f/1\n" in text
        assert text.endswith("end\n")

    def test_inconsistent_kb_round_trips(self):
        kb = compile(parse_clause_file("p. ~p."))
        again = loads_kb(dumps_kb(kb))
        assert again.inconsistent
        assert_same_kb(again, kb)

    def test_association_binding_a_binary_term_round_trips(self):
        kb = compile(parse_clause_file("p(X)|r(X). ~p(g(a,b))|q(Y)."))
        text = dumps_kb(kb)
        assert "clause q(Y)|r(g(a,b)) ; assoc X->g(a,b) ; origin consensus(1,2)\n" in text
        assert_same_kb(loads_kb(text), kb)

    def test_several_bindings_with_commas_round_trip(self):
        a, c = Compound("a"), Compound("c")
        assoc = Substitution({"X": Compound("g", (a, c)), "Z": Compound("g", (Variable("Y"), a))})
        kb = CompiledKB(ClauseSet([Clause(parse_clause("q(Y).").literals, assoc, (1, 2))]))
        text = dumps_kb(kb)
        assert "assoc X->g(a,c),Z->g(Y,a) ;" in text
        assert_same_kb(loads_kb(text), kb)

    def test_save_and_load_files(self, tmp_path):
        kb = worked_kb()
        path = tmp_path / "kb.pikb"
        save_kb(kb, str(path))
        assert_same_kb(load_kb(str(path)), kb)
        save_kb(kb, str(path))  # overwrite in place
        assert_same_kb(load_kb(str(path)), kb)

    def test_new_store_gets_the_mode_open_would_give(self, tmp_path):
        path = tmp_path / "kb.pikb"
        umask = os.umask(0o022)
        try:
            save_kb(worked_kb(), str(path))
        finally:
            os.umask(umask)
        assert stat.S_IMODE(path.stat().st_mode) == 0o644

    def test_overwritten_store_keeps_its_mode(self, tmp_path):
        kb = worked_kb()
        path = tmp_path / "kb.pikb"
        save_kb(kb, str(path))
        path.chmod(0o640)
        umask = os.umask(0o022)
        try:
            save_kb(kb, str(path))
        finally:
            os.umask(umask)
        assert stat.S_IMODE(path.stat().st_mode) == 0o640
        assert_same_kb(load_kb(str(path)), kb)

    def test_a_kb_that_cannot_be_dumped_leaves_the_old_store(self, tmp_path):
        # A hand-built KB can use one predicate with two arities, which no
        # store can declare.
        p = [Compound("p", (Compound("a"),)), Compound("p", (Compound("a"), Compound("b")))]
        kb = CompiledKB(ClauseSet([Clause((Literal(atom),)) for atom in p]))
        with pytest.raises(ValueError) as dumped:
            dumps_kb(kb)
        path = tmp_path / "kb.pikb"
        save_kb(worked_kb(), str(path))
        store = path.read_bytes()
        with pytest.raises(ValueError) as saved:
            save_kb(kb, str(path))
        assert type(saved.value) is ValueError and str(saved.value) == str(dumped.value)
        assert os.listdir(tmp_path) == ["kb.pikb"]
        assert path.read_bytes() == store

    def test_what_one_process_pickles_another_loads_equal(self, tmp_path):
        """String hashes differ between the two hash seeds, so a value that
        kept the hash it was pickled with would compare unequal; and each
        interned value loaded must be the one the loading process builds."""
        path = tmp_path / "values.pickle"
        dumped = run_pickled("dump", path, 1)
        assert (dumped.returncode, dumped.stderr) == (0, "")
        loaded = run_pickled("load", path, 2)
        assert (loaded.returncode, loaded.stderr) == (0, "")
        assert json.loads(loaded.stdout) == {
            "equal": [True] * 5,
            "hash alike": [True] * 3,
            "one object": [True] * 4,
            "members found": True,
            "equals its store reload": True,
            "same store": True,
            "same store after a fold": True,
        }

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 10**9))
    def test_random_compiled_kbs_round_trip(self, seed):
        cfg = GenConfig(
            num_predicates=3,
            max_arity=2,
            num_variables=2,
            num_constants=2,
            num_functions=1,
            max_term_depth=1,
            clause_len_range=(1, 3),
            kb_size_range=(1, 4),
            seed=seed,
        )
        from pikit import ResourceLimitExceeded, ResourceLimits

        try:
            kb = compile(gen_kb(cfg), ResourceLimits(max_rounds=20, max_clauses=500))
        except ResourceLimitExceeded:
            return
        assert_same_kb(loads_kb(dumps_kb(kb)), kb)


# A store whose first entry is on line 9, declaring p/1, q/1, a, b and f/1.
HEADER = (
    "PIKB 1\ndigest sha256:0\nstats rounds=0 consensus_attempts=0 subsumption_checks=0\n"
    "pred p/1\npred q/1\nfn a/0\nfn b/0\nfn f/1\n"
)


def store(*entries):
    return HEADER + "".join("clause %s\n" % e for e in entries) + "end\n"


IN = " ; assoc ; origin input"
ARITY_P = "arity mismatch: predicate 'p' used with arity 2 after arity 1"
ARITY_F = "arity mismatch: function symbol 'f' used with arity 2 after arity 1"

# Each case: store entries, then the exception class and message, or the
# entries the store loads to.
ENTRY_CASES = {
    "conflict inside one entry": (
        ["p(a)|~p(a,b)" + IN],
        MalformedStoreError,
        "line 9: bad clause: line 1, col 7: " + ARITY_P,
    ),
    "conflict inside one term": (
        ["p(f(a,f(b)))" + IN],
        MalformedStoreError,
        "line 9: bad clause: line 1, col 3: " + ARITY_F,
    ),
    "predicate conflict between entries": (
        ["p(a)" + IN, "p(a,b)" + IN],
        SignatureConflictError,
        ARITY_P,
    ),
    "function conflict between entries": (
        ["p(f(a))" + IN, "q(f(a,b))" + IN],
        SignatureConflictError,
        ARITY_F,
    ),
    "binding term conflicts with a clause": (
        ["p(f(a))" + IN, "q(Y) ; assoc X->f(a,b) ; origin consensus(1,1)"],
        SignatureConflictError,
        ARITY_F,
    ),
    "conflict reported in canonical literal order": (
        ["p(a)" + IN, "q(a)" + IN, "q(a,b)|p(a,b)" + IN],
        SignatureConflictError,
        ARITY_P,
    ),
    "malformed entry wins over an earlier conflict": (
        ["p(a)" + IN, "p(a,b)" + IN, "q(a|)" + IN],
        MalformedStoreError,
        "line 11: bad clause: line 1, col 4: expected ',' or ')', found '|'",
    ),
    "dangling pipe": (
        ["p(a)|" + IN],
        MalformedStoreError,
        "line 9: bad clause: line 1, col 6: expected a predicate, found '.'",
    ),
    "comment character": (
        ["p(a)#x" + IN],
        MalformedStoreError,
        "line 9: bad clause: line 1, col 8: expected '|' or '.', found 'end of input'",
    ),
    "conflict inside a binding term": (
        ["p(a) ; assoc X->f(a,f(b)) ; origin input"],
        MalformedStoreError,
        "line 9: bad association term: line 1, col 1: " + ARITY_F,
    ),
    "undeclared predicate": (
        ["s(a)" + IN],
        SignatureConflictError,
        "predicate 's' conflicts with signature table",
    ),
    "undeclared predicates reported in canonical literal order": (
        ["t(a)|s(a)" + IN],
        SignatureConflictError,
        "predicate 's' conflicts with signature table",
    ),
    "undeclared function symbol": (
        ["p(c)" + IN],
        SignatureConflictError,
        "function symbol 'c' conflicts with signature table",
    ),
    "spaces inside a literal": (["p( a )" + IN], None, ["p(a)" + IN]),
    "literals out of canonical order": (
        ["q(a)|~p(X)|p(f(b))" + IN],
        None,
        ["p(f(b))|~p(X)|q(a)" + IN],
    ),
}


class TestStoreErrors:
    @pytest.mark.parametrize("case", sorted(ENTRY_CASES))
    def test_entry_cases(self, case):
        entries, error, expected = ENTRY_CASES[case]
        if error is None:
            kb = loads_kb(store(*entries))
            assert [m.entry_text for m in kb.pi] == expected
        else:
            with pytest.raises(error) as err:
                loads_kb(store(*entries))
            assert type(err.value) is error
            assert str(err.value) == expected

    def test_empty_store_is_malformed(self):
        with pytest.raises(MalformedStoreError) as err:
            loads_kb("")
        assert type(err.value) is MalformedStoreError and str(err.value) == "empty store"

    def test_truncated_store_is_malformed(self):
        text = dumps_kb(worked_kb())
        truncated = "".join(text.splitlines(keepends=True)[:-1])
        with pytest.raises(MalformedStoreError, match="end marker"):
            loads_kb(truncated)

    def test_version_mismatch(self):
        text = dumps_kb(worked_kb()).replace("PIKB 1", "PIKB 2", 1)
        with pytest.raises(StoreVersionError):
            loads_kb(text)

    def test_alien_header_is_malformed(self):
        with pytest.raises(MalformedStoreError):
            loads_kb("not a store\nend\n")

    def test_signature_conflict_between_table_and_entries(self):
        text = dumps_kb(worked_kb()).replace("pred q/1\n", "pred q/2\n", 1)
        with pytest.raises(SignatureConflictError):
            loads_kb(text)

    def test_conflicting_signature_lines(self):
        text = dumps_kb(worked_kb()).replace("pred q/1\n", "pred q/1\npred q/2\n", 1)
        with pytest.raises(SignatureConflictError):
            loads_kb(text)

    def test_unknown_line_kind(self):
        text = dumps_kb(worked_kb()).replace("stats ", "statistics ", 1)
        with pytest.raises(MalformedStoreError):
            loads_kb(text)

    def test_bad_stats_line(self):
        text = dumps_kb(worked_kb())
        text = text.replace("stats rounds=", "stats rounds=x", 1)
        with pytest.raises(MalformedStoreError):
            loads_kb(text)

    def test_bad_clause_entry(self):
        text = dumps_kb(worked_kb()).replace("clause q(Y) ;", "clause q(Y|) ;", 1)
        with pytest.raises(MalformedStoreError):
            loads_kb(text)

    def test_content_after_end(self):
        text = dumps_kb(worked_kb()) + "clause p(a) ; assoc ; origin input\n"
        with pytest.raises(MalformedStoreError):
            loads_kb(text)

    @pytest.mark.parametrize(
        "extra", ["stats rounds=9 consensus_attempts=0 subsumption_checks=0", "digest sha256:1"]
    )
    def test_second_digest_or_stats_line(self, extra):
        text = store("p(a)" + IN).replace("pred p/1\n", extra + "\npred p/1\n", 1)
        kind = extra.split()[0]
        with pytest.raises(MalformedStoreError, match="^line 4: second %s line$" % kind):
            loads_kb(text)

    def test_missing_digest_or_stats(self):
        lines = [l for l in dumps_kb(worked_kb()).splitlines() if not l.startswith("digest")]
        with pytest.raises(MalformedStoreError):
            loads_kb("\n".join(lines) + "\n")


class TestLossyEntries:
    def test_variable_bound_twice(self):
        with pytest.raises(MalformedStoreError, match="line 9: variable 'X' bound twice"):
            loads_kb(store("p(a) ; assoc X->a,X->b ; origin input"))

    def test_repeated_entry(self):
        with pytest.raises(MalformedStoreError, match="line 10: duplicate entry"):
            loads_kb(store("p(a)" + IN, "p(a) ; assoc ; origin consensus(1,1)"))

    def test_repeated_entry_with_literals_reordered(self):
        with pytest.raises(MalformedStoreError, match="line 10: duplicate entry"):
            loads_kb(store("p(a)|q(b)" + IN, "q(b)|p(a)" + IN))

    def test_same_clause_with_another_association_is_kept(self):
        kb = loads_kb(store("p(a)" + IN, "p(a) ; assoc X->a ; origin consensus(1,1)"))
        assert len(kb.pi) == 2

    @pytest.mark.parametrize("query", [None, "p(a).", "q(b)."])
    @pytest.mark.parametrize(
        "first, second",
        [("X->a,Y->b", "Y->b,X->a"), ("X->X,Y->b", "Y->b")],
        ids=["bindings-reordered", "identity-binding"],
    )
    def test_equal_associations_written_apart_are_one_entry(self, first, second, query):
        """Two association texts of one substitution key one entry, in a
        full load and in a query load that builds it or rules it out,
        whether the entries are read whole or field by field."""
        text = store("p(a) ; assoc %s ; origin input" % first, "p(a) ; assoc %s ; origin input" % second)
        for copy in (text, spaced(text)):
            with pytest.raises(MalformedStoreError) as err:
                loads_kb(copy, query=query and parse_clause(query))
            assert str(err.value) == "line 10: duplicate entry"

    @pytest.mark.parametrize("query, built", [(None, 2), ("p(a).", 2), ("q(b).", 0)])
    def test_unequal_associations_are_two_entries(self, query, built):
        text = store("p(a) ; assoc X->a ; origin input", "p(a) ; assoc X->b ; origin input")
        for copy in (text, spaced(text)):
            kb = loads_kb(copy, query=query and parse_clause(query))
            assert [m.entry_text for m in kb.pi] == [
                "p(a) ; assoc X->a ; origin input",
                "p(a) ; assoc X->b ; origin input",
            ][:built]


# An entry that binds X to the given term text.
AT = "p(a) ; assoc X->%s ; origin consensus(1,1)"
BAD = "line 9: bad clause: line 1, col "
BAD_TERM = "line 9: bad association term: line 1, col "
CLASH = "%s conflicts with signature table"

# Unusual entries, each loaded alone: the error class and message, or the
# members' entry texts and the signature.  Recorded from the loader that
# read every literal and bound term with the clause parser; the load table,
# which reads them by its own rule, must give the same.  The one exception
# is a `#` in a bound term, which that loader read as a comment (binding X
# to `a` for `a#b`) and which is now refused.
UNUSUAL_ENTRIES = [
    ("p()" + IN, MalformedStoreError, BAD + "3: expected a term, found ')'"),
    ("p(a,)" + IN, MalformedStoreError, BAD + "5: expected a term, found ')'"),
    ("p((a))" + IN, MalformedStoreError, BAD + "3: expected a term, found '('"),
    ("X(a)" + IN, MalformedStoreError, BAD + "1: expected a predicate, found 'X'"),
    ("p(a b)" + IN, MalformedStoreError, BAD + "5: expected ',' or ')', found 'b'"),
    ("p( a )" + IN, ["p(a)" + IN], {"p": 1}, {"a": 0}),
    ("~ p(f( X ))" + IN, ["~p(f(X))" + IN], {"p": 1}, {"f": 1}),
    ("p(f(a,a))" + IN, SignatureConflictError, CLASH % "function symbol 'f'"),
    ("p(,a)" + IN, MalformedStoreError, BAD + "3: expected a term, found ','"),
    ("p(a))" + IN, MalformedStoreError, BAD + "5: expected '|' or '.', found ')'"),
    ("p((a)" + IN, MalformedStoreError, BAD + "3: expected a term, found '('"),
    ("p(a)(b)" + IN, MalformedStoreError, BAD + "5: expected '|' or '.', found '('"),
    ("p(X(a))" + IN, MalformedStoreError, BAD + "4: expected ',' or ')', found '('"),
    ("p(f(X)" + IN, MalformedStoreError, BAD + "7: expected ',' or ')', found '.'"),
    ("~~p(a)" + IN, MalformedStoreError, BAD + "2: expected a predicate, found '~'"),
    ("~p" + IN, SignatureConflictError, CLASH % "predicate 'p'"),
    ("p(1)" + IN, MalformedStoreError, BAD + "3: unexpected character '1'"),
    ("p(a1)" + IN, SignatureConflictError, CLASH % "function symbol 'a1'"),
    ("p(_a)" + IN, MalformedStoreError, BAD + "3: unexpected character '_'"),
    ("p(a$)" + IN, MalformedStoreError, BAD + "4: unexpected character '$'"),
    ("p(a)." + IN, MalformedStoreError, BAD + "6: empty clause"),
    ("p(a)~q(b)" + IN, MalformedStoreError, BAD + "5: expected '|' or '.', found '~'"),
    ("P(a)" + IN, MalformedStoreError, BAD + "1: expected a predicate, found 'P'"),
    ("p (a)" + IN, ["p(a)" + IN], {"p": 1}, {"a": 0}),
    ("p\t(a)" + IN, ["p(a)" + IN], {"p": 1}, {"a": 0}),
    ("p(a)\xa0" + IN, ["p(a)" + IN], {"p": 1}, {"a": 0}),
    ("p(f(f(f(a))))" + IN, ["p(f(f(f(a))))" + IN], {"p": 1}, {"a": 0, "f": 1}),
    ("p(é)" + IN, MalformedStoreError, BAD + "3: unexpected character 'é'"),
    ("q(X)|~p(f(Y))" + IN, ["~p(f(Y))|q(X)" + IN], {"q": 1, "p": 1}, {"f": 1}),
    ("p(a,b)" + IN, SignatureConflictError, CLASH % "predicate 'p'"),
    ("p(f(a)) |q(b)" + IN, ["p(f(a))|q(b)" + IN], {"p": 1, "q": 1}, {"a": 0, "f": 1, "b": 0}),
    ("p(fa)" + IN, SignatureConflictError, CLASH % "function symbol 'fa'"),
    (" p(a)" + IN, ["p(a)" + IN], {"p": 1}, {"a": 0}),
    ("p(f(a)," + IN, MalformedStoreError, BAD + "8: expected a term, found '.'"),
    ("r(a)" + IN, SignatureConflictError, CLASH % "predicate 'r'"),
    ("p(a b c)" + IN, MalformedStoreError, BAD + "5: expected ',' or ')', found 'b'"),
    ("~p(X) | q(Y)" + IN, ["~p(X)|q(Y)" + IN], {"p": 1, "q": 1}, {}),
    ("p(f(X,Y))" + IN, SignatureConflictError, CLASH % "function symbol 'f'"),
    ("p(f())" + IN, MalformedStoreError, BAD + "5: expected a term, found ')'"),
    (
        "q(f(a))|~p(f(a))|p(f(a))" + IN,
        ["p(f(a))|~p(f(a))|q(f(a))" + IN],
        {"q": 1, "p": 1},
        {"a": 0, "f": 1},
    ),
    ("p(f (a))" + IN, ["p(f(a))" + IN], {"p": 1}, {"a": 0, "f": 1}),
    ("~p(f(X))|r(f(f(X)))" + IN, SignatureConflictError, CLASH % "predicate 'r'"),
    (AT % " f( a )", [AT % "f(a)"], {"p": 1}, {"a": 0, "f": 1}),
    (AT % "a#b", MalformedStoreError, BAD_TERM + "2: unexpected character '#'"),
    (AT % "a b", MalformedStoreError, BAD_TERM + "3: trailing input after term: 'b'"),
    (AT % "", MalformedStoreError, BAD_TERM + "1: expected a term, found 'end of input'"),
    (AT % "f(a,b)", SignatureConflictError, CLASH % "function symbol 'f'"),
    (AT % "f(a)", [AT % "f(a)"], {"p": 1}, {"a": 0, "f": 1}),
    (AT % "g(a)", SignatureConflictError, CLASH % "function symbol 'g'"),
    (AT % "X", ["p(a) ; assoc ; origin consensus(1,1)"], {"p": 1}, {"a": 0}),
    (AT % "f(X)", [AT % "f(X)"], {"p": 1}, {"a": 0, "f": 1}),
    (AT % "f(f(a)", MalformedStoreError, BAD_TERM + "7: expected ',' or ')', found 'end of input'"),
    (AT % " a", [AT % "a"], {"p": 1}, {"a": 0}),
    (AT % "a ", [AT % "a"], {"p": 1}, {"a": 0}),
    (AT % "Y(a)", MalformedStoreError, BAD_TERM + "2: trailing input after term: '('"),
    (AT % "~a", MalformedStoreError, BAD_TERM + "1: expected a term, found '~'"),
    (AT % "f(a))", MalformedStoreError, BAD_TERM + "5: trailing input after term: ')'"),
    (AT % "f(a,f(b))", MalformedStoreError, BAD_TERM + "1: " + ARITY_F),
    (AT % "f (f(a))", [AT % "f(f(a))"], {"p": 1}, {"a": 0, "f": 1}),
    # The fields are checked in order: the clause, then the association.
    ("p(a) ; asoc ; origin input", MalformedStoreError, "line 9: expected association field"),
    ("p(a) ; assoc ; from input", MalformedStoreError, "line 9: expected origin field"),
    ("p(a b) ; asoc ; origin input", MalformedStoreError, BAD + "5: expected ',' or ')', found 'b'"),
]


# Queries for the unusual entries: one over p, ~p and q with ground
# literals among its own, and one over r alone, which builds no entry.
UNUSUAL_QUERIES = {"query-pq": "p(a)|p(f(a))|q(b)|~p(f(Y))|q(X).", "query-r": "r(X)."}


def may_answer(entry, query):
    """Whether a query load builds the entry: the `literal_features` of each
    of its literals are among the query's features, that is, the entry's
    own features are."""
    return parse_clause(entry.split(" ; ")[0] + ".").features <= query.features


@pytest.mark.parametrize("query", [None, *UNUSUAL_QUERIES], ids=["full", *UNUSUAL_QUERIES])
@pytest.mark.parametrize("case", UNUSUAL_ENTRIES, ids=lambda case: repr(case[0]))
def test_unusual_entries_load_as_the_clause_parser_reads_them(case, query):
    entry, *expected = case
    if query is not None:
        query = parse_clause(UNUSUAL_QUERIES[query])
    if isinstance(expected[0], type):
        error, message = expected
        with pytest.raises(error) as err:
            loads_kb(store(entry), query=query)
        assert (type(err.value), str(err.value)) == (error, message)
        return
    members, predicates, functions = expected
    if query is not None:
        # Only the members that can answer the query are built.
        members = [m for m in members if may_answer(m, query)]
    kb = loads_kb(store(entry), query=query)
    assert [m.entry_text for m in kb.pi] == members
    assert (kb.signature.predicates, kb.signature.functions) == (predicates, functions)


def spaced(text):
    """A store's text with whitespace between the tokens of each entry's
    clause and bound terms, which a load must read as it reads the text."""
    lines = []
    for line in text.splitlines():
        if line.startswith("clause ") and not line.startswith("clause $false"):
            clause, assoc, origin = line[7:].split(" ; ")
            bindings = [b.split("->", 1) for b in _BINDING_SPLIT_RE.split(assoc[6:]) if b]
            terms = ["%s-> %s" % (var, " ".join(_tokens(term))) for var, term in bindings]
            assoc = "assoc " + ",".join(terms) if terms else "assoc"
            line = "clause %s ; %s ; %s" % (" ".join(_tokens(clause)), assoc, origin)
        lines.append(line + "\n")
    return "".join(lines)


def _tokens(text):
    return re.findall(r"[A-Za-z][A-Za-z0-9_]*|[(),|~]", text)


def test_a_query_load_needs_each_function_symbol_with_its_arity():
    """`q` is a function symbol in the store and a predicate in the query,
    so no `p` entry over `q(X)` can subsume the query: a load for it builds
    neither entry, and answers as the full load does."""
    text = dumps_kb(compile(parse_clause_file("p(q(X)). r(a).")))
    query = parse_clause("q(a)|p(Y).")
    full, some = loads_kb(text), loads_kb(text, query=query)
    assert (len(full.pi), len(some.pi)) == (2, 0)
    assert answer(entails(some, query)) == answer(entails(full, query))


@settings(deadline=None, max_examples=200)
@given(clauses, clauses, substitutions)
def test_a_subsumer_passes_the_feature_pre_test(c, d, sub):
    """Whenever c θ-subsumes d, c's features are among d's, and a load of
    c's entry for the query d, spaced or not, builds it."""
    text = dumps_kb(CompiledKB(ClauseSet([c])))
    instance = Clause(tuple(apply(sub, l) for l in c.literals + d.literals))
    for query in (d, instance):
        if subsumes(c, query) is None:
            continue
        assert c.features <= query.features
        for copy in (text, spaced(text)):
            assert loads_kb(copy, query=query).pi.members == (c,)


@settings(deadline=None, max_examples=100)
@given(st.lists(clauses, min_size=1, max_size=4), clauses)
def test_a_read_literal_has_the_features_of_the_built_one(members, query):
    """The table reads each literal of a store, spaced or not, to arguments
    with the `literal_features` of the literal the parser builds, which are
    that literal's `features`, and a query load keeps it exactly when those
    are among the query's."""
    text = dumps_kb(CompiledKB(ClauseSet(members)))
    for copy in (text, spaced(text)):
        for line in copy.splitlines():
            if not line.startswith("clause "):
                continue
            for piece in line[7:].split(" ; ")[0].split("|"):
                lit = parse_clause(piece + ".").literals[0]
                full, some = _LoadTable(), _LoadTable(query)
                assert full._read(piece) == some._read(piece) == lit.text
                args = full.parts[lit.text][1]
                assert literal_features(lit.text, args) == literal_features(lit.text, lit.atom.args)
                assert frozenset(literal_features(lit.text, args)) == lit.features
                assert (lit.text in some.parts) == (Clause((lit,)).features <= query.features)


def generated_stores():
    """The stores of criterion-4 seeds 0-49 compiled, each with a generated
    clause of its seed as a query."""
    for seed in range(50):
        cfg = GenConfig(seed=seed, **FO_CFG)
        try:
            kb = compile(gen_kb(cfg))
        except ResourceLimitExceeded:
            continue
        yield seed, dumps_kb(kb), gen_clause(cfg)


def test_a_load_reads_well_formed_entries_without_the_clause_parser(monkeypatch):
    """A well-formed store, spaced or not, never falls back to the clause
    parser, which would keep every output and lose the shared parses."""
    made = []
    parser_init = syntax._Parser.__init__

    def counted(self, *args, **kwargs):
        made.append(args[0])
        parser_init(self, *args, **kwargs)

    monkeypatch.setattr(syntax._Parser, "__init__", counted)
    bound = 0
    for seed, text, query in generated_stores():
        bound += "->" in text
        made.clear()
        full, some = loads_kb(text), loads_kb(text, query=query)
        assert_same_kb(loads_kb(spaced(text)), full)
        assert_same_kb(loads_kb(spaced(text), query=query), some)
        assert made == [], seed
    assert bound > 10


def test_a_query_load_builds_only_what_it_keeps(monkeypatch):
    """A query load builds no more `Substitution`s than it keeps members
    with an association, whether `dumps_kb` wrote the store or it is
    spaced."""
    built = []
    monkeypatch.setattr(pikit.store, "Substitution", lambda *a: built.append(a) or Substitution(*a))
    unkept = 0
    for seed, text, query in generated_stores():
        for copy in (text, spaced(text)):
            full = loads_kb(copy)
            built.clear()
            some = loads_kb(copy, query=query)
            bound = [m for m in some.pi if not m.assoc.is_empty()]
            assert len(built) <= len(bound), seed
            unkept += len([m for m in full.pi if not m.assoc.is_empty()]) - len(bound)
    assert unkept > 100


def renamed(text):
    """A store's text with each variable of its entries renamed to end in
    `v`, which no query names, so that a name found inside a variable's
    identifier would rule its entry out."""
    variable = re.compile(r"(?<![A-Za-z0-9_])[A-Z][A-Za-z0-9_]*")
    return "".join(
        variable.sub(r"\g<0>v", line) if line.startswith("clause ") else line
        for line in text.splitlines(keepends=True)
    )


def folded_stores():
    """The stores of criterion-4 seeds 0-49, each compiled and then folded
    once, with queries drawn as the kb-query benchmark draws them: every
    other one a member plus one literal over atoms the member lacks, the
    rest generated clauses."""
    limits = ResourceLimits(max_rounds=6, max_clauses=120)
    for seed in range(50):
        cfg = GenConfig(seed=seed, **FO_CFG)
        c = gen_clause(vary_seed(cfg, 1_000_003))
        try:
            kb = add_clause(compile(gen_kb(cfg), limits), c, limits).result
        except ResourceLimitExceeded:
            continue
        one = GenConfig(seed=seed, **dict(FO_CFG, clause_len_range=(1, 1)))
        rng = random.Random(seed)
        members = [m.clause for m in kb.pi if not m.is_empty]
        queries = []
        while len(queries) < 16:
            if len(queries) % 2 or not members:
                queries.append(gen_clause(cfg, rng))
                continue
            base, extra = rng.choice(members), gen_clause(one, rng)
            if not {l.atom for l in base} & {l.atom for l in extra}:
                queries.append(parse_clause("%s|%s." % (base, extra)))
        yield dumps_kb(kb), queries


def test_a_query_load_builds_every_member_that_can_answer():
    """A load for a query builds, in store order, a part of the full load's
    members that holds each member subsuming the query, so `entails` gives
    the same answer, witness and substitution."""
    built = loaded = yes = 0
    for text, queries in folded_stores():
        for copy in (text, spaced(text), renamed(text)):
            full = loads_kb(copy)
            for query in queries:
                some = loads_kb(copy, query=query)
                rest = iter(entries(full.pi))
                assert all(e in rest for e in entries(some.pi)), (copy, query)
                needed = [m for m in full.pi if subsumes(m, query) is not None]
                assert set(entries(needed)) <= set(entries(some.pi)), (copy, query)
                assert answer(entails(some, query)) == answer(entails(full, query))
                assert some.signature == full.signature
                built, loaded = built + len(some.pi), loaded + len(full.pi)
                yes += bool(needed)
    assert yes > 1000 and 4 * built < loaded


def reference_loads(text):
    """The store loader that parses entry by entry.

    Each clause text goes whole through `parse_clause` and each bound term
    through `parse_term`, and `signature_of` then walks the members; the KB
    keeps what that walk finds.  It rejects a variable bound twice and a
    repeated entry where it meets them, and a bound term with a `#`, which
    `parse_term` would read as a comment, before it parses the term.
    """
    from pikit import CompileStats, ParseError, Signature, parse_term

    lines = text.splitlines()
    if not lines:
        raise MalformedStoreError("empty store")
    if lines[0] != "PIKB 1":
        if lines[0].startswith("PIKB "):
            raise StoreVersionError("unsupported store version %r" % lines[0])
        raise MalformedStoreError("bad header %r" % lines[0])
    digest = stats = None
    declared = Signature()
    pi = ClauseSet()
    ended = False
    for n, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        if ended:
            raise MalformedStoreError("line %d: content after end marker" % n)
        kind, _, payload = line.partition(" ")
        if line == "end":
            ended = True
        elif kind == "digest":
            if digest is not None:
                raise MalformedStoreError("line %d: second digest line" % n)
            digest = payload
        elif kind == "stats":
            if stats is not None:
                raise MalformedStoreError("line %d: second stats line" % n)
            m = _STATS_RE.fullmatch(payload)
            if m is None:
                raise MalformedStoreError("line %d: bad stats line" % n)
            stats = CompileStats(*map(int, m.groups()))
        elif kind in ("pred", "fn"):
            m = _SYMBOL_RE.fullmatch(payload)
            if m is None:
                raise MalformedStoreError("line %d: bad signature line" % n)
            arities = declared.predicates if kind == "pred" else declared.functions
            name, arity = m.group(1), int(m.group(2))
            if arities.get(name, arity) != arity:
                raise SignatureConflictError("line %d: %s %r declared with two arities" % (n, kind, name))
            arities[name] = arity
        elif kind == "clause":
            parts = payload.split(" ; ")
            if len(parts) != 3:
                raise MalformedStoreError("line %d: expected 'clause ; assoc ; origin' entry" % n)
            clause_text, assoc_part, origin_part = parts
            if clause_text == "$false":
                clause = Clause()
            else:
                try:
                    clause = parse_clause(clause_text + ".")
                except ParseError as err:
                    raise MalformedStoreError("line %d: bad clause: %s" % (n, err))
            if assoc_part != "assoc" and not assoc_part.startswith("assoc "):
                raise MalformedStoreError("line %d: expected association field" % n)
            bindings = {}
            assoc_text = assoc_part[6:]
            for part in re.split(r",(?=[A-Z][A-Za-z0-9_]*->)", assoc_text) if assoc_text else []:
                if "->" not in part:
                    raise MalformedStoreError("line %d: bad association binding %r" % (n, part))
                var, term_text = part.split("->", 1)
                if not re.fullmatch(r"[A-Z][A-Za-z0-9_]*", var):
                    raise MalformedStoreError("line %d: bad association variable %r" % (n, var))
                if var in bindings:
                    raise MalformedStoreError("line %d: variable %r bound twice" % (n, var))
                if "#" in term_text:
                    col = term_text.index("#") + 1
                    raise MalformedStoreError(
                        "line %d: bad association term: line 1, col %d: unexpected character '#'"
                        % (n, col)
                    )
                try:
                    bindings[var] = parse_term(term_text)
                except ParseError as err:
                    raise MalformedStoreError("line %d: bad association term: %s" % (n, err))
            if not origin_part.startswith("origin "):
                raise MalformedStoreError("line %d: expected origin field" % n)
            origin = origin_part[7:]
            parents = None
            if origin != "input":
                m = _ORIGIN_RE.fullmatch(origin)
                if m is None:
                    raise MalformedStoreError("line %d: bad origin %r" % (n, origin))
                parents = (int(m.group(1)), int(m.group(2)))
            if not pi.add(Clause(clause.literals, Substitution(bindings), parents)):
                raise MalformedStoreError("line %d: duplicate entry" % n)
        else:
            raise MalformedStoreError("line %d: unknown line kind %r" % (n, kind))
    if not ended:
        raise MalformedStoreError("missing end marker (truncated store?)")
    if digest is None or stats is None:
        raise MalformedStoreError("missing digest or stats line")
    kb = CompiledKB(pi, stats, digest)
    try:
        implied = signature_of(kb)
    except ValueError as err:
        raise SignatureConflictError(str(err))
    for name, arity in implied.predicates.items():
        if declared.predicates.get(name) != arity:
            raise SignatureConflictError("predicate %r conflicts with signature table" % name)
    for name, arity in implied.functions.items():
        if declared.functions.get(name) != arity:
            raise SignatureConflictError("function symbol %r conflicts with signature table" % name)
    kb.signature = implied
    return kb


def outcome(load, text):
    try:
        kb = load(text)
    except Exception as err:  # the class and message are what is compared
        return type(err), str(err)
    return kb.pi.members, entries(kb.pi), kb.stats, kb.source_digest, kb.signature


EDIT_CHARS = "()|,~.#$ ;->\nXYZabfpqr01"


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 10**9))
def test_loader_matches_entry_by_entry_reference(seed):
    cfg = GenConfig(seed=seed, **FO_CFG)
    try:
        kb = compile(gen_kb(cfg), ResourceLimits(max_rounds=6, max_clauses=120))
    except ResourceLimitExceeded:
        return
    text = dumps_kb(kb)
    assert outcome(loads_kb, text) == outcome(reference_loads, text)
    assert_same_kb(loads_kb(text), kb)
    query = gen_clause(cfg)
    # One-character edits, three in four of them among the entries.
    rng = random.Random(seed)
    entries = text.find("\nclause ")
    if entries < 0:  # no members: every input was a tautology
        entries = text.index("\nend\n")
    for _ in range(40):
        i = rng.randrange(0 if rng.random() < 0.25 else entries, len(text))
        how = rng.choice(["replace", "insert", "delete"])
        char = rng.choice(EDIT_CHARS)
        if how == "replace":
            bad = text[:i] + char + text[i + 1 :]
        elif how == "insert":
            bad = text[:i] + char + text[i:]
        else:
            bad = text[:i] + text[i + 1 :]
        expected = outcome(reference_loads, bad)
        assert outcome(loads_kb, bad) == expected, bad
        if len(expected) == 2:
            # A load for a query fails on the same stores with the same error.
            assert outcome(lambda t: loads_kb(t, query=query), bad) == expected, bad
