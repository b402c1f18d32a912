"""End-to-end command-line behaviour: subcommands, exit codes, trace files."""

import os
import random
import re
import stat
import subprocess
import sys
from pathlib import Path

import pytest
from strategies import FO_CFG, texts

from pikit import (
    GenConfig,
    ParseError,
    ResourceLimitExceeded,
    ResourceLimits,
    StoreError,
    add_clause,
    cli,
    compile,
    dumps_kb,
    entails,
    gen_clause,
    gen_kb,
    load_kb,
    loads_kb,
    parse_clause,
    save_kb,
    signature_of,
    store,
    vary_seed,
)
from pikit.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
WORKED = "q(Y).\n~r(f(X),b).\np(X)|r(Y,b)|~q(Z).\n"


@pytest.fixture
def workspace(tmp_path):
    src = tmp_path / "kb.fol"
    src.write_text(WORKED)
    return tmp_path, src


def nested(depth):
    return "f(" * depth + "a" + ")" * depth


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def pikit(*argv):
    """Run the CLI in a new process on the package in src/."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, "-m", "pikit.cli", *map(str, argv)]
    return subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)


def full_load_query(path, text):
    """What `pikit query` gives from a full load of the store and a parse of
    the query against the store's arities: (exit code, stdout, stderr)."""
    try:
        kb = load_kb(path)
        query = parse_clause(text, kb.signature.copy())
    except (ParseError, StoreError) as err:
        return 2, "", "error: %s\n" % err
    answer = entails(kb, query)
    if not answer.entailed:
        return 1, "NO\n", ""
    if answer.tautology:
        return 0, "YES tautology\n", ""
    return 0, "YES witness=%s subst=%s\n" % (answer.witness, answer.substitution), ""


class TestCompileCommand:
    def test_compile_then_show(self, workspace, capsys):
        tmp, src = workspace
        kb = tmp / "kb.pikb"
        code, out, _ = run(capsys, "compile", src, "-o", kb)
        assert code == 0
        assert "4 prime implicates" in out
        code, out, _ = run(capsys, "show", kb)
        assert code == 0
        assert "q(Y) ; assoc ; origin input" in out
        assert "p(X)|r(Z,b) ; assoc Y->Z ; origin consensus(1,3)" in out
        assert "p(X)|~q(Z) ; assoc Y->f(X) ; origin consensus(2,3)" in out
        assert "stats: rounds=1" in out

    def test_show_output_is_deterministic(self, workspace, capsys):
        tmp, src = workspace
        kb = tmp / "kb.pikb"
        run(capsys, "compile", src, "-o", kb)
        _, first, _ = run(capsys, "show", kb)
        _, second, _ = run(capsys, "show", kb)
        assert first == second

    def test_compile_twice_writes_identical_stores(self, workspace, capsys):
        tmp, src = workspace
        kb1, kb2 = tmp / "one.pikb", tmp / "two.pikb"
        run(capsys, "compile", src, "-o", kb1)
        run(capsys, "compile", src, "-o", kb2)
        assert kb1.read_bytes() == kb2.read_bytes()

    def test_trace_file_format(self, workspace, capsys):
        tmp, src = workspace
        kb, trace = tmp / "kb.pikb", tmp / "run.trace"
        code, _, _ = run(capsys, "compile", src, "-o", kb, "--trace", trace)
        assert code == 0
        lines = trace.read_text().splitlines()
        assert lines
        pattern = re.compile(
            r"^ROUND \d+: \(\d+, \d+\) mgu=\{[^}]*\} -> (added|blocked|non_fundamental|duplicate)$"
        )
        assert all(pattern.match(line) for line in lines)

    def test_parse_error_exits_2(self, workspace, capsys):
        tmp, src = workspace
        src.write_text("p(a). p(a,b).")
        code, _, err = run(capsys, "compile", src, "-o", tmp / "kb.pikb")
        assert code == 2
        assert "arity mismatch" in err

    def test_missing_input_exits_2(self, workspace, capsys):
        tmp, _ = workspace
        code, _, err = run(capsys, "compile", tmp / "nope.fol", "-o", tmp / "kb.pikb")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "output",
        [
            "nonexistent/x.pikb",
            "somedir",
            "",
            "out/",
            "kb.pikb/",
            "link/",
            "kb.pikb/.",
            "kb.pikb/../kb.pikb",
            "kb.pikb/../kb2.pikb",
            "nonexistent/../kb.pikb",
            "link/../kb.pikb",
        ],
    )
    def test_unwritable_output_names_the_given_path(self, tmp_path, capsys, monkeypatch, output):
        work = tmp_path / "work"
        (work / "somedir").mkdir(parents=True)
        (work / "kb.fol").write_text(WORKED)
        (work / "old.fol").write_text("q(a).\n")
        monkeypatch.chdir(work)
        assert run(capsys, "compile", "old.fol", "-o", "kb.pikb")[0] == 0
        (work / "link").symlink_to("kb.pikb")
        store = (work / "kb.pikb").read_bytes()
        if output.startswith("nonexistent"):
            output = str(work / output)
        with pytest.raises(OSError) as opened:
            open(output, "w")
        dirs = (tmp_path, work, work / "somedir")
        before = [sorted(os.listdir(d)) for d in dirs]
        code, out, err = run(capsys, "compile", "kb.fol", "-o", output)
        assert (code, out) == (2, "")
        assert err == "error: %s\n" % opened.value and ".pikb-" not in err
        assert [sorted(os.listdir(d)) for d in dirs] == before
        assert (work / "kb.pikb").read_bytes() == store

    def test_deeply_nested_term_exits_2(self, workspace, capsys):
        tmp, _ = workspace
        src = tmp / "deep.fol"
        src.write_text("p(%s).\n" % nested(3000))
        code, _, err = run(capsys, "compile", src, "-o", tmp / "kb.pikb")
        assert code == 2
        assert "error: terms are nested too deeply" in err

    def test_clause_nested_400_deep_compiles_and_answers(self, workspace, capsys):
        tmp, _ = workspace
        src, kb = tmp / "deep.fol", tmp / "deep.pikb"
        clause = "p(%s)." % nested(400)
        src.write_text(clause + "\n")
        code, _, err = run(capsys, "compile", src, "-o", kb)
        assert code == 0, err
        code, out, err = run(capsys, "query", kb, clause)
        assert code == 0, err
        assert out.startswith("YES")

    # In a process of its own, as a user runs it, so that the test runner's
    # frames do not count against the parser's depth.
    @pytest.mark.parametrize("depth", [300, 480])
    def test_clauses_sharing_a_deep_literal_compile_and_answer(self, workspace, depth):
        # The pair engine indexes the base by literal, where the two
        # separately parsed copies of the deep literal meet.
        tmp, _ = workspace
        src, kb = tmp / "deep.fol", tmp / "deep.pikb"
        deep = "p(%s)" % nested(depth)
        src.write_text("%s|q(a). %s|r(a). ~q(a).\n" % (deep, deep))
        done = pikit("compile", src, "-o", kb)
        assert (done.returncode, done.stdout, done.stderr) == (
            0,
            "compiled 3 clauses -> 2 prime implicates (rounds=1)\n",
            "",
        )
        done = pikit("query", kb, "%s|s(b)." % deep)
        assert (done.returncode, done.stdout, done.stderr) == (
            0,
            "YES witness=%s subst={}\n" % deep,
            "",
        )
        done = pikit("show", kb)
        assert (done.returncode, done.stderr) == (0, "")
        members = "  1. ~q(a) ; assoc ; origin input\n  2. %s ; assoc ; origin consensus(1,3)\n"
        assert done.stdout.startswith("prime implicates (2):\n" + members % deep)

    def test_clauses_sharing_a_literal_600_deep_exit_2_at_the_parser(self, workspace):
        tmp, _ = workspace
        src = tmp / "deep.fol"
        deep = "p(%s)" % nested(600)
        src.write_text("%s|q(a). %s|r(a).\n" % (deep, deep))
        done = pikit("compile", src, "-o", tmp / "deep.pikb")
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "error: terms are nested too deeply\n"
        assert not (tmp / "deep.pikb").exists()

    def test_add_at_400_levels_recompiles_and_absorbs(self, workspace, capsys):
        # The fold compares the features of separately parsed ground literals.
        tmp, _ = workspace
        src, kb, extra = tmp / "deep.fol", tmp / "deep.pikb", tmp / "extra.fol"
        deep = "p(%s)" % nested(400)
        src.write_text("%s|q(a).\n" % deep)
        code, _, err = run(capsys, "compile", src, "-o", kb)
        assert code == 0, err
        extra.write_text(deep + ".\n")
        code, out, err = run(capsys, "add", kb, extra, "-o", tmp / "out.pikb")
        assert code == 0, err
        assert out.startswith("recompiled: %s." % deep)
        code, out, err = run(capsys, "add", kb, src, "-o", tmp / "same.pikb")
        assert code == 0, err
        assert out.startswith("absorbed: %s|q(a)." % deep)

    def test_round_limit_exits_3_and_names_limit(self, workspace, capsys):
        tmp, src = workspace
        src.write_text("p(X,a)|~q(a,f(X)). ~p(b,a)|r(b,Z). ~r(X,f(a))|q(Z,f(a)).")
        code, _, err = run(capsys, "compile", src, "-o", tmp / "kb.pikb", "--max-rounds", 1)
        assert code == 3
        assert "max-rounds" in err

    def test_clause_limit_exits_3(self, workspace, capsys):
        tmp, src = workspace
        code, _, err = run(capsys, "compile", src, "-o", tmp / "kb.pikb", "--max-clauses", 3)
        assert code == 3
        assert "max-clauses" in err

    def test_dropped_clause_is_one_warning_line(self, workspace, capsys):
        tmp, src = workspace
        src.write_text("p|~p. q(a).")
        code, out, err = run(capsys, "compile", src, "-o", tmp / "kb.pikb")
        assert code == 0
        assert out == "compiled 2 clauses -> 1 prime implicates (rounds=0)\n"
        assert err == "warning: dropping non-fundamental clause p|~p\n"

    @pytest.mark.parametrize("flag", ["--max-rounds", "--max-clauses"])
    def test_negative_limit_flag_exits_2(self, workspace, capsys, flag):
        tmp, src = workspace
        out_kb = tmp / "kb.pikb"
        code, _, err = run(capsys, "compile", src, "-o", out_kb, flag, -1)
        assert code == 2 and "must not be negative" in err
        assert not out_kb.exists()


class TestAddCommand:
    def test_add_reports_outcome_and_updates(self, workspace, capsys):
        tmp, src = workspace
        kb, out_kb = tmp / "kb.pikb", tmp / "kb2.pikb"
        run(capsys, "compile", src, "-o", kb)
        extra = tmp / "extra.fol"
        extra.write_text("~p(a)|~q(Z).\n")
        code, out, _ = run(capsys, "add", kb, extra, "-o", out_kb)
        assert code == 0
        assert "recompiled: ~p(a)|~q(Z)." in out
        assert "5 prime implicates" in out
        code, out, _ = run(capsys, "show", out_kb)
        assert "~p(a) ; assoc Y->Z ; origin consensus(1,5)" in out
        assert "r(Z,b) ; assoc X->a,Y->Z ; origin consensus(3,5)" in out

    def test_add_absorbed_and_unchanged_outcomes(self, workspace, capsys):
        tmp, src = workspace
        kb, out_kb = tmp / "kb.pikb", tmp / "kb2.pikb"
        run(capsys, "compile", src, "-o", kb)
        extra = tmp / "extra.fol"
        extra.write_text("q(a)|s(b).\ns(X)|~s(X).\n")
        code, out, _ = run(capsys, "add", kb, extra, "-o", out_kb)
        assert code == 0
        assert "absorbed: q(a)|s(b)." in out
        assert "unchanged: s(X)|~s(X)." in out

    def test_add_limit_names_the_clause_that_hit_it(self, workspace, capsys):
        tmp, src = workspace
        kb, out_kb = tmp / "kb.pikb", tmp / "kb2.pikb"
        run(capsys, "compile", src, "-o", kb)
        extra = tmp / "new.fol"
        extra.write_text("q(a).\n~p(a)|~q(Z).\n")
        code, _, err = run(capsys, "add", kb, extra, "-o", out_kb, "--max-rounds", 1)
        assert code == 3
        assert err == (
            "error: %s, clause 2: max-rounds limit (1) exceeded before reaching a fixpoint\n"
            % extra
        )
        assert not out_kb.exists()

    def test_add_into_an_inconsistent_kb(self, workspace, capsys):
        tmp, _ = workspace
        src, extra = tmp / "a.fol", tmp / "b.fol"
        src.write_text("q(a).\n")
        extra.write_text("~q(X).\n")
        kb, out_kb = tmp / "kb.pikb", tmp / "kb2.pikb"
        run(capsys, "compile", src, "-o", kb)
        code, out, _ = run(capsys, "add", kb, extra, "-o", out_kb)
        assert code == 0
        assert out.splitlines() == [
            "recompiled: ~q(X).",
            "1 prime implicates",
            "inconsistent: the prime implicates reduce to the empty clause",
        ]
        code, out, _ = run(capsys, "show", out_kb)
        assert code == 0
        assert "stats: rounds=2 consensus_attempts=1 subsumption_checks=8" in out.splitlines()

    def test_add_through_a_symlink_writes_the_target(self, workspace, capsys):
        tmp, _ = workspace
        src, extra = tmp / "a.fol", tmp / "b.fol"
        src.write_text("q(a).\n")
        extra.write_text("r(b).\n")
        (tmp / "real").mkdir()
        target, link = tmp / "real" / "kb.pikb", tmp / "link.pikb"
        run(capsys, "compile", src, "-o", target)
        target.chmod(0o640)
        os.symlink(os.path.join("real", "kb.pikb"), link)
        code, _, _ = run(capsys, "add", link, extra, "-o", link)
        assert code == 0
        assert link.is_symlink() and os.readlink(link) == os.path.join("real", "kb.pikb")
        assert texts(load_kb(str(target)).pi) == ["q(a)", "r(b)"]
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert [p.name for p in (tmp / "real").iterdir()] == ["kb.pikb"]  # no temp file left

    def test_add_onto_missing_kb_exits_2(self, workspace, capsys):
        tmp, src = workspace
        code, _, err = run(capsys, "add", tmp / "nope.pikb", src, "-o", tmp / "x.pikb")
        assert code == 2

    def test_add_with_conflicting_arity_exits_2(self, workspace, capsys):
        tmp, src = workspace
        kb = tmp / "kb.pikb"
        run(capsys, "compile", src, "-o", kb)
        extra = tmp / "extra.fol"
        extra.write_text("p(a,b).\n")  # KB committed to p/1
        code, _, err = run(capsys, "add", kb, extra, "-o", tmp / "out.pikb")
        assert code == 2
        assert "arity mismatch" in err

    def test_add_parses_against_the_loaded_arities(self, workspace, capsys, monkeypatch):
        tmp, src = workspace
        kb, out_kb = tmp / "kb.pikb", tmp / "kb2.pikb"
        run(capsys, "compile", src, "-o", kb)

        def walk(kb):
            raise AssertionError("the store load has collected the arities already")

        monkeypatch.setattr(cli, "signature_of", walk, raising=False)
        extra = tmp / "extra.fol"
        extra.write_text("~p(a)|~q(Z).\ns(g(a,b)).\n")
        code, out, _ = run(capsys, "add", kb, extra, "-o", out_kb)
        assert code == 0
        assert "recompiled: ~p(a)|~q(Z)." in out and "recompiled: s(g(a,b))." in out
        assert "pred s/1\nfn a/0\nfn b/0\nfn f/1\nfn g/2\n" in out_kb.read_text()

    def test_negative_round_limit_exits_2(self, workspace, capsys):
        tmp, src = workspace
        kb, out_kb = tmp / "kb.pikb", tmp / "kb2.pikb"
        run(capsys, "compile", src, "-o", kb)
        extra = tmp / "extra.fol"
        extra.write_text("~p(a)|~q(Z).\n")
        code, _, err = run(capsys, "add", kb, extra, "-o", out_kb, "--max-rounds", -2)
        assert code == 2 and "max-rounds limit (-2)" in err
        assert not out_kb.exists()


class TestQueryCommand:
    def test_entailed_query_yes_exit_0(self, workspace, capsys):
        tmp, src = workspace
        kb, kb2 = tmp / "kb.pikb", tmp / "kb2.pikb"
        run(capsys, "compile", src, "-o", kb)
        extra = tmp / "extra.fol"
        extra.write_text("~p(a)|~q(Z).\n")
        run(capsys, "add", kb, extra, "-o", kb2)
        code, out, _ = run(capsys, "query", kb2, "~p(a)|s(X).")
        assert code == 0
        assert out.startswith("YES")
        assert "witness=~p(a)" in out

    def test_unentailed_query_no_exit_1(self, workspace, capsys):
        tmp, src = workspace
        kb = tmp / "kb.pikb"
        run(capsys, "compile", src, "-o", kb)
        code, out, _ = run(capsys, "query", kb, "~p(a).")
        assert code == 1
        assert out.strip() == "NO"

    def test_tautology_query_yes(self, workspace, capsys):
        tmp, src = workspace
        kb = tmp / "kb.pikb"
        run(capsys, "compile", src, "-o", kb)
        code, out, _ = run(capsys, "query", kb, "s(a)|~s(a).")
        assert code == 0
        assert "tautology" in out

    def test_query_parse_error_exit_2(self, workspace, capsys):
        tmp, src = workspace
        kb = tmp / "kb.pikb"
        run(capsys, "compile", src, "-o", kb)
        code, _, err = run(capsys, "query", kb, "p(a)")
        assert code == 2

    def test_deeply_nested_query_exits_2(self, workspace, capsys):
        tmp, src = workspace
        kb = tmp / "kb.pikb"
        run(capsys, "compile", src, "-o", kb)
        code, out, err = run(capsys, "query", kb, "q(%s)." % nested(3000))
        assert code == 2
        assert out == ""
        assert "error: terms are nested too deeply" in err

    def test_query_with_conflicting_arity_exits_2(self, workspace, capsys):
        tmp, src = workspace
        kb = tmp / "kb.pikb"
        run(capsys, "compile", src, "-o", kb)
        code, _, err = run(capsys, "query", kb, "q(a,b).")  # KB committed to q/1
        assert code == 2
        assert "arity mismatch" in err

    def test_query_walks_no_signature_on_a_clean_store(self, workspace, capsys, monkeypatch):
        tmp, src = workspace
        kb = tmp / "kb.pikb"
        run(capsys, "compile", src, "-o", kb)

        def walk(kb):
            raise AssertionError("the store load has collected the arities already")

        monkeypatch.setattr(cli, "signature_of", walk, raising=False)
        monkeypatch.setattr(store, "signature_of", walk)
        code, out, _ = run(capsys, "query", kb, "p(a)|r(Y,b).")
        assert (code, out) == (0, "YES witness=p(X)|r(Z,b) subst={X->a,Z->Y}\n")
        code, _, err = run(capsys, "query", kb, "q(a,b).")
        assert code == 2 and "arity mismatch" in err

    def test_query_symbols_leave_the_loaded_arities_alone(self, workspace, capsys, monkeypatch):
        tmp, src = workspace
        kb_path = tmp / "kb.pikb"
        run(capsys, "compile", src, "-o", kb_path)
        loaded = []

        def load(path, **kwargs):
            loaded.append(load_kb(path, **kwargs))
            return loaded[-1]

        monkeypatch.setattr(cli, "load_kb", load)
        code, out, _ = run(capsys, "query", kb_path, "s(g(a,b))|q(a).")
        assert (code, out) == (0, "YES witness=q(Y) subst={Y->a}\n")
        # The query loads only the members that can answer it, with the
        # whole store's arities.
        full = load_kb(kb_path)
        sig = loaded[0].signature
        assert sig == full.signature == signature_of(full)
        assert "s" not in sig.predicates and "g" not in sig.functions

    def test_added_clause_is_always_entailed_afterwards(self, workspace, capsys):
        tmp, src = workspace
        kb, kb2 = tmp / "kb.pikb", tmp / "kb2.pikb"
        run(capsys, "compile", src, "-o", kb)
        extra = tmp / "extra.fol"
        extra.write_text("~p(a)|~q(Z).\n")
        run(capsys, "add", kb, extra, "-o", kb2)
        code, out, _ = run(capsys, "query", kb2, "~p(a)|~q(Z).")
        assert code == 0 and out.startswith("YES")


# A store whose first entry, `q(X)`, is on line 9, declaring p/1, q/1, a, b
# and f/1.
STORE_HEAD = (
    "PIKB 1\ndigest sha256:0\nstats rounds=0 consensus_attempts=0 subsumption_checks=0\n"
    "pred p/1\npred q/1\nfn a/0\nfn b/0\nfn f/1\nclause q(X) ; assoc ; origin input\n"
)
IN = " ; assoc ; origin input"

# Faults on entries over `p` alone, which a query over `q` alone does not
# build.  Neither do two queries over `p` whose names or ground literals
# the entries lack: `p(g(X)).` names no constant and no `f`, and no entry
# is `p(g(a,b,c,d))`, while each is ground or names `f`.
NOT_BUILT_FAULTS = {
    "bad character": ["p($)" + IN],
    "arity clash with the table": ["p(a,b)" + IN],
    "undeclared symbol": ["p(c)" + IN],
    "undeclared symbols named in canonical order": ["p(d)|p(c)" + IN],
    "predicate clash between entries": ["p(a)" + IN, "p(a,b)" + IN],
    "function clash between entries": ["p(f(a))" + IN, "p(f(a,b))" + IN],
    "binding clashes with an entry": ["p(f(a))" + IN, "p(b) ; assoc X->f(a,b) ; origin input"],
    "duplicate": ["p(a)|p(b)" + IN, "p(a)|p(b)" + IN],
    "duplicate with literals reordered": ["p(a)|p(b)" + IN, "p(b)|p(a)" + IN],
    "duplicate with inner spaces": ["p(a)|p(b)" + IN, "p( a )|p(b )" + IN],
    "duplicate with spaces after its heads": ["p(a)|p(b)" + IN, "p (a)|p (b)" + IN],
    "spaced duplicate first": ["p (a)|p (b)" + IN, "p(a)|p(b)" + IN],
    "duplicate of a built entry": ["q( X )" + IN],
    "bad association variable": ["p(a) ; assoc x->a ; origin input"],
    "variable bound twice": ["p(f(X)) ; assoc Y->a,Y->b ; origin input"],
    "bad binding term": ["p(f(X)) ; assoc Y->f( ; origin input"],
    "bad origin": ["p(a) ; assoc ; origin consensus(1)"],
    "misspelt association field": ["p(a) ; asoc ; origin input"],
    "misspelt origin field": ["p(a) ; assoc ; from input"],
    "bad clause before a bad field": ["p(a b) ; asoc ; origin input"],
    "empty piece": ["p(a)||p(b)" + IN],
    "comment character": ["p(a)#" + IN],
    "missing field": ["p(a) ; assoc"],
}


class TestQueryBuildsOnlyCandidates:
    """`pikit query` checks every entry but builds only those that can answer."""

    @pytest.mark.parametrize("fault", sorted(NOT_BUILT_FAULTS))
    @pytest.mark.parametrize(
        "query",
        ["q(a).", "~q(b)|q(f(a)).", "p(a)|q(a).", "s(a).", "p(g(X)).", "p(g(a,b,c,d))."],
    )
    def test_store_errors_on_entries_not_built(self, tmp_path, capsys, fault, query):
        path = tmp_path / "kb.pikb"
        good = "clause p(f(b))|q(b)%s\n" % IN
        lines = "".join("clause %s\n" % e for e in NOT_BUILT_FAULTS[fault])
        path.write_text(STORE_HEAD + good + lines + good.replace("b", "a") + "end\n")
        expected = full_load_query(path, query)
        assert expected[0] == 2
        assert run(capsys, "query", path, query) == expected

    def test_an_entry_whose_heads_are_spaced_still_answers(self, tmp_path, capsys):
        # `~ q (X)` reads as `~q(X)`, though its text does not begin so.
        path = tmp_path / "kb.pikb"
        entries = "".join("clause %s%s\n" % (e, IN) for e in ["p(a)|~q(b)", "~ q (X)|p (X)"])
        path.write_text(STORE_HEAD.replace("q(X)", "q(b)") + entries + "end\n")
        for query, binding in [("p(a)|~q(a).", "a"), ("~q(f(a))|p(f(a)).", "f(a)")]:
            expected = (0, "YES witness=p(X)|~q(X) subst={X->%s}\n" % binding, "")
            assert full_load_query(path, query) == expected
            assert run(capsys, "query", path, query) == expected

    def test_an_entry_with_a_spaced_head_outside_the_query_is_not_built(self, tmp_path, capsys):
        path = tmp_path / "kb.pikb"
        head = STORE_HEAD.replace("pred q/1\n", "pred q/1\npred r/1\n")
        path.write_text(head + "clause ~ r (X)|p (X)%s\nend\n" % IN)
        for query, built in [("p(a)|q(a).", ["q(X)"]), ("p(b).", [])]:
            kb = load_kb(path, query=parse_clause(query))
            assert [str(m) for m in kb.pi] == built
            assert run(capsys, "query", path, query) == full_load_query(path, query)

    def test_an_entry_ruled_out_only_by_a_name_or_a_ground_literal_is_not_built(
        self, tmp_path, capsys
    ):
        # Under `p(a)|q(b).`, `p(f(X))` has the query's head but names `f`,
        # and `p(b)` has its head and names but is no literal of it.
        path = tmp_path / "kb.pikb"
        entries = "".join("clause %s%s\n" % (e, IN) for e in ["p(f(X))", "p(b)", "p(X)"])
        path.write_text(STORE_HEAD + entries + "end\n")
        for query, built in [
            ("p(a)|q(b).", ["q(X)", "p(X)"]),
            ("p(f(a))|p(b).", ["p(f(X))", "p(b)", "p(X)"]),
            ("p(f(a))|q(a).", ["q(X)", "p(f(X))", "p(X)"]),
            ("p(b)|p(a).", ["p(b)", "p(X)"]),
        ]:
            kb = load_kb(path, query=parse_clause(query))
            assert [str(m) for m in kb.pi] == built
            assert run(capsys, "query", path, query) == full_load_query(path, query)

    def test_query_errors_come_after_store_errors(self, tmp_path, capsys):
        path = tmp_path / "kb.pikb"
        path.write_text(STORE_HEAD + "clause p(a,b)%s\nend\n" % IN)
        for query in ["q(a", "q(a,b).", "p(a).", "q(%s)." % nested(3000)]:
            code, out, err = run(capsys, "query", path, query)
            assert (code, out, err) == full_load_query(path, query)
            assert err == "error: predicate 'p' conflicts with signature table\n"
        path.write_text(STORE_HEAD + "end\n")
        for query in ["q(a", "q(a,b).", "p(a,b)|q(b,a)."]:
            assert run(capsys, "query", path, query) == full_load_query(path, query)

    def test_answers_match_a_full_load_on_generated_stores(self, tmp_path, capsys):
        path = tmp_path / "kb.pikb"
        limits = ResourceLimits(max_rounds=6, max_clauses=120)
        asked = yes = 0
        for seed in range(40):
            # A criterion-4 instance: X compiled, then C folded in.
            cfg = GenConfig(seed=seed, **FO_CFG)
            c = gen_clause(vary_seed(cfg, 1_000_003))
            try:
                kb = add_clause(compile(gen_kb(cfg), limits), c, limits).result
            except ResourceLimitExceeded:
                continue
            save_kb(kb, path)
            rng = random.Random(seed)
            members = [m.clause for m in kb.pi if not m.is_empty]
            queries = [c] + members + [gen_clause(cfg, rng) for _ in range(6)]
            queries += ["%s|%s" % (m, gen_clause(cfg, rng)) for m in members]
            for query in queries:
                text = "%s." % query
                expected = full_load_query(path, text)
                assert run(capsys, "query", path, text) == expected, (seed, text)
                asked += 1
                yes += expected[0] == 0
        assert asked > 400 and 0.2 < yes / asked < 0.9


class TestShowCommand:
    def test_inconsistent_marker(self, workspace, capsys):
        tmp, _ = workspace
        src = tmp / "unsat.fol"
        src.write_text("p. ~p.")
        kb = tmp / "kb.pikb"
        code, out, _ = run(capsys, "compile", src, "-o", kb)
        assert "inconsistent" in out
        code, out, _ = run(capsys, "show", kb)
        assert code == 0
        assert "$false" in out and "inconsistent" in out

    def test_show_reads_association_binding_a_binary_term(self, workspace, capsys):
        tmp, _ = workspace
        src = tmp / "binary.fol"
        src.write_text("p(X)|r(X).\n~p(g(a,b))|q(Y).\n")
        kb = tmp / "kb.pikb"
        code, _, _ = run(capsys, "compile", src, "-o", kb)
        assert code == 0
        code, out, _ = run(capsys, "show", kb)
        assert code == 0
        assert "q(Y)|r(g(a,b)) ; assoc X->g(a,b) ; origin consensus(1,2)" in out

    def test_second_stats_line_exits_2(self, workspace, capsys):
        tmp, src = workspace
        kb = tmp / "kb.pikb"
        run(capsys, "compile", src, "-o", kb)
        extra = "stats rounds=9 consensus_attempts=0 subsumption_checks=0\n"
        kb.write_text(kb.read_text().replace("\npred ", "\n" + extra + "pred ", 1))
        for argv in (["show", kb], ["query", kb, "q(a)."]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert "line 4: second stats line" in err

    def test_a_hash_in_a_bound_term_exits_2_in_every_command(self, tmp_path, capsys):
        # The parser reads a `#` as a comment, which would bind X to `a`.
        path, extra, out_kb = tmp_path / "kb.pikb", tmp_path / "extra.fol", tmp_path / "out.pikb"
        path.write_text(STORE_HEAD + "clause p(a) ; assoc X->a#b ; origin consensus(1,1)\nend\n")
        extra.write_text("p(b).\n")
        message = "error: line 10: bad association term: line 1, col 2: unexpected character '#'\n"
        for argv in (
            ["query", path, "p(a)."],
            ["query", path, "q(a)."],
            ["show", path],
            ["add", path, extra, "-o", out_kb],
        ):
            assert run(capsys, *argv) == (2, "", message), argv
        assert not out_kb.exists()

    def test_empty_store_exits_2_in_show_and_query(self, tmp_path, capsys):
        empty = tmp_path / "empty.pikb"
        empty.write_text("")
        for argv in (["show", empty], ["query", empty, "q(a)."]):
            assert run(capsys, *argv) == (2, "", "error: empty store\n"), argv

    def test_show_malformed_store_exits_2(self, workspace, capsys):
        tmp, _ = workspace
        bad = tmp / "bad.pikb"
        bad.write_text("PIKB 1\ndigest x\n")
        code, _, err = run(capsys, "show", bad)
        assert code == 2


def test_one_symbol_as_predicate_and_function_symbol(tmp_path, capsys):
    """An atom is a compound over its predicate, yet `p` as a predicate and
    `p` as a function symbol keep their own arities, in the store and on
    every later parse."""
    src, kb = tmp_path / "kb.fol", tmp_path / "kb.pikb"
    src.write_text("p(p(a)).\n~p(X)|q(X).\n")
    code, _, _ = run(capsys, "compile", src, "-o", kb)
    assert code == 0
    text = kb.read_text()
    assert "\npred p/1\n" in text and "\nfn p/1\n" in text
    assert dumps_kb(loads_kb(text)) == text
    code, out, _ = run(capsys, "query", kb, "q(p(a)).")
    assert code == 0 and out.startswith("YES")
    extra = tmp_path / "extra.fol"
    extra.write_text("q(p(a,b)).\n")
    code, _, err = run(capsys, "add", kb, extra, "-o", tmp_path / "out.pikb")
    assert code == 2
    assert "arity mismatch: function symbol 'p' used with arity 2 after arity 1" in err
