"""End-to-end command-line behaviour: subcommands, exit codes, trace files."""

import os
import re
import stat

import pytest

from pikit import cli, dumps_kb, load_kb, loads_kb, signature_of, store
from pikit.cli import main

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
        assert load_kb(str(target)).pi.clause_texts() == ["q(a)", "r(b)"]
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

        def load(path):
            loaded.append(load_kb(path))
            return loaded[-1]

        monkeypatch.setattr(cli, "load_kb", load)
        code, out, _ = run(capsys, "query", kb_path, "s(g(a,b))|q(a).")
        assert (code, out) == (0, "YES witness=q(Y) subst={Y->a}\n")
        sig = loaded[0].signature
        assert sig == signature_of(loaded[0])
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
