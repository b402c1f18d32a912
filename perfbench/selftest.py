"""Tests of the benchmark itself: its checks can fail, and its runs repeat.

    python3 -m pytest perfbench/selftest.py -q

Each check is fed a real pikit output that passes, then a corrupted copy
that must not.  The determinism tests run every workload at reduced size
in a fresh process under two hash seeds and compare the work counters and
the output digest.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import pikit as pk  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

FALSE = checks.FALSE


def _entries(kb):
    """The KB's member clauses, and whether each association is empty."""
    return workloads._entries(workloads._members(kb))


def _without_consensus(clauses):
    """The residue of ``clauses`` alone: what a compiler that skipped every
    consensus would return."""
    return [
        c
        for i, c in enumerate(clauses)
        if not any(
            checks.subsumes(d, c) and (j < i or not checks.subsumes(c, d))
            for j, d in enumerate(clauses)
            if j != i
        )
    ]


def _sole_coverer(targets, members):
    """Index of a member that is the only one subsuming some target."""
    for t in targets:
        covering = [i for i, m in enumerate(members) if checks.subsumes(m, t)]
        if len(covering) == 1:
            return covering[0]
    raise AssertionError("no target has a single covering member")


@pytest.fixture(scope="module")
def compiled():
    # Seed 10: saturation turns six inputs into twelve members, and the
    # inputs have a constant-predicate model.
    texts = [str(m.clause) + "." for m in pk.gen_kb(pk.GenConfig(seed=10, **workloads.FO_CFG))]
    inputs = [checks.parse_clause(t) for t in texts]
    members, free = _entries(pk.compile([pk.parse_clause(t) for t in texts]))
    assert checks.check_compiled(inputs, members, free) == []
    return inputs, members, free


def test_compile_check_rejects_false_appended(compiled):
    inputs, members, free = compiled
    assert checks.check_compiled(inputs, members + [FALSE], free + [True])


def test_compile_check_rejects_member_dropped(compiled):
    inputs, members, free = compiled
    i = _sole_coverer(inputs, members)
    assert checks.check_compiled(inputs, members[:i] + members[i + 1:], free[:i] + free[i + 1:])


def test_compile_check_rejects_member_false_in_a_model(compiled):
    inputs, members, free = compiled
    model = checks.constant_models(inputs, checks.predicates_of(inputs))[0]
    wrong = frozenset([(not model["p"], ("p", ("X",)))])
    assert checks.check_compiled(inputs, [wrong] + members[1:], [False] + free[1:])


def test_compile_check_rejects_non_fundamental_and_subsumed_members(compiled):
    inputs, members, free = compiled
    taut = frozenset([(True, ("p", ("X",))), (False, ("p", ("X",)))])
    assert checks.check_compiled(inputs, members + [taut], free + [False])
    weaker = members[0] | {(True, ("zz", ()))}
    assert checks.check_compiled(inputs, members + [weaker], free + [False])


def test_compile_check_rejects_result_without_consensus(compiled):
    inputs, members, free = compiled
    alone = _without_consensus(inputs)
    problems = checks.check_compiled(inputs, alone, [True] * len(alone))
    assert any("consensus" in p for p in problems), problems


@pytest.fixture(scope="module")
def fold():
    """A recompiled fold of a real stream, with the KB before it."""
    """A fold of a real stream that derives a member, with the KB before it."""
    stream = workloads.Stream(pk, 1, 3, 10)
    kb = pk.loads_kb(stream.base_store)
    for text in stream.fold_texts:
        report = pk.add_clause(kb, pk.parse_clause(text))
        previous, previous_free = _entries(kb)
        members, free = _entries(report.result)
        clause = checks.parse_clause(text)
        if not set(members) <= set(previous) | {clause}:
            assert checks.check_fold(previous, clause, members, free, stream.hidden) == []
            return previous, previous_free, clause, members, free, stream.hidden
        kb = report.result
    raise AssertionError("stream has no fold that derives a member")


def test_fold_check_rejects_false_appended(fold):
    previous, _, clause, members, free, hidden = fold
    assert checks.check_fold(previous, clause, members + [FALSE], free + [True], hidden)


def test_fold_check_rejects_member_dropped(fold):
    previous, _, clause, members, free, hidden = fold
    i = _sole_coverer([clause] + previous, members)
    assert checks.check_fold(
        previous, clause, members[:i] + members[i + 1:], free[:i] + free[i + 1:], hidden
    )


def test_fold_check_rejects_member_false_in_hidden_interpretation(fold):
    previous, _, clause, members, free, hidden = fold
    wrong = frozenset([(not hidden["q"], ("q", ("X", "Y")))])
    assert checks.check_fold(previous, clause, members + [wrong], free + [True], hidden)


def test_fold_check_rejects_result_without_consensus(fold):
    previous, previous_free, clause, _, _, hidden = fold
    free_of = dict(zip(previous, previous_free))
    free_of[clause] = True
    alone = _without_consensus(previous + [clause])
    problems = checks.check_fold(previous, clause, alone, [free_of[c] for c in alone], hidden)
    assert any("consensus" in p for p in problems), problems


@pytest.fixture(scope="module")
def answers(tmp_path_factory):
    size = dict(workloads.SMALL["kb-query"])
    wl = workloads.KbQuery(pk, size, str(tmp_path_factory.mktemp("stores")))
    _, outputs = wl.run_pass(wl.ops)
    assert wl.check(outputs) == {}
    return wl, outputs


def _answer(wl, outputs, want):
    for q in wl.ops:
        sid, text, built = wl.queries[q]
        code, stdout = outputs[q]
        if want(code, stdout):
            return wl.members[sid], checks.parse_clause(text), code, stdout, built
    raise AssertionError("no such answer")


def test_query_check_rejects_wrong_exit_code(answers):
    wl, outputs = answers
    members, query, code, stdout, built = _answer(wl, outputs, lambda c, o: c == 0)
    assert checks.check_query(members, query, 1, "NO\n", built)
    members, query, code, stdout, built = _answer(wl, outputs, lambda c, o: c == 1)
    assert checks.check_query(members, query, 0, stdout, built)


def test_query_check_rejects_witness_substitution_that_misses_the_query(answers):
    wl, outputs = answers

    def has_variable(code, stdout):
        return code == 0 and any(ch.isupper() for ch in stdout.split()[1][len("witness="):])

    members, query, code, stdout, built = _answer(wl, outputs, has_variable)
    witness = stdout.split()[1][len("witness="):]
    names = sorted({tok for tok in checks._TOKEN.findall(witness) if tok[0].isupper()})
    wrong = "{%s}" % ",".join("%s->zz" % v for v in names)
    corrupted = "YES witness=%s subst=%s\n" % (witness, wrong)
    assert checks.check_query(members, query, code, stdout, built) == []
    assert checks.check_query(members, query, code, corrupted, built)


def test_query_check_rejects_witness_that_is_not_a_member(answers):
    wl, outputs = answers
    members, query, code, stdout, built = _answer(wl, outputs, lambda c, o: c == 0)
    assert checks.check_query(members, query, code, "YES witness=zz(a) subst={}\n", built)


def test_a_wrong_output_makes_the_run_incorrect():
    wl = workloads.FoCompile(pk, workloads.SMALL["fo-compile"])
    passes = [run.timed_pass(wl, wl.ops), run.timed_pass(wl, wl.ops)]
    assert run.verdict(wl, passes, {}) == {
        "correct": True, "attempted": 2 * len(wl.ops), "failed": 0
    }
    op = wl.ops[0]
    members, attempts, checks_done = passes[0][1][op]
    passes[0][1][op] = (members + ("$false ; assoc ; origin input",), attempts, checks_done)
    info = {}
    result = run.verdict(wl, passes, info)
    # The first pass fails its check, and the second differs from it.
    assert result == {"correct": False, "attempted": 2 * len(wl.ops), "failed": 2}
    assert info["problems"]


# Runs one workload at reduced size in a fresh process, under the given
# hash seed, and prints the info and result lines as the command does.
MEASURE = """
import json, sys
sys.path[:0] = [%r, %r]
import run, workloads
w, trace = sys.argv[1], int(sys.argv[2])
info, result = run.measure(w, 3, 0, trace, workloads.SMALL[w])
print(json.dumps(info))
print(json.dumps(result))
""" % (HERE, os.path.join(ROOT, "src"))


def _measure(workload, hash_seed, trace=0):
    out = subprocess.run(
        [sys.executable, "-c", MEASURE, workload, str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
        env=dict(os.environ, PYTHONHASHSEED=hash_seed),
    )
    assert out.returncode == 0, out.stderr
    return [json.loads(line) for line in out.stdout.splitlines()[-2:]]


def _metric_names(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[kind]]


@pytest.mark.parametrize("workload", ["fo-compile", "fo-add-stream", "kb-query"])
def test_counters_and_digest_do_not_depend_on_hash_seed(workload):
    seen = []
    for hash_seed in ("0", "123"):
        info, result = _measure(workload, hash_seed)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert list(result["metrics"]) == _metric_names("end_to_end")
        seen.append((info["counters"], info["digest"]))
    assert seen[0] == seen[1]


@pytest.mark.parametrize("workload", ["fo-compile", "fo-add-stream", "kb-query"])
def test_traced_run_reports_every_layer_metric(workload):
    info, result = _measure(workload, "0", trace=1)
    assert list(result["metrics"]) == _metric_names("per_layer")
    assert result["correct"] is True and result["failed"] == 0
    assert "trace.overhead_s" in result["metrics"]


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fo-compile", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=str(tmp_path), timeout=170,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
