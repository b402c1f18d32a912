"""Persistence round-trips and store validation errors."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from pikit import (
    AssocClause,
    ClauseSet,
    CompiledKB,
    Compound,
    GenConfig,
    MalformedStoreError,
    SignatureConflictError,
    StoreVersionError,
    Substitution,
    Variable,
    add_clause,
    compile,
    dumps_kb,
    gen_kb,
    load_kb,
    loads_kb,
    parse_clause,
    parse_clause_file,
    save_kb,
)

WORKED = "q(Y). ~r(f(X),b). p(X)|r(Y,b)|~q(Z)."


def worked_kb():
    kb = compile(parse_clause_file(WORKED).clauses)
    return add_clause(kb, parse_clause("~p(a)|~q(Z).")).result


class TestRoundTrip:
    def test_worked_example_round_trips_exactly(self):
        kb = worked_kb()
        again = loads_kb(dumps_kb(kb))
        assert again == kb
        assert again.pi.members == kb.pi.members  # order, assocs, origins
        assert again.stats == kb.stats
        assert again.source_digest == kb.source_digest

    def test_dump_contains_expected_entry_lines(self):
        text = dumps_kb(compile(parse_clause_file(WORKED).clauses))
        assert text.startswith("PIKB 1\n")
        assert "clause p(X)|r(Z,b) ; assoc Y->Z ; origin consensus(1,3)\n" in text
        assert "pred q/1\n" in text and "fn f/1\n" in text
        assert text.endswith("end\n")

    def test_inconsistent_kb_round_trips(self):
        kb = compile(parse_clause_file("p. ~p.").clauses)
        again = loads_kb(dumps_kb(kb))
        assert again.inconsistent
        assert again == kb

    def test_association_binding_a_binary_term_round_trips(self):
        kb = compile(parse_clause_file("p(X)|r(X). ~p(g(a,b))|q(Y).").clauses)
        text = dumps_kb(kb)
        assert "clause q(Y)|r(g(a,b)) ; assoc X->g(a,b) ; origin consensus(1,2)\n" in text
        assert loads_kb(text) == kb

    def test_several_bindings_with_commas_round_trip(self):
        a, c = Compound("a"), Compound("c")
        assoc = Substitution({"X": Compound("g", (a, c)), "Z": Compound("g", (Variable("Y"), a))})
        kb = CompiledKB(ClauseSet([AssocClause(parse_clause("q(Y)."), assoc, (1, 2))]))
        text = dumps_kb(kb)
        assert "assoc X->g(a,c),Z->g(Y,a) ;" in text
        assert loads_kb(text) == kb

    def test_save_and_load_files(self, tmp_path):
        kb = worked_kb()
        path = tmp_path / "kb.pikb"
        save_kb(kb, str(path))
        assert load_kb(str(path)) == kb
        save_kb(kb, str(path))  # overwrite in place
        assert load_kb(str(path)) == kb

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
        assert loads_kb(dumps_kb(kb)) == kb


class TestStoreErrors:
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

    def test_missing_digest_or_stats(self):
        lines = [l for l in dumps_kb(worked_kb()).splitlines() if not l.startswith("digest")]
        with pytest.raises(MalformedStoreError):
            loads_kb("\n".join(lines) + "\n")
