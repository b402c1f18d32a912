"""Clause-file parsing, printing, and round-trips."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from pikit import (
    GenConfig,
    ParseError,
    Variable,
    gen_kb,
    parse_clause,
    parse_clause_file,
    parse_term,
    print_clause,
    print_clause_file,
)


class TestParseClauseFile:
    def test_worked_example_file(self):
        parsed = parse_clause_file("q(Y). ~r(f(X),b). p(X)|r(Y,b)|~q(Z).")
        assert [str(c) for c in parsed.clauses] == [
            "q(Y)",
            "~r(f(X),b)",
            "p(X)|~q(Z)|r(Y,b)",
        ]
        assert parsed.signature.predicates == {"q": 1, "r": 2, "p": 1}
        assert parsed.signature.functions == {"f": 1, "b": 0}

    def test_single_unit_clause(self):
        parsed = parse_clause_file("p(a).")
        assert [str(c) for c in parsed.clauses] == ["p(a)"]

    def test_tautology_parses_and_is_flagged_downstream(self):
        parsed = parse_clause_file("p(X)|~p(X).")
        assert not parsed.clauses[0].is_fundamental()

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\np(a). # trailing comment\n~q(b,X) | p(X).\n"
        parsed = parse_clause_file(text)
        assert len(parsed.clauses) == 2

    def test_zero_arity_predicates(self):
        parsed = parse_clause_file("p. ~q|p.")
        assert [str(c) for c in parsed.clauses] == ["p", "p|~q"]

    def test_predicate_and_functor_namespaces_are_separate(self):
        parsed = parse_clause_file("p(p).")
        assert parsed.signature.predicates == {"p": 1}
        assert parsed.signature.functions == {"p": 0}


class TestParseErrors:
    def test_lexical_error_with_position(self):
        with pytest.raises(ParseError) as err:
            parse_clause_file("p(a).\n q($).")
        assert err.value.line == 2 and "unexpected character" in str(err.value)

    def test_predicate_arity_mismatch(self):
        with pytest.raises(ParseError, match="arity mismatch"):
            parse_clause_file("p(a). p(a,b).")

    def test_functor_arity_mismatch(self):
        with pytest.raises(ParseError, match="arity mismatch"):
            parse_clause_file("p(b). q(b(X)).")

    def test_empty_clause_line(self):
        with pytest.raises(ParseError, match="empty clause"):
            parse_clause_file("p(a). .")

    def test_missing_terminator(self):
        with pytest.raises(ParseError):
            parse_clause_file("p(a)")

    def test_dangling_pipe(self):
        with pytest.raises(ParseError):
            parse_clause_file("p(a)|.")

    def test_variable_cannot_head_a_literal(self):
        with pytest.raises(ParseError, match="expected a predicate"):
            parse_clause_file("X(a).")


# Comments, blank lines, a tab and a clause split over two lines, so every
# error below sits on line 9 and positions count from the right places.
MULTILINE = "# facts and rules\n\np(a).   # first\n\n  q(b,X) |\n\t~p(Y).\n# more\n\n"


class TestErrorPositions:
    @pytest.mark.parametrize(
        "tail, line, col, message",
        [
            ("r($).", 9, 3, "unexpected character '$'"),
            ("p(a) | X.", 9, 8, "expected a predicate, found 'X'"),
            ("p(a) q(b).", 9, 6, "expected '|' or '.', found 'q'"),
            ("p(a b).", 9, 5, "expected ',' or ')', found 'b'"),
            ("p(,).", 9, 3, "expected a term, found ','"),
            ("  .", 9, 3, "empty clause"),
            ("q(a,b). p(a,b).", 9, 9, "arity mismatch: predicate 'p' used with arity 2 after arity 1"),
            ("p(b(X)).", 9, 3, "arity mismatch: function symbol 'b' used with arity 1 after arity 0"),
            ("p(f(a,f(b))).", 9, 3, "arity mismatch: function symbol 'f' used with arity 2 after arity 1"),
            ("p(a", 9, 4, "expected ',' or ')', found 'end of input'"),
            ("p(a)|", 9, 6, "expected a predicate, found 'end of input'"),
            ("p(a)#.\n", 10, 1, "expected '|' or '.', found 'end of input'"),
        ],
    )
    def test_clause_file_errors(self, tail, line, col, message):
        with pytest.raises(ParseError) as err:
            parse_clause_file(MULTILINE + tail)
        assert (err.value.line, err.value.col) == (line, col)
        assert str(err.value) == "line %d, col %d: %s" % (line, col, message)

    @pytest.mark.parametrize(
        "parse, text, line, col, message",
        [
            (parse_clause, "p(a).\nq(b).", 1, 1, "expected exactly one clause, found 2"),
            (parse_clause, "\n\n", 1, 1, "expected exactly one clause, found 0"),
            (parse_term, "f(a)\n  g", 2, 3, "trailing input after term: 'g'"),
            (parse_term, "f(\n a,", 2, 4, "expected a term, found 'end of input'"),
        ],
    )
    def test_single_clause_and_term_errors(self, parse, text, line, col, message):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == "line %d, col %d: %s" % (line, col, message)


class TestParseClause:
    def test_exactly_one_clause_required(self):
        assert str(parse_clause("~p(a)|s(X).")) == "~p(a)|s(X)"
        with pytest.raises(ParseError):
            parse_clause("p(a). q(b).")

    def test_parse_term(self):
        assert str(parse_term("f(a,X)")) == "f(a,X)"
        assert parse_term("Y") == Variable("Y")
        with pytest.raises(ParseError):
            parse_term("f(a) extra")


class TestPrinting:
    def test_print_clause_appends_period(self):
        assert print_clause(parse_clause("~p(a).")) == "~p(a)."

    def test_print_uses_canonical_literal_order(self):
        assert print_clause(parse_clause("r(Y,b)|p(X)|~q(Z).")) == "p(X)|~q(Z)|r(Y,b)."

    def test_print_clause_file_round_trips_worked_example(self):
        parsed = parse_clause_file("q(Y). ~r(f(X),b). p(X)|r(Y,b)|~q(Z).")
        again = parse_clause_file(print_clause_file(parsed))
        assert again.clauses == parsed.clauses


@settings(deadline=None, max_examples=120)
@given(st.integers(0, 10**9))
def test_parser_round_trip_on_random_clause_files(seed):
    cfg = GenConfig(
        num_predicates=4,
        max_arity=2,
        num_variables=3,
        num_constants=2,
        num_functions=2,
        max_term_depth=2,
        clause_len_range=(1, 4),
        kb_size_range=(1, 6),
        seed=seed,
    )
    clauses = [m.clause for m in gen_kb(cfg)]
    text = print_clause_file(clauses)
    assert parse_clause_file(text).clauses == clauses
