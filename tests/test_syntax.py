"""Clause-file parsing, printing, and round-trips."""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings
from oracles import reference_tokens
from strategies import clause_file

from pikit import (
    GenConfig,
    ParseError,
    Variable,
    gen_kb,
    parse_clause,
    parse_clause_file,
    parse_term,
)
from pikit.store import _LoadTable
from pikit.syntax import Signature, _offset, _tokenize


class TestParseClauseFile:
    def test_worked_example_file(self):
        sig = Signature()
        parsed = parse_clause_file("q(Y). ~r(f(X),b). p(X)|r(Y,b)|~q(Z).", sig)
        assert type(parsed) is list
        assert [str(c) for c in parsed] == [
            "q(Y)",
            "~r(f(X),b)",
            "p(X)|~q(Z)|r(Y,b)",
        ]
        assert sig.predicates == {"q": 1, "r": 2, "p": 1}
        assert sig.functions == {"f": 1, "b": 0}

    def test_single_unit_clause(self):
        parsed = parse_clause_file("p(a).")
        assert [str(c) for c in parsed] == ["p(a)"]

    def test_tautology_parses_and_is_flagged_downstream(self):
        parsed = parse_clause_file("p(X)|~p(X).")
        assert not parsed[0].is_fundamental()

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\np(a). # trailing comment\n~q(b,X) | p(X).\n"
        parsed = parse_clause_file(text)
        assert len(parsed) == 2

    def test_zero_arity_predicates(self):
        parsed = parse_clause_file("p. ~q|p.")
        assert [str(c) for c in parsed] == ["p", "p|~q"]

    def test_predicate_and_functor_namespaces_are_separate(self):
        sig = Signature()
        parse_clause_file("p(p).", sig)
        assert sig.predicates == {"p": 1}
        assert sig.functions == {"p": 0}


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
# The same with each comment blanked out, so a text with no `#` (the
# tokenizer's other scan) gives the same positions.
PLAIN = "                 \n\np(a).          \n\n  q(b,X) |\n\t~p(Y).\n      \n\n"


CLAUSE_FILE_ERRORS = [
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
]


class TestErrorPositions:
    @pytest.mark.parametrize("tail, line, col, message", CLAUSE_FILE_ERRORS)
    def test_clause_file_errors(self, tail, line, col, message):
        with pytest.raises(ParseError) as err:
            parse_clause_file(MULTILINE + tail)
        assert (err.value.line, err.value.col) == (line, col)
        assert str(err.value) == "line %d, col %d: %s" % (line, col, message)

    @pytest.mark.parametrize("tail, line, col, message", CLAUSE_FILE_ERRORS)
    def test_clause_file_errors_without_comments(self, tail, line, col, message):
        with pytest.raises(ParseError) as err:
            parse_clause_file(PLAIN + tail)
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
    def test_a_clause_prints_without_its_period(self):
        assert str(parse_clause("~p(a).")) == "~p(a)"

    def test_print_uses_canonical_literal_order(self):
        assert str(parse_clause("r(Y,b)|p(X)|~q(Z).")) == "p(X)|~q(Z)|r(Y,b)"

    def test_clause_file_text_round_trips_worked_example(self):
        parsed = parse_clause_file("q(Y). ~r(f(X),b). p(X)|r(Y,b)|~q(Z).")
        again = parse_clause_file(clause_file(parsed))
        assert again == parsed


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
    clauses = list(gen_kb(cfg))
    text = clause_file(clauses)
    assert parse_clause_file(text) == clauses


TOKEN_CHARS = "()|,.~#$-> \t\n\u00a0XYZab_fpq019é"


@settings(deadline=None, max_examples=400)
@given(st.one_of(st.text(alphabet=TOKEN_CHARS, max_size=30), st.text(max_size=12)))
@example("p(a). #")  # a comment that ends the text, with no newline
@example("p#")
@example("p. # c\n1q.")  # a line after a comment starts with a digit
@example("p. # c\n_q.")  # ... or with an underscore
@example("p1# c\nq_1.")
@example("p. # c\r\nq.")  # the comment keeps the \r, the newline ends it
@example("p. # c\n q($).")  # a bad character after a comment
@example("# $ \u00e9 is no token here\n\u00e9")
def test_tokens_and_first_bad_character_match_the_reference_scanner(text):
    expected, bad = reference_tokens(text)
    if bad is not None:
        with pytest.raises(ParseError) as err:
            _tokenize(text)
        line = text.count("\n", 0, bad) + 1
        col = bad - text.rfind("\n", 0, bad)
        assert str(err.value) == "line %d, col %d: unexpected character %r" % (line, col, text[bad])
        return
    tokens = _tokenize(text)
    assert tokens == [tok for tok, _ in expected] + [""]
    offsets = [_offset(text, i) for i in range(len(tokens))]
    assert offsets == [at for _, at in expected] + [len(text)]


def arities(sig):
    return list(sig.predicates.items()), list(sig.functions.items())


def literal_outcomes(text):
    """What a store load's table and `parse_clause` make of an entry's
    clause text: the table's canonical literal texts, the texts of the
    literals it builds from them, and the parser's literal texts, each
    distinct and with the arities noted in order, or None when it is no
    clause."""
    table = _LoadTable()
    table.symbols = Signature({"p": 1}, {"a": 0})
    if None in [table._read(piece) for piece in text.split("|")]:
        outcomes = [None, None]
    else:
        texts, literals = table.clause(text, 1)
        noted = arities(table.symbols)
        outcomes = [(sorted(texts), noted), (sorted({lit.text for lit in literals}), noted)]
    sig = Signature({"p": 1}, {"a": 0})
    try:
        literals = parse_clause(text + ".", sig).literals
    except ParseError:
        outcomes.append(None)
    else:
        outcomes.append((sorted([lit.text for lit in literals]), arities(sig)))
    return outcomes


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10**9))
def test_a_checked_literal_gives_what_a_built_one_does(seed):
    cfg = GenConfig(
        num_predicates=3, max_arity=3, num_constants=2, num_functions=3, max_term_depth=3, seed=seed
    )
    rng = random.Random(seed)
    for clause in gen_kb(cfg):
        for lit in clause:
            text = lit.text
            checked, built, parsed = literal_outcomes(text)
            assert checked == built == parsed and parsed is not None
            # One-character edits, some of them spaces, which change nothing.
            for _ in range(10):
                i = rng.randrange(len(text) + 1)
                edit = rng.choice(" ()|,~Xq$")
                drop = rng.random() < 0.5
                edited = text[:i] + edit + text[i + drop :]
                checked, built, parsed = literal_outcomes(edited)
                assert checked == built == parsed, edited
