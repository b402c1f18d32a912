"""The clause-file grammar and its parser.

Uppercase-initial identifiers are variables; lowercase-initial identifiers
are predicates, functors, or constants depending on position.  Clauses are
pipe-separated literals terminated by a period; `#` starts a comment.

    q(Y). ~r(f(X),b). p(X)|r(Y,b)|~q(Z).

Arity is fixed per symbol within one file (declared implicitly by first
use); predicates and functors live in separate namespaces.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .clauses import Clause
from .terms import Compound, Literal, Term, Variable


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__("line %d, col %d: %s" % (line, col, message))


@dataclass
class Signature:
    """Predicate and functor arities, enforced on first use."""

    predicates: dict[str, int] = field(default_factory=dict)
    functions: dict[str, int] = field(default_factory=dict)

    def note(self, kind: str, name: str, arity: int) -> None:
        """Record the arity of a "predicate" or "function symbol"; a clash raises."""
        table = self.predicates if kind == "predicate" else self.functions
        known = table.setdefault(name, arity)
        if known != arity:
            message = "arity mismatch: %s '%s' used with arity %d after arity %d"
            raise ValueError(message % (kind, name, arity, known))

    def note_clause(self, clause: Clause) -> None:
        for lit in clause.literals:
            self.note_term(lit.atom, "predicate")

    def note_term(self, term: Term, kind: str = "function symbol") -> None:
        """Note `term`'s head as `kind` and the symbols under it as functions."""
        if isinstance(term, Compound):
            self.note(kind, term.functor, len(term.args))
            for arg in term.args:
                self.note_term(arg)

    def copy(self) -> "Signature":
        return Signature(dict(self.predicates), dict(self.functions))


# A comment runs from `#` to the end of its line.  Once comments are
# blanked, a token is an identifier or a punctuation character, and a
# character is bad when it is none of these nor whitespace, or when it
# starts a run of identifier characters with a digit or an underscore.
_COMMENT = re.compile(r"#[^\n]*")
_WORD = re.compile(r"[A-Za-z][A-Za-z0-9_]*|[(),|~.]")
_BAD = re.compile(r"[^\sA-Za-z0-9_(),|~.]|(?<![A-Za-z0-9_])[0-9_]")


def _line_col(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of an offset into the text."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _bad_character(text: str, offset: int) -> ParseError:
    return ParseError("unexpected character %r" % text[offset], *_line_col(text, offset))


def _blank_comments(text: str) -> str:
    """The text with each comment replaced by as many spaces, so that every
    offset, line and column stays where it was."""
    return _COMMENT.sub(lambda m: " " * len(m.group()), text)


def _tokenize(text: str) -> list[str]:
    """The text's tokens, ending with the empty string for the end of input.

    A token's kind is its first character: an uppercase letter starts a
    variable, a lowercase one a symbol, and any other is punctuation.
    """
    if "#" in text:
        text = _blank_comments(text)
    bad = _BAD.search(text)
    if bad is not None:
        raise _bad_character(text, bad.start())
    tokens = _WORD.findall(text)
    tokens.append("")
    return tokens


def _offset(text: str, index: int) -> int:
    """The offset of the token `_tokenize(text)` puts at `index`."""
    for i, m in enumerate(_WORD.finditer(_blank_comments(text))):
        if i == index:
            return m.start()
    return len(text)


class _Parser:
    """Recursive descent over the token list."""

    def __init__(self, text: str, signature: Signature | None = None):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.signature = signature if signature is not None else Signature()

    def error(self, message: str, at: int | None = None) -> ParseError:
        """A ParseError at the token with index `at`, by default the next one."""
        offset = _offset(self.text, self.pos if at is None else at)
        return ParseError(message, *_line_col(self.text, offset))

    def expected(self, what: str) -> ParseError:
        return self.error("expected %s, found %r" % (what, self.tokens[self.pos] or "end of input"))

    def note(self, kind: str, at: int, arity: int) -> None:
        try:
            self.signature.note(kind, self.tokens[at], arity)
        except ValueError as err:
            raise self.error(str(err), at) from None

    def parse_file(self) -> list[Clause]:
        out = []
        while self.tokens[self.pos]:
            if self.tokens[self.pos] == ".":
                raise self.error("empty clause")
            out.append(self.parse_clause_line())
        return out

    def parse_clause_line(self) -> Clause:
        literals = [self.parse_literal()]
        while True:
            tok = self.tokens[self.pos]
            if tok == "|":
                self.pos += 1
                literals.append(self.parse_literal())
            elif tok == ".":
                self.pos += 1
                return Clause(tuple(literals))
            else:
                raise self.expected("'|' or '.'")

    def parse_literal(self) -> Literal:
        positive = self.tokens[self.pos] != "~"
        if not positive:
            self.pos += 1
        at = self.pos
        if not self.tokens[at][:1].islower():
            raise self.expected("a predicate")
        self.pos += 1
        args = self.parse_args()
        self.note("predicate", at, len(args))
        return Literal(Compound(self.tokens[at], args), positive)

    def parse_args(self) -> tuple[Term, ...]:
        if self.tokens[self.pos] != "(":
            return ()
        self.pos += 1
        args = [self.parse_term()]
        while True:
            tok = self.tokens[self.pos]
            if tok == ",":
                self.pos += 1
                args.append(self.parse_term())
            elif tok == ")":
                self.pos += 1
                return tuple(args)
            else:
                raise self.expected("',' or ')'")

    def parse_term(self) -> Term:
        at = self.pos
        tok = self.tokens[at]
        if tok[:1].isupper():
            self.pos += 1
            return Variable(tok)
        if tok[:1].islower():
            self.pos += 1
            args = self.parse_args()
            self.note("function symbol", at, len(args))
            return Compound(tok, args)
        raise self.expected("a term")


def parse_clause_file(text: str, signature: Signature | None = None) -> list[Clause]:
    """The file's clauses in order; their arities are noted in `signature`."""
    return _Parser(text, signature).parse_file()


def parse_clause(text: str, signature: Signature | None = None) -> Clause:
    """Parse exactly one clause (for queries and store entries)."""
    parsed = parse_clause_file(text, signature)
    if len(parsed) != 1:
        raise ParseError("expected exactly one clause, found %d" % len(parsed), 1, 1)
    return parsed[0]


def parse_term(text: str) -> Term:
    """Parse a single term (used for association bindings)."""
    parser = _Parser(text)
    term = parser.parse_term()
    tok = parser.tokens[parser.pos]
    if tok:
        raise parser.error("trailing input after term: %r" % tok)
    return term

