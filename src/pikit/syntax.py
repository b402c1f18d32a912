"""The clause-file grammar: parsing and printing.

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
from typing import Iterable

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


@dataclass
class ClauseFile:
    """Parsed clause file: clauses in order, with the signature they use."""

    clauses: list[Clause] = field(default_factory=list)
    signature: Signature = field(default_factory=Signature)


_TOKEN = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>\#[^\n]*)
      | (?P<uident>[A-Z][A-Za-z0-9_]*)
      | (?P<lident>[a-z][A-Za-z0-9_]*)
      | (?P<punct>[(),|~.])
      | (?P<bad>.)
    """,
    re.VERBOSE,
)


def _line_col(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of an offset into the text."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, value, offset) for each token, ending with an `eof` token."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            message = "unexpected character %r" % m.group()
            raise ParseError(message, *_line_col(text, m.start()))
        if kind != "ws" and kind != "comment":
            tokens.append((kind, m.group(), m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, signature: Signature | None = None):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.signature = signature if signature is not None else Signature()

    def error(self, message: str, tok: tuple[str, str, int]) -> ParseError:
        return ParseError(message, *_line_col(self.text, tok[2]))

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def note(self, kind: str, tok: tuple[str, str, int], arity: int) -> None:
        try:
            self.signature.note(kind, tok[1], arity)
        except ValueError as err:
            raise self.error(str(err), tok) from None

    def parse_whole(self, parse, what: str):
        """`parse(self)`, which must read to the end of the text."""
        node = parse(self)
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            raise self.error("trailing input after %s: %r" % (what, tok[1]), tok)
        return node

    def parse_file(self) -> ClauseFile:
        out = ClauseFile(signature=self.signature)
        while self.peek()[0] != "eof":
            tok = self.peek()
            if tok[0] == "punct" and tok[1] == ".":
                raise self.error("empty clause", tok)
            out.clauses.append(self.parse_clause_line())
        return out

    def parse_clause_line(self) -> Clause:
        literals = [self.parse_literal()]
        while True:
            tok = self.peek()
            if tok[0] == "punct" and tok[1] == "|":
                self.next()
                literals.append(self.parse_literal())
            elif tok[0] == "punct" and tok[1] == ".":
                self.next()
                return Clause(tuple(literals))
            else:
                raise self.error("expected '|' or '.', found %r" % (tok[1] or "end of input"), tok)

    def parse_literal(self) -> Literal:
        tok = self.peek()
        positive = True
        if tok[0] == "punct" and tok[1] == "~":
            self.next()
            positive = False
        return Literal(self.parse_atom(), positive)

    def parse_atom(self) -> Compound:
        tok = self.peek()
        if tok[0] != "lident":
            raise self.error("expected a predicate, found %r" % (tok[1] or "end of input"), tok)
        self.next()
        args = self.parse_args()
        self.note("predicate", tok, len(args))
        return Compound(tok[1], args)

    def parse_args(self) -> tuple[Term, ...]:
        tok = self.peek()
        if not (tok[0] == "punct" and tok[1] == "("):
            return ()
        self.next()
        args = [self.parse_term()]
        while True:
            tok = self.peek()
            if tok[0] == "punct" and tok[1] == ",":
                self.next()
                args.append(self.parse_term())
            elif tok[0] == "punct" and tok[1] == ")":
                self.next()
                return tuple(args)
            else:
                raise self.error("expected ',' or ')', found %r" % (tok[1] or "end of input"), tok)

    def parse_term(self) -> Term:
        tok = self.peek()
        if tok[0] == "uident":
            self.next()
            return Variable(tok[1])
        if tok[0] == "lident":
            self.next()
            args = self.parse_args()
            self.note("function symbol", tok, len(args))
            return Compound(tok[1], args)
        raise self.error("expected a term, found %r" % (tok[1] or "end of input"), tok)


def parse_clause_file(text: str, signature: Signature | None = None) -> ClauseFile:
    return _Parser(text, signature).parse_file()


def parse_clause(text: str, signature: Signature | None = None) -> Clause:
    """Parse exactly one clause (for queries and store entries)."""
    parsed = _Parser(text, signature).parse_file()
    if len(parsed.clauses) != 1:
        raise ParseError("expected exactly one clause, found %d" % len(parsed.clauses), 1, 1)
    return parsed.clauses[0]


def parse_term(text: str) -> Term:
    """Parse a single term (used for association bindings)."""
    return _Parser(text).parse_whole(_Parser.parse_term, "term")


def _parse_literal(text: str, signature: Signature) -> Literal:
    """Parse exactly one literal, with no terminating period (store entries).

    Its arities are noted in `signature`; one that clashes is a ParseError.
    """
    return _Parser(text, signature).parse_whole(_Parser.parse_literal, "literal")


def print_clause(c: Clause) -> str:
    """Canonical-order one-line form, terminated by a period."""
    return "%s." % c


def print_clause_file(f: ClauseFile | Iterable[Clause]) -> str:
    clauses = f.clauses if isinstance(f, ClauseFile) else list(f)
    return "".join(print_clause(c) + "\n" for c in clauses)
