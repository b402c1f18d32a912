"""Versioned plain-text persistence for compiled KBs.

The format is line oriented and diff-friendly:

    PIKB 1
    digest sha256:...
    stats rounds=1 consensus_attempts=9 subsumption_checks=25
    pred q/1
    fn f/1
    clause p(X)|r(Z,b) ; assoc Y->Z ; origin consensus(1,3)
    end

Entries appear in insertion order and the `end` line guards against
truncation.  The empty clause is written as `$false`.
"""

from __future__ import annotations

import os
import re
import stat
import tempfile

from .clauses import Clause, ClauseSet
from .compiler import CompiledKB, CompileStats
from .syntax import ParseError, Signature, _parse_literal, parse_clause, parse_term
from .terms import Literal, Substitution, Term

FORMAT_NAME = "PIKB"
FORMAT_VERSION = 1


class StoreError(Exception):
    """Base class for KB store failures."""


class StoreVersionError(StoreError):
    pass


class MalformedStoreError(StoreError):
    pass


class SignatureConflictError(StoreError):
    pass


def signature_of(kb: CompiledKB) -> Signature:
    """The predicate and functor arities a compiled KB commits to."""
    sig = Signature()
    for member in kb.pi:
        sig.note_clause(member)
        for _, term in member.assoc.items():
            sig.note_term(term)
    return sig


def dumps_kb(kb: CompiledKB) -> str:
    sig = signature_of(kb)
    lines = ["%s %d" % (FORMAT_NAME, FORMAT_VERSION)]
    lines.append("digest %s" % kb.source_digest)
    lines.append("stats %s" % kb.stats.format())
    for name in sorted(sig.predicates):
        lines.append("pred %s/%d" % (name, sig.predicates[name]))
    for name in sorted(sig.functions):
        lines.append("fn %s/%d" % (name, sig.functions[name]))
    for member in kb.pi:
        lines.append("clause %s" % member.entry_text)
    lines.append("end")
    return "".join(line + "\n" for line in lines)


_SYMBOL_RE = re.compile(r"([a-z][A-Za-z0-9_]*)/(\d+)$")
_ORIGIN_RE = re.compile(r"consensus\((\d+),(\d+)\)$")


class _LoadTable:
    """The parses that the entries of one store load share.

    Maps the text of each literal and of each bound term to its parse, so a
    text that repeats is parsed once and its parse is shared.  `symbols` is
    the union of the arities they use, and `agree` says that no symbol in it
    has two.  One table lives for one `loads_kb` call.
    """

    def __init__(self) -> None:
        self.literals: dict[str, Literal] = {}
        self.terms: dict[str, Term] = {}
        self.symbols = Signature()
        self.agree = True

    def _note(self, term: Term) -> None:
        """Add a new bound term's arities to `symbols`; a second arity clears `agree`."""
        try:
            self.symbols.note_term(term)
        except ValueError:
            self.agree = False

    def _literals(self, text: str) -> tuple[Literal, ...] | None:
        """The entry's literals, or None when a piece of it is no literal.

        A new literal's arities go into `symbols` as it is parsed, and one
        that clashes with them makes the piece no literal.
        """
        out = []
        for piece in text.split("|"):
            lit = self.literals.get(piece)
            if lit is None:
                try:
                    lit = _parse_literal(piece, self.symbols)
                except ParseError:
                    return None
                self.literals[piece] = lit
            out.append(lit)
        return tuple(out)

    def clause(self, text: str, line_no: int) -> tuple[Literal, ...]:
        """The literals of one entry's clause text."""
        # `|` only ever separates literals, so a well-formed entry splits
        # into literal texts.  While the symbols agree, so do the literals
        # of each entry.
        if self.agree and "#" not in text:
            literals = self._literals(text)
            if literals is not None:
                return literals
        # A `#` comments out the entry's closing period, a piece is no
        # literal, or an arity clashes: parse the entry whole, which gives
        # the error with its position in the entry.  The table's symbols are
        # then incomplete, so the final check walks the members.
        self.agree = False
        try:
            return parse_clause(text + ".").literals
        except ParseError as err:
            raise MalformedStoreError("line %d: bad clause: %s" % (line_no, err))

    def term(self, text: str, line_no: int) -> Term:
        term = self.terms.get(text)
        if term is None:
            try:
                term = parse_term(text)
            except ParseError as err:
                raise MalformedStoreError("line %d: bad association term: %s" % (line_no, err))
            self.terms[text] = term
            self._note(term)
        return term


def _parse_assoc(text: str, line_no: int, table: _LoadTable) -> Substitution:
    if not text:
        return Substitution()
    bindings = {}
    # Split only before a `Var->`: a bound term can itself contain commas,
    # but never an arrow.
    for part in re.split(r",(?=[A-Z][A-Za-z0-9_]*->)", text):
        if "->" not in part:
            raise MalformedStoreError("line %d: bad association binding %r" % (line_no, part))
        var, term_text = part.split("->", 1)
        if not re.fullmatch(r"[A-Z][A-Za-z0-9_]*", var):
            raise MalformedStoreError("line %d: bad association variable %r" % (line_no, var))
        if var in bindings:
            raise MalformedStoreError("line %d: variable %r bound twice" % (line_no, var))
        bindings[var] = table.term(term_text, line_no)
    return Substitution(bindings)


def _parse_entry(payload: str, line_no: int, table: _LoadTable) -> Clause:
    parts = payload.split(" ; ")
    if len(parts) != 3:
        raise MalformedStoreError("line %d: expected 'clause ; assoc ; origin' entry" % line_no)
    clause_text, assoc_part, origin_part = parts
    literals = () if clause_text == "$false" else table.clause(clause_text, line_no)
    if assoc_part != "assoc" and not assoc_part.startswith("assoc "):
        raise MalformedStoreError("line %d: expected association field" % line_no)
    assoc = _parse_assoc(assoc_part[6:] if len(assoc_part) > 5 else "", line_no, table)
    if not origin_part.startswith("origin "):
        raise MalformedStoreError("line %d: expected origin field" % line_no)
    origin = origin_part[7:]
    if origin == "input":
        parents = None
    else:
        m = _ORIGIN_RE.fullmatch(origin)
        if m is None:
            raise MalformedStoreError("line %d: bad origin %r" % (line_no, origin))
        parents = (int(m.group(1)), int(m.group(2)))
    return Clause(literals, assoc, parents)


def _undeclared(implied: Signature, declared: Signature) -> str | None:
    """The first symbol whose arity the signature table does not declare."""
    for name, arity in implied.predicates.items():
        if declared.predicates.get(name) != arity:
            return "predicate %r conflicts with signature table" % name
    for name, arity in implied.functions.items():
        if declared.functions.get(name) != arity:
            return "function symbol %r conflicts with signature table" % name
    return None


def loads_kb(text: str) -> CompiledKB:
    lines = text.splitlines()
    if not lines:
        raise MalformedStoreError("empty store")
    header = lines[0]
    if header != "%s %d" % (FORMAT_NAME, FORMAT_VERSION):
        if header.startswith(FORMAT_NAME + " "):
            raise StoreVersionError("unsupported store version %r" % header)
        raise MalformedStoreError("bad header %r" % header)

    digest: str | None = None
    stats: CompileStats | None = None
    declared = Signature()
    pi = ClauseSet()
    parses = _LoadTable()
    ended = False
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        if ended:
            raise MalformedStoreError("line %d: content after end marker" % line_no)
        kind, _, payload = line.partition(" ")
        if line == "end":
            ended = True
        elif kind == "digest":
            if digest is not None:
                raise MalformedStoreError("line %d: second digest line" % line_no)
            digest = payload
        elif kind == "stats":
            if stats is not None:
                raise MalformedStoreError("line %d: second stats line" % line_no)
            stats = CompileStats.parse(payload)
            if stats is None:
                raise MalformedStoreError("line %d: bad stats line" % line_no)
        elif kind in ("pred", "fn"):
            m = _SYMBOL_RE.fullmatch(payload)
            if m is None:
                raise MalformedStoreError("line %d: bad signature line" % line_no)
            name, arity = m.group(1), int(m.group(2))
            table = declared.predicates if kind == "pred" else declared.functions
            if table.get(name, arity) != arity:
                raise SignatureConflictError(
                    "line %d: %s %r declared with two arities" % (line_no, kind, name)
                )
            table[name] = arity
        elif kind == "clause":
            if not pi.add(_parse_entry(payload, line_no, parses)):
                raise MalformedStoreError("line %d: duplicate entry" % line_no)
        else:
            raise MalformedStoreError("line %d: unknown line kind %r" % (line_no, kind))
    if not ended:
        raise MalformedStoreError("missing end marker (truncated store?)")
    if digest is None or stats is None:
        raise MalformedStoreError("missing digest or stats line")

    kb = CompiledKB(pi, stats, digest)
    implied = parses.symbols
    if not parses.agree or _undeclared(implied, declared) is not None:
        # Name the conflict that a walk of the members in order meets first.
        try:
            implied = signature_of(kb)
        except ValueError as err:
            raise SignatureConflictError(str(err))
    message = _undeclared(implied, declared)
    if message is not None:
        raise SignatureConflictError(message)
    kb.signature = implied
    return kb


def save_kb(kb: CompiledKB, path: str) -> None:
    """Write atomically: temp file in the same directory, then rename.

    The store gets the mode that `open(path, "w")` would give it: a store
    it replaces keeps its mode, and a new one gets 0666 less the umask.
    Like `open`, it writes through a symbolic link: the link's target is
    replaced and the link stays.
    """
    path = os.path.realpath(path)
    directory = os.path.dirname(path)
    fd, tmp = tempfile.mkstemp(prefix=".pikb-", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(dumps_kb(kb))
        try:
            mode = stat.S_IMODE(os.stat(path).st_mode)
        except FileNotFoundError:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_kb(path: str) -> CompiledKB:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_kb(fh.read())
