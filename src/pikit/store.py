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
truncation.  The empty clause is written as `$false`.  A load splits each
entry at ` ; ` into its three fields and checks them in order, however
the entry was written.
"""

from __future__ import annotations

import os
import re
import stat
import tempfile

from .clauses import Clause, ClauseSet
from .compiler import CompiledKB, CompileStats
from .syntax import ParseError, Signature, _bad_character, _tokenize, parse_clause, parse_term
from .terms import EMPTY, Compound, Literal, Substitution, Term, Variable, literal_features

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
# A bound term can itself contain commas, but never an arrow.
_BINDING_SPLIT_RE = re.compile(r",(?=[A-Z][A-Za-z0-9_]*->)")
_VARIABLE_RE = re.compile(r"[A-Z][A-Za-z0-9_]*")
# A literal or term as it is printed: an optional `~`, a name, and what its
# outer parentheses hold, if it has them.  No whitespace or bad character
# matches.
_NODE_RE = re.compile(r"(~?)([A-Za-z][A-Za-z0-9_]*)(?:\(([A-Za-z0-9_(),]*)\))?")


class _LoadTable:
    """The parses that the entries of one store load share.

    Each distinct literal piece is read once, to its canonical text in
    `texts`, which keys the entry.  The parts of a literal whose
    `literal_features` are all in the query's `features`, of every literal
    without a query, go to `parts`, and become a `Literal` in `literals`
    once an entry that holds it is built.  Each term text is parsed once,
    into `terms`.  Each association text is read once, into `assocs`: its
    key, which keys the entry, and its bindings, which become a
    `Substitution` in `substitutions` once an entry that holds it is built.
    Nodes and substitutions are interned, so equal ones are one object
    however they were built: these tables only save reading a repeated text
    again.  `symbols` is the union of the arities the reads use, each noted
    with one `setdefault`, and `agree` says that no symbol in it has two.
    One table lives for one `loads_kb` call.
    """

    def __init__(self, query: Clause | None = None) -> None:
        self.texts: dict[str, str] = {}
        self.parts: dict[str, tuple[str, tuple[Term, ...], bool]] = {}
        self.literals: dict[str, Literal] = {}
        self.terms: dict[str, Term] = {}
        self.assocs: dict[str, tuple[frozenset, dict[str, Term]]] = {"": (frozenset(), {})}
        self.substitutions: dict[str, Substitution] = {"": EMPTY}
        self.symbols = Signature()
        self.agree = True
        self.features = None if query is None else query.features

    def _args(self, text: str) -> tuple[Term, ...] | None:
        """The terms listed in `text`, what a name's parentheses hold; None
        when one of them is no term or clashes."""
        args = []
        part = ""
        for chunk in text.split(","):
            # A comma inside an argument leaves a parenthesis open.
            part = part + "," + chunk if part else chunk
            if part.count("(") == part.count(")"):
                term = self._term(part)
                if term is None:
                    return None
                args.append(term)
                part = ""
        return None if part else tuple(args)

    def _term(self, text: str) -> Term | None:
        """The term printed as `text`; None when `text` is no term's printed
        form, or an arity in it clashes with `symbols`."""
        term = self.terms.get(text)
        if term is None:
            m = _NODE_RE.fullmatch(text)
            if m is None or m.group(1):
                return None
            _, name, inner = m.groups()
            if name[0].isupper():
                if inner is not None:
                    return None
                term = Variable(name)
            else:
                args = () if inner is None else self._args(inner)
                if args is None or self.symbols.functions.setdefault(name, len(args)) != len(args):
                    return None
                term = Compound(name, args)
            self.terms[text] = term
        return term

    def _texts(self, pieces: list[str]) -> list[str] | None:
        """The canonical texts of the literal pieces, each read once per
        load; None when one is no literal or an arity in it clashes."""
        known = self.texts
        out = []
        for piece in pieces:
            text = known.get(piece) or self._read(piece)
            if text is None:
                return None
            out.append(text)
        return out

    def _read(self, piece: str) -> str | None:
        """The canonical text of the literal piece, entered in `texts`, and
        in `parts` when the query's features hold its own, its signed head
        tried first; None when the piece is no literal, or an arity in it
        clashes with `symbols`."""
        m = _NODE_RE.fullmatch(piece) or _NODE_RE.fullmatch(_canonical(piece))
        if m is None or m.group(2)[0].isupper():
            return None
        negated, name, inner = m.groups()
        args = () if inner is None else self._args(inner)
        if args is None or self.symbols.predicates.setdefault(name, len(args)) != len(args):
            return None
        text = self.texts[piece] = m.group()
        f = self.features
        if f is None or negated + name in f and f.issuperset(literal_features(text, args)):
            self.parts[text] = (name, args, not negated)
        return text

    def _literal(self, text: str) -> Literal:
        """The literal of a text in `parts`, built once per load."""
        lit = self.literals.get(text)
        if lit is None:
            name, args, positive = self.parts[text]
            lit = self.literals[text] = Literal(Compound(name, args), positive)
        return lit

    def clause(
        self, text: str, line_no: int
    ) -> tuple[frozenset[str], tuple[Literal, ...] | None]:
        """The canonical texts of one entry's literals, and the literals
        themselves unless the query rules the entry out."""
        if text == "$false":
            return frozenset(), ()
        # `|` only ever separates literals, so a well-formed entry splits
        # into literal pieces.  While the symbols agree, so do the literals
        # of each entry.
        if self.agree and "#" not in text:
            texts = self._texts(text.split("|"))
            if texts is not None:
                key = frozenset(texts)
                if not self.parts.keys() >= key:
                    return key, None
                return key, tuple(map(self._literal, texts))
        # A `#` comments out the entry's closing period, a piece is no
        # literal, or an arity clashes: parse the entry whole, which gives
        # the error with its position in the entry.  The table's symbols are
        # then incomplete, so the final check walks the members.
        self.agree = False
        try:
            literals = parse_clause(text + ".").literals
        except ParseError as err:
            raise MalformedStoreError("line %d: bad clause: %s" % (line_no, err))
        return frozenset([lit.text for lit in literals]), literals

    def term(self, text: str, line_no: int) -> Term:
        """A bound term, read as a literal's arguments are.  A `#`, which
        the parser would read as the start of a comment, is refused."""
        if "#" in text:
            bad = _bad_character(text, text.index("#"))
            raise MalformedStoreError("line %d: bad association term: %s" % (line_no, bad))
        term = self._term(text) or self._term(_canonical(text))
        if term is None:
            # The term is malformed, or an arity clashes: parse it alone,
            # which gives the error with its position in the term.
            try:
                term = parse_term(text)
            except ParseError as err:
                raise MalformedStoreError("line %d: bad association term: %s" % (line_no, err))
            self.agree = False
        return term

    def substitution(self, text: str) -> Substitution:
        """The association read from `text` into `assocs`, built once per
        load."""
        sub = self.substitutions.get(text)
        if sub is None:
            sub = self.substitutions[text] = Substitution(self.assocs[text][1])
        return sub


def _canonical(text: str) -> str:
    """The text with the whitespace between its tokens left out; "" when it
    has a bad character, or whitespace parts two names, as in no literal or
    term."""
    try:
        tokens = _tokenize(text)
    except ParseError:
        return ""
    if any(a[:1].isalpha() and b[:1].isalpha() for a, b in zip(tokens, tokens[1:])):
        return ""
    return "".join(tokens)


def _parse_assoc(text: str, line_no: int, table: _LoadTable) -> frozenset:
    """The key of the association printed as `text`: the frozenset of its
    non-identity bindings, as `(variable, term)` pairs.  Terms are interned,
    so two keys are equal exactly when the two `Substitution`s would be one
    object.  Every binding is checked, once per text per load, but the
    `Substitution` is left to `_LoadTable.substitution`."""
    known = table.assocs.get(text)
    if known is not None:
        return known[0]
    bindings = {}
    # Split only before a `Var->`.
    for part in _BINDING_SPLIT_RE.split(text):
        if "->" not in part:
            raise MalformedStoreError("line %d: bad association binding %r" % (line_no, part))
        var, term_text = part.split("->", 1)
        if not _VARIABLE_RE.fullmatch(var):
            raise MalformedStoreError("line %d: bad association variable %r" % (line_no, var))
        if var in bindings:
            raise MalformedStoreError("line %d: variable %r bound twice" % (line_no, var))
        bindings[var] = table.term(term_text, line_no)
    key = frozenset([(v, t) for v, t in bindings.items() if type(t) is not Variable or t.name != v])
    table.assocs[text] = (key, bindings)
    return key


def _parse_entry(payload: str, line_no: int, table: _LoadTable) -> tuple[tuple, Clause | None]:
    """The entry's key, (canonical literal texts, association key), which is
    the same for two entries exactly when their clauses are equal, and the
    entry's clause unless the table's query rules it out.

    The entry is split into its three fields once, and they are checked in
    order, so a malformed one gives its error with the entry's line.  An
    entry that is not built builds no `Substitution` and converts no parent
    to an integer."""
    parts = payload.split(" ; ")
    if len(parts) != 3:
        raise MalformedStoreError("line %d: expected 'clause ; assoc ; origin' entry" % line_no)
    clause_text, assoc_part, origin_part = parts
    texts, literals = table.clause(clause_text, line_no)
    if assoc_part != "assoc" and not assoc_part.startswith("assoc "):
        raise MalformedStoreError("line %d: expected association field" % line_no)
    assoc_text = assoc_part[6:]
    key = (texts, _parse_assoc(assoc_text, line_no, table))
    m = None
    if origin_part != "origin input":
        if not origin_part.startswith("origin "):
            raise MalformedStoreError("line %d: expected origin field" % line_no)
        m = _ORIGIN_RE.fullmatch(origin_part, 7)
        if m is None:
            raise MalformedStoreError("line %d: bad origin %r" % (line_no, origin_part[7:]))
    if literals is None:
        return key, None
    parents = None if m is None else (int(m.group(1)), int(m.group(2)))
    return key, Clause(literals, table.substitution(assoc_text), parents)


def _undeclared(implied: Signature, declared: Signature) -> str | None:
    """The first symbol whose arity the signature table does not declare."""
    for name, arity in implied.predicates.items():
        if declared.predicates.get(name) != arity:
            return "predicate %r conflicts with signature table" % name
    for name, arity in implied.functions.items():
        if declared.functions.get(name) != arity:
            return "function symbol %r conflicts with signature table" % name
    return None


def loads_kb(text: str, *, query: Clause | None = None) -> CompiledKB:
    """The compiled KB that a store's text holds; a bad store raises a StoreError.

    By default every entry becomes a member.  With `query`, the load still
    reads and checks every line as the full load does, and fails on exactly
    the same stores with the same error, but builds only `$false` and the
    entries whose every literal has its `literal_features` among the query's
    `Clause.features`, as θ-subsumption of the query implies: its predicate
    with its sign, each function symbol with its arity, and the literal
    itself if it has no variable.  They keep their store order.  Only those
    can θ-subsume the query, so such a KB answers `entails` for it as the
    full one does, with the same first witness.  An entry that is not built
    gets no `Literal`, `Substitution` or `Clause`: its literals are keyed by
    their texts and its association by its bindings.
    Its `signature` is still the whole store's, not that of its members.
    It is for answering that query only: it must never reach `save_kb` or
    `add_clause`.
    """
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
    keys: set[tuple] = set()
    parses = _LoadTable(query)
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
            key, member = _parse_entry(payload, line_no, parses)
            if key in keys:
                raise MalformedStoreError("line %d: duplicate entry" % line_no)
            keys.add(key)
            if member is not None:
                pi.add(member)
        else:
            raise MalformedStoreError("line %d: unknown line kind %r" % (line_no, kind))
    if not ended:
        raise MalformedStoreError("missing end marker (truncated store?)")
    if digest is None or stats is None:
        raise MalformedStoreError("missing digest or stats line")

    kb = CompiledKB(pi, stats, digest)
    implied = parses.symbols
    if not parses.agree or _undeclared(implied, declared) is not None:
        if query is not None:
            # The conflict to name is the first a walk of every member meets.
            return loads_kb(text)
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
    replaced and the link stays.  An OSError names `path`, as `open`'s
    would, and never the temp file, which is removed.
    """
    if os.path.basename(path) in ("", ".", ".."):
        # realpath would make "" the working directory and drop a trailing
        # separator or `.`; `open` refuses each such path before it creates
        # anything.
        with open(path, "w"):
            pass
    target = os.path.realpath(path)
    tmp = None
    try:
        # realpath drops `x/..` without looking at `x`, where `open` needs a
        # directory: stat the directory part as `open` would resolve it.
        os.stat(os.path.dirname(path) or os.curdir)
        fd, tmp = tempfile.mkstemp(prefix=".pikb-", dir=os.path.dirname(target))
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(dumps_kb(kb))
        try:
            mode = stat.S_IMODE(os.stat(target).st_mode)
        except FileNotFoundError:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        os.chmod(tmp, mode)
        os.replace(tmp, target)
    except BaseException as err:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(err, OSError):
            raise OSError(err.errno, err.strerror, path) from None
        raise


def load_kb(path: str, *, query: Clause | None = None) -> CompiledKB:
    """`loads_kb` of the file's text; with `query`, a KB for that query only."""
    with open(path, "r", encoding="utf-8") as fh:
        return loads_kb(fh.read(), query=query)
