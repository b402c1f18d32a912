"""Correctness checks that share no code with pikit.

Clauses are read back from the text pikit prints, so a check never trusts
pikit's own data structures or algorithms.  The representation is plain
Python data:

* a variable is a ``str`` (uppercase initial);
* a compound term or an atom is ``(name, args)`` with ``args`` a tuple;
* a literal is ``(positive, atom)``;
* a clause is a ``frozenset`` of literals (the empty one is ``$false``).

Each ``check_*`` function returns a list of problems; an empty list means
the output passed.
"""

from __future__ import annotations

import itertools
import re

FALSE = frozenset()

_TOKEN = re.compile(r"[A-Za-z0-9_]+|->|\S")


class TextError(ValueError):
    """Printed output that the checks cannot read."""


class _Reader:
    def __init__(self, text: str):
        self.toks = _TOKEN.findall(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, want=None):
        tok = self.peek()
        if tok is None or (want is not None and tok != want):
            raise TextError("expected %r at token %d of %r" % (want, self.i, self.toks))
        self.i += 1
        return tok

    def term(self):
        name = self.take()
        if name[0].isupper():
            return name
        if not (name[0].isalnum() or name[0] == "_"):
            raise TextError("bad term start %r" % name)
        args = []
        if self.peek() == "(":
            self.take("(")
            args.append(self.term())
            while self.peek() == ",":
                self.take(",")
                args.append(self.term())
            self.take(")")
        return (name, tuple(args))

    def literal(self):
        positive = True
        if self.peek() == "~":
            self.take("~")
            positive = False
        atom = self.term()
        if isinstance(atom, str):
            raise TextError("variable in predicate position")
        return (positive, atom)

    def done(self):
        if self.peek() is not None:
            raise TextError("trailing tokens in %r" % self.toks)


def parse_clause(text: str) -> frozenset:
    """A clause from pikit's printed form, with or without the final '.'."""
    text = text.strip()
    if text.endswith("."):
        text = text[:-1]
    if text == "$false":
        return FALSE
    r = _Reader(text)
    lits = [r.literal()]
    while r.peek() == "|":
        r.take("|")
        lits.append(r.literal())
    r.done()
    return frozenset(lits)


def parse_entry(text: str) -> tuple[frozenset, bool]:
    """A KB member from its entry text ``clause ; assoc [bindings] ; origin o``:
    the clause, and whether its association is empty."""
    clause, assoc, _ = text.split(" ; ")
    return parse_clause(clause), assoc == "assoc"


def parse_substitution(text: str) -> dict:
    """A substitution from its printed form ``{X->a,Y->f(Z)}``."""
    r = _Reader(text)
    r.take("{")
    out = {}
    while r.peek() != "}":
        if out:
            r.take(",")
        var = r.take()
        if not var[0].isupper():
            raise TextError("bad binding variable %r" % var)
        r.take("->")
        out[var] = r.term()
    r.take("}")
    r.done()
    return out


def show_term(t) -> str:
    if isinstance(t, str):
        return t
    return t[0] + ("(%s)" % ",".join(show_term(a) for a in t[1]) if t[1] else "")


def show_clause(c: frozenset) -> str:
    if not c:
        return "$false"
    return "|".join(("" if pos else "~") + show_term(atom) for pos, atom in sorted(c, key=repr))


def apply(sub: dict, t):
    if isinstance(t, str):
        return sub.get(t, t)
    return (t[0], tuple(apply(sub, a) for a in t[1]))


def apply_clause(sub: dict, c: frozenset) -> frozenset:
    return frozenset((pos, apply(sub, atom)) for pos, atom in c)


def _match(p, t, sub: dict):
    """Extend ``sub`` so that ``p`` under it equals ``t``; None if impossible."""
    if isinstance(p, str):
        bound = sub.get(p)
        if bound is None:
            out = dict(sub)
            out[p] = t
            return out
        return sub if bound == t else None
    if isinstance(t, str) or p[0] != t[0] or len(p[1]) != len(t[1]):
        return None
    for a, b in zip(p[1], t[1]):
        sub = _match(a, b, sub)
        if sub is None:
            return None
    return sub


def _resolve(t, sub: dict):
    """``t`` with every bound variable replaced, through chains of bindings."""
    if isinstance(t, str):
        return _resolve(sub[t], sub) if t in sub else t
    return (t[0], tuple(_resolve(a, sub) for a in t[1]))


def _occurs(v: str, t) -> bool:
    return t == v if isinstance(t, str) else any(_occurs(v, a) for a in t[1])


def unify(a, b):
    """A most general unifier of two terms or atoms, with occurs check, or None."""
    sub: dict = {}
    stack = [(a, b)]
    while stack:
        s, t = stack.pop()
        s, t = _resolve(s, sub), _resolve(t, sub)
        if s == t:
            continue
        if isinstance(t, str) and not isinstance(s, str):
            s, t = t, s
        if isinstance(s, str):
            if _occurs(s, t):
                return None
            sub[s] = t
        elif s[0] != t[0] or len(s[1]) != len(t[1]):
            return None
        else:
            stack.extend(zip(s[1], t[1]))
    return {v: _resolve(v, sub) for v in sub}


def resolvents(c: frozenset, d: frozenset):
    """The consensus of ``c`` and ``d`` on each complementary pair of
    literals whose atoms unify.

    The clauses are not renamed apart: consensus is taken on the clauses as
    written, as pikit defines it, so a variable both share is one variable.
    """
    for pos, atom in c:
        for pos2, atom2 in d:
            if pos2 == pos or atom2[0] != atom[0]:
                continue
            mgu = unify(atom, atom2)
            if mgu is not None:
                rest = (c - {(pos, atom)}) | (d - {(pos2, atom2)})
                yield apply_clause(mgu, rest)


def subsumer(c: frozenset, d: frozenset):
    """A substitution s with c·s ⊆ d (θ-subsumption), or None.

    Variables of ``d`` are rigid; the search backtracks over every choice
    of target literal, so it is complete.
    """
    lits = sorted(c, key=repr)

    def search(i, sub):
        if i == len(lits):
            return sub
        pos, atom = lits[i]
        for pos2, atom2 in d:
            if pos2 == pos:
                nxt = _match(atom, atom2, sub)
                if nxt is not None:
                    found = search(i + 1, nxt)
                    if found is not None:
                        return found
        return None

    return search(0, {})


def subsumes(c: frozenset, d: frozenset) -> bool:
    return subsumer(c, d) is not None


def is_fundamental(c: frozenset) -> bool:
    """False when some atom occurs with both signs."""
    pos = {atom for sign, atom in c if sign}
    return not any(atom in pos for sign, atom in c if not sign)


def true_in(c: frozenset, interp: dict) -> bool:
    """Truth of a clause, read universally, where each predicate is constant."""
    return any(interp[atom[0]] == sign for sign, atom in c)


def constant_models(clauses, predicates) -> list[dict]:
    """The interpretations, among those that make every predicate constantly
    true or constantly false, in which every clause holds."""
    preds = sorted(predicates)
    out = []
    for values in itertools.product((False, True), repeat=len(preds)):
        interp = dict(zip(preds, values))
        if all(true_in(c, interp) for c in clauses):
            out.append(interp)
    return out


def predicates_of(clauses) -> set:
    return {atom[0] for c in clauses for _, atom in c}


def _covered(c: frozenset, members, texts: set) -> bool:
    return c in texts or any(subsumes(m, c) for m in members)


def check_minimal(members) -> list[str]:
    """Every member fundamental; no member θ-subsumes another."""
    problems = []
    for i, m in enumerate(members):
        if not is_fundamental(m):
            problems.append("member %d is not fundamental" % i)
    for i, j in itertools.permutations(range(len(members)), 2):
        if subsumes(members[i], members[j]):
            problems.append("member %d subsumes member %d" % (i, j))
            break
    return problems


def check_consensus_covered(pairs, members) -> list[str]:
    """Every fundamental consensus of each pair of clauses is θ-subsumed by
    a member.

    A consensus of two association-free members can never be blocked, so
    saturation must have produced it and residue kept a member subsuming
    it.  This is what shows that the consensus work was done at all: the
    other checks also pass on the residue of the inputs alone.
    """
    for c, d in pairs:
        for r in resolvents(c, d):
            if is_fundamental(r) and not any(subsumes(m, r) for m in members):
                return ["consensus %s of two association-free members is not subsumed"
                        % show_clause(r)]
    return []


def check_compiled(inputs, members, free) -> list[str]:
    """Checks on ``compile(inputs)``: minimal, covering, closed under the
    consensus of association-free members (``free[i]`` says whether member
    i is one), and true in every constant-predicate model of the inputs."""
    problems = check_minimal(members)
    loose = [m for m, f in zip(members, free) if f]
    problems += check_consensus_covered(itertools.combinations(loose, 2), members)
    texts = set(members)
    for i, c in enumerate(inputs):
        if is_fundamental(c) and not _covered(c, members, texts):
            problems.append("input %d is not subsumed by any member" % i)
    for interp in constant_models(inputs, predicates_of(inputs) | predicates_of(members)):
        for i, m in enumerate(members):
            if not true_in(m, interp):
                problems.append("member %d is false in model %s" % (i, interp))
                return problems
    return problems


def check_fold(previous, clause, members, free, hidden: dict) -> list[str]:
    """Checks on one ``add_clause`` of ``clause`` into the KB ``previous``.

    The stream keeps ``hidden`` as a model, so the result must be
    consistent and true there, and it must subsume what it replaced.  When
    the folded clause stays a member, the fold has taken its consensus with
    every member of the result, so each association-free member's
    consensus with it must be subsumed (``free`` as in ``check_compiled``).
    """
    problems = []
    if FALSE in members:
        problems.append("fold result is $false")
    for i, m in enumerate(members):
        if not true_in(m, hidden):
            problems.append("member %d is false in the hidden interpretation" % i)
    texts = set(members)
    if not _covered(clause, members, texts):
        problems.append("folded clause is not subsumed by the result")
    for i, p in enumerate(previous):
        if not _covered(p, members, texts):
            problems.append("previous member %d is not subsumed by the result" % i)
    if (clause, True) in set(zip(members, free)):
        loose = [m for m, f in zip(members, free) if f and m != clause]
        problems += check_consensus_covered([(clause, m) for m in loose], members)
    return problems


def check_query(members, query: frozenset, code: int, stdout: str, built_entailed: bool) -> list[str]:
    """Checks on one ``pikit query``: exit code and printed witness."""
    tautology = not is_fundamental(query)
    expected = 0 if tautology or any(subsumes(m, query) for m in members) else 1
    problems = []
    if code != expected:
        problems.append("exit code %d, expected %d" % (code, expected))
    if built_entailed and code != 0:
        problems.append("built-to-be-entailed query answered %d" % code)
    line = stdout.strip()
    if code == 1:
        if line != "NO":
            problems.append("NO answer printed %r" % line)
    elif code == 0 and tautology:
        if line != "YES tautology":
            problems.append("tautology answer printed %r" % line)
    elif code == 0:
        m = re.fullmatch(r"YES witness=(\S+) subst=(\{.*\})", line)
        if m is None:
            return problems + ["YES answer printed %r" % line]
        try:
            witness = parse_clause(m.group(1))
            sub = parse_substitution(m.group(2))
        except TextError as err:
            return problems + ["unreadable witness: %s" % err]
        if witness not in set(members):
            problems.append("witness %s is not a member" % m.group(1))
        if not apply_clause(sub, witness) <= query:
            problems.append("substitution does not map the witness into the query")
    return problems
