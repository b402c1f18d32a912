"""First-order syntax: terms, atoms, literals, and substitutions.

Variable names live in one global namespace shared by every clause of a
knowledge base; clauses are deliberately not standardized apart before
unification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Union


def _cached_hash(obj, parts) -> int:
    # Terms are hashed heavily as dict keys during saturation; memoize.
    h = obj.__dict__.get("_hash")
    if h is None:
        h = hash(parts)
        object.__setattr__(obj, "_hash", h)
    return h


@dataclass(frozen=True)
class Variable:
    name: str

    def __hash__(self) -> int:
        return _cached_hash(self, ("v", self.name))

    def __str__(self) -> str:
        return self.name

    __repr__ = __str__


@dataclass(frozen=True)
class Compound:
    """A function application; a constant is a compound with no arguments."""

    functor: str
    args: tuple["Term", ...] = ()

    def __hash__(self) -> int:
        return _cached_hash(self, (self.functor, self.args))

    def __str__(self) -> str:
        if not self.args:
            return self.functor
        return "%s(%s)" % (self.functor, ",".join(str(a) for a in self.args))

    __repr__ = __str__


Term = Union[Variable, Compound]


@dataclass(frozen=True)
class Atom:
    predicate: str
    args: tuple[Term, ...] = ()

    def __hash__(self) -> int:
        return _cached_hash(self, (self.predicate, self.args))

    def __str__(self) -> str:
        if not self.args:
            return self.predicate
        return "%s(%s)" % (self.predicate, ",".join(str(a) for a in self.args))

    __repr__ = __str__


@dataclass(frozen=True)
class Literal:
    """A possibly negated atom."""

    atom: Atom
    positive: bool = True

    def __hash__(self) -> int:
        return _cached_hash(self, (self.atom, self.positive))

    @property
    def sort_key(self) -> tuple:
        # Canonical literal order: predicate, then sign, then argument text.
        key = self.__dict__.get("_sort_key")
        if key is None:
            sign = 0 if self.positive else 1
            key = (self.atom.predicate, sign, tuple(str(a) for a in self.atom.args))
            object.__setattr__(self, "_sort_key", key)
        return key

    def __str__(self) -> str:
        return str(self.atom) if self.positive else "~" + str(self.atom)

    __repr__ = __str__


class Substitution:
    """An immutable finite map from variable names to terms.

    Identity bindings are dropped at construction, so two substitutions are
    equal exactly when their stored binding maps are equal.
    """

    __slots__ = ("_bindings", "_hash")

    def __init__(self, bindings: Mapping[str, Term] | Iterable[tuple[str, Term]] = ()):
        out: dict[str, Term] = {}
        for name, term in dict(bindings).items():
            if isinstance(term, Variable) and term.name == name:
                continue
            out[name] = term
        self._bindings = out
        self._hash: int | None = None

    def get(self, name: str, default: Term | None = None) -> Term | None:
        return self._bindings.get(name, default)

    def items(self) -> Iterator[tuple[str, Term]]:
        return iter(self._bindings.items())

    def is_empty(self) -> bool:
        return not self._bindings

    def __len__(self) -> int:
        return len(self._bindings)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Substitution):
            return NotImplemented
        return self._bindings == other._bindings

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._bindings.items()))
        return self._hash

    @property
    def bindings_text(self) -> str:
        return ",".join("%s->%s" % (v, t) for v, t in sorted(self._bindings.items()))

    def __str__(self) -> str:
        return "{%s}" % self.bindings_text

    __repr__ = __str__


EMPTY = Substitution()


def apply(sub: Substitution | Mapping[str, Term], x):
    """Simultaneously replace every variable bound by `sub` inside `x`.

    `sub` is a Substitution or a plain name-to-term dict.  Works on terms,
    atoms, literals, and anything exposing an `apply_substitution` method
    (clauses).
    """
    if isinstance(x, Variable):
        return sub.get(x.name, x)
    if isinstance(x, Compound):
        return Compound(x.functor, tuple(apply(sub, a) for a in x.args)) if x.args else x
    if isinstance(x, Atom):
        return Atom(x.predicate, tuple(apply(sub, a) for a in x.args)) if x.args else x
    if isinstance(x, Literal):
        return Literal(apply(sub, x.atom), x.positive)
    applier = getattr(x, "apply_substitution", None)
    if applier is not None:
        return applier(sub)
    raise TypeError("cannot apply a substitution to %s" % type(x).__name__)


def compose(s1: Substitution, s2: Substitution) -> Substitution:
    """The substitution equivalent to applying `s1` first, then `s2`."""
    out: dict[str, Term] = {v: apply(s2, t) for v, t in s1.items()}
    for v, t in s2.items():
        out.setdefault(v, t)
    return Substitution(out)


def variables_of(x) -> set[str]:
    """The free variables of a term, atom, literal, or clause (all are free)."""
    if isinstance(x, Variable):
        return {x.name}
    if isinstance(x, (Compound, Atom)):
        out: set[str] = set()
        for a in x.args:
            out |= variables_of(a)
        return out
    if isinstance(x, Literal):
        return variables_of(x.atom)
    literals = getattr(x, "literals", None)
    if literals is not None:
        out = set()
        for lit in literals:
            out |= variables_of(lit)
        return out
    raise TypeError("cannot collect variables of %s" % type(x).__name__)


def _occurs(name: str, t: Term) -> bool:
    if isinstance(t, Variable):
        return t.name == name
    return any(_occurs(name, a) for a in t.args)


def _bind(d: dict[str, Term], name: str, term: Term) -> None:
    one = {name: term}
    for k in list(d):
        d[k] = apply(one, d[k])
    d[name] = term


def unify(a, b) -> Substitution | None:
    """Most general unifier of two terms or two atoms, or None.

    Robinson-style with occurs check; the result is idempotent.  Equations
    are solved left to right, so a variable meeting another variable binds
    the left one to the right.
    """
    if isinstance(a, Atom) or isinstance(b, Atom):
        if not (isinstance(a, Atom) and isinstance(b, Atom)):
            raise TypeError("cannot unify an atom with a term")
        if a.predicate != b.predicate or len(a.args) != len(b.args):
            return None
        pairs = list(zip(a.args, b.args))
    else:
        pairs = [(a, b)]

    d: dict[str, Term] = {}
    stack = list(reversed(pairs))
    while stack:
        s, t = stack.pop()
        s = apply(d, s)
        t = apply(d, t)
        if s == t:
            continue
        if isinstance(s, Variable):
            if _occurs(s.name, t):
                return None
            _bind(d, s.name, t)
        elif isinstance(t, Variable):
            if _occurs(t.name, s):
                return None
            _bind(d, t.name, s)
        else:
            if s.functor != t.functor or len(s.args) != len(t.args):
                return None
            stack.extend(reversed(list(zip(s.args, t.args))))
    return Substitution(d)


def _match(p, t, d: dict[str, Term]) -> dict[str, Term] | None:
    """Extend the raw binding map `d` so that the pattern maps onto `t`.

    Identity bindings are kept in the map (they pin a variable to itself for
    later consistency checks); callers normalize at the end.
    """
    if isinstance(p, Atom) or isinstance(t, Atom):
        if not (isinstance(p, Atom) and isinstance(t, Atom)):
            raise TypeError("cannot match an atom against a term")
        if p.predicate != t.predicate or len(p.args) != len(t.args):
            return None
        for pa, ta in zip(p.args, t.args):
            d = _match(pa, ta, d)
            if d is None:
                return None
        return d
    if isinstance(p, Variable):
        bound = d.get(p.name)
        if bound is None:
            out = dict(d)
            out[p.name] = t
            return out
        return d if bound == t else None
    if isinstance(t, Variable):
        return None
    if p.functor != t.functor or len(p.args) != len(t.args):
        return None
    for pa, ta in zip(p.args, t.args):
        d = _match(pa, ta, d)
        if d is None:
            return None
    return d


def match(pattern, target, bindings: Substitution | None = None) -> Substitution | None:
    """One-way matching: a substitution s with apply(s, pattern) == target."""
    seed = {v: t for v, t in bindings.items()} if bindings is not None else {}
    d = _match(pattern, target, seed)
    return None if d is None else Substitution(d)
