"""First-order syntax: terms, atoms, literals, and substitutions.

Variable names live in one global namespace shared by every clause of a
knowledge base; clauses are deliberately not standardized apart before
unification.

Every node fixes its `text`, its `ground` flag and its hash when it is
built, from those of its arguments, which are built first; a literal also
fixes its `sort_key`.  Equality stays structural.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Union


def _fix(node, text: str, ground: bool, parts: tuple) -> None:
    object.__setattr__(node, "text", text)
    object.__setattr__(node, "ground", ground)
    object.__setattr__(node, "_hash", hash(parts))


def _fix_application(node, head: str, args: tuple) -> None:
    text = "%s(%s)" % (head, ",".join([a.text for a in args])) if args else head
    _fix(node, text, all([a.ground for a in args]), (head, args))


@dataclass(frozen=True)
class Variable:
    name: str

    def __post_init__(self) -> None:
        _fix(self, self.name, False, ("v", self.name))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return self.text

    __repr__ = __str__


@dataclass(frozen=True)
class Compound:
    """A function application; a constant is a compound with no arguments."""

    functor: str
    args: tuple["Term", ...] = ()

    def __post_init__(self) -> None:
        _fix_application(self, self.functor, self.args)

    __hash__ = Variable.__hash__
    __str__ = __repr__ = Variable.__str__


Term = Union[Variable, Compound]


@dataclass(frozen=True)
class Atom:
    predicate: str
    args: tuple[Term, ...] = ()

    def __post_init__(self) -> None:
        _fix_application(self, self.predicate, self.args)

    __hash__ = Variable.__hash__
    __str__ = __repr__ = Variable.__str__


@dataclass(frozen=True)
class Literal:
    """A possibly negated atom.

    `sort_key` is the canonical literal order: predicate, then sign, then
    argument text.
    """

    atom: Atom
    positive: bool = True

    def __post_init__(self) -> None:
        atom = self.atom
        text = atom.text if self.positive else "~" + atom.text
        _fix(self, text, atom.ground, (atom, self.positive))
        key = (atom.predicate, 0 if self.positive else 1, tuple([a.text for a in atom.args]))
        object.__setattr__(self, "sort_key", key)

    __hash__ = Variable.__hash__
    __str__ = __repr__ = Variable.__str__


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
        return x if x.ground else Compound(x.functor, tuple(apply(sub, a) for a in x.args))
    if isinstance(x, Atom):
        return x if x.ground else Atom(x.predicate, tuple(apply(sub, a) for a in x.args))
    if isinstance(x, Literal):
        return x if x.ground else Literal(apply(sub, x.atom), x.positive)
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
    return not t.ground and any(_occurs(name, a) for a in t.args)


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
