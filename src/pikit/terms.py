"""First-order syntax: terms, literals, and substitutions.

An atom is a `Compound` whose functor is the predicate, so unification and
matching treat atoms and terms alike (Robinson, 1965); the grammar keeps
predicates and function symbols apart by position.

Variable names live in one global namespace shared by every clause of a
knowledge base; clauses are deliberately not standardized apart before
unification.

`Variable`, `Compound` and `Literal` are immutable `_Node`s, each built in
one step that sets every field: the node's arguments, and its `text`, its
`variables` (the frozenset of the variable names in it) and its hash from
those its arguments fixed; a literal also sets its `sort_key`.  Two nodes
are equal when their types, fixed hashes and texts are, so comparing two
deep terms does not recurse.  That is structural equality only for the
names the clause grammar accepts, whose printed form is injective: the
constructors do not check names, and ``Compound("f", (Compound("a,b"),))``
prints, and so compares, like ``f(a,b)``.  Only grammar names are supported.
`PYTHONHASHSEED` salts string hashes, so nodes, `Substitution`s and `Clause`s
copy and unpickle through their constructors, which fix the hash anew.
"""

from __future__ import annotations

from typing import Iterable, Iterator, KeysView, Mapping, Union


_NO_VARIABLES: frozenset[str] = frozenset()
_set = object.__setattr__


class _Node:
    """An immutable term or literal that compares and hashes by its fixed
    text and hash, and prints as its text."""

    __slots__ = ("text", "variables", "_hash")

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name: str) -> None:
        raise AttributeError("cannot delete field %r" % name)

    def __eq__(self, other: object) -> bool:
        return self is other or (
            type(other) is type(self) and other._hash == self._hash and other.text == self.text
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return self.text

    __repr__ = __str__


class Variable(_Node):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        _set(self, "name", name)
        _set(self, "text", name)
        _set(self, "variables", frozenset((name,)))
        _set(self, "_hash", hash(("v", name)))

    def __reduce__(self) -> tuple:
        return Variable, (self.name,)


class Compound(_Node):
    """A function or predicate application; a constant is a compound with
    no arguments, and a literal's atom is a compound over its predicate."""

    __slots__ = ("functor", "args")

    def __init__(self, functor: str, args: tuple[Term, ...] = ()) -> None:
        text = "%s(%s)" % (functor, ",".join([a.text for a in args])) if args else functor
        # Ground nodes share one empty set; a node with one non-ground
        # argument shares that argument's set.
        sets = [a.variables for a in args if a.variables] or [_NO_VARIABLES]
        _set(self, "functor", functor)
        _set(self, "args", args)
        _set(self, "text", text)
        _set(self, "variables", sets[0] if len(sets) == 1 else frozenset().union(*sets))
        _set(self, "_hash", hash((functor, args)))

    def __reduce__(self) -> tuple:
        return Compound, (self.functor, self.args)


Term = Union[Variable, Compound]


class Literal(_Node):
    """A possibly negated atom.

    `sort_key` is the canonical literal order: predicate, then sign, then
    argument text.
    """

    __slots__ = ("atom", "positive", "sort_key")

    def __init__(self, atom: Compound, positive: bool = True) -> None:
        _set(self, "atom", atom)
        _set(self, "positive", positive)
        _set(self, "text", atom.text if positive else "~" + atom.text)
        _set(self, "variables", atom.variables)
        _set(self, "_hash", hash((atom, positive)))
        key = (atom.functor, 0 if positive else 1, tuple([a.text for a in atom.args]))
        _set(self, "sort_key", key)

    def __reduce__(self) -> tuple:
        return Literal, (self.atom, self.positive)


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

    def keys(self) -> KeysView[str]:
        return self._bindings.keys()

    def is_empty(self) -> bool:
        return not self._bindings

    def __len__(self) -> int:
        return len(self._bindings)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Substitution):
            return NotImplemented
        return self._bindings == other._bindings

    def __reduce__(self) -> tuple:
        return Substitution, (self._bindings,)

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


def apply(sub: Substitution, x):
    """Simultaneously replace every variable bound by `sub` inside `x`.

    Works on terms (atoms included) and literals; a clause is rebuilt
    literal by literal by its caller.  A node none of whose variables `sub`
    binds comes back as it is.
    """
    return _apply(sub._bindings, x)


def _apply(d, x):
    """`apply` of a name-to-term map, dispatched once on the node's type."""
    kind = type(x)
    if kind is Variable:
        return d.get(x.name, x)
    if kind is Compound:
        if d.keys().isdisjoint(x.variables):
            return x
        args = []
        for arg in x.args:
            args.append(_apply(d, arg))
        return Compound(x.functor, tuple(args))
    if kind is Literal:
        if d.keys().isdisjoint(x.variables):
            return x
        return Literal(_apply(d, x.atom), x.positive)
    raise TypeError("cannot apply a substitution to %s" % kind.__name__)


def compose(s1: Substitution, s2: Substitution) -> Substitution:
    """The substitution equivalent to applying `s1` first, then `s2`."""
    out: dict[str, Term] = {v: apply(s2, t) for v, t in s1.items()}
    for v, t in s2.items():
        out.setdefault(v, t)
    return Substitution(out)


def _bind(d: dict[str, Term], name: str, term: Term) -> None:
    one = {name: term}
    for k, v in d.items():
        if name in v.variables:
            d[k] = _apply(one, v)
    d[name] = term


def unify(a: Term, b: Term) -> Substitution | None:
    """Most general unifier of two terms (atoms included), or None.

    Robinson-style with occurs check; the result is idempotent.  Equations
    are solved left to right from one stack, so a variable meeting another
    variable binds the left one to the right.  The bindings so far are
    applied to an equation only once there are some, and two ground
    compounds settle it by their texts: they unify exactly when equal.
    """
    if type(a) is Compound and type(b) is Compound:
        # Two atoms, mostly: check their heads once, then solve their
        # arguments, rather than compare the whole atoms first.
        if a.functor != b.functor or len(a.args) != len(b.args):
            return None
        stack = list(reversed(list(zip(a.args, b.args))))
    else:
        # What is no term, atom or literal gets `apply`'s TypeError.
        stack = [(_apply({}, a), _apply({}, b))]

    d: dict[str, Term] = {}
    while stack:
        s, t = stack.pop()
        if d:
            s = _apply(d, s)
            t = _apply(d, t)
        if type(s) is Variable:
            if type(t) is Variable and t.name == s.name:
                continue
            if s.name in t.variables:
                return None
            _bind(d, s.name, t)
        elif type(t) is Variable:
            if t.name in s.variables:
                return None
            _bind(d, t.name, s)
        elif s.text == t.text:
            continue
        elif not (s.variables or t.variables):
            return None
        elif s.functor != t.functor or len(s.args) != len(t.args):
            return None
        else:
            stack.extend(reversed(list(zip(s.args, t.args))))
    return Substitution(d)


def _match(p, t, d: dict[str, Term]) -> dict[str, Term] | None:
    """Extend the raw binding map `d` so that the pattern maps onto `t`.

    Identity bindings are kept in the map (they pin a variable to itself for
    later consistency checks); callers normalize at the end.  A ground
    pattern matches only its equal, which one compare of the fixed texts
    settles.
    """
    if type(p) is Variable:
        bound = d.get(p.name)
        if bound is None:
            out = dict(d)
            out[p.name] = t
            return out
        return d if bound == t else None
    if not p.variables:
        return d if p.text == t.text else None
    if type(t) is Variable or p.functor != t.functor or len(p.args) != len(t.args):
        return None
    for pa, ta in zip(p.args, t.args):
        d = _match(pa, ta, d)
        if d is None:
            return None
    return d
