"""First-order syntax: terms, literals, and substitutions.

An atom is a `Compound` whose functor is the predicate, so unification and
matching treat atoms and terms alike (Robinson, 1965); the grammar keeps
predicates and function symbols apart by position.

Variable names live in one global namespace shared by every clause of a
knowledge base; clauses are deliberately not standardized apart before
unification.

`Variable`, `Compound` and `Literal` are immutable `_Node`s, each built in
one step that sets every field: the node's arguments, and its `text` and
its `variables` (the frozenset of the variable names in it) from those its
arguments fixed; a literal also sets its `sort_key` and its θ-subsumption
`features`, so a literal's features are computed once however many
clauses hold it.  Nodes and
`Substitution`s are interned (hash-consed, as in Filliâtre & Conchon,
"Type-Safe Modular Hash-Consing", 2006): each constructor looks its value
up in a weak table of its kind, keyed by the name, ``(functor, args)``,
``(atom, positive)`` or the set of non-identity bindings, and builds an
object only on a miss.  So equal values are one object, and equality and
hashing are object identity: comparing two deep terms does not recurse,
and the equality is structural, whatever the names.  Copies and unpickles
go through the constructors, so they give the one object too.  An object
nobody holds leaves its table, so nothing is kept from one call to the
next that its caller does not keep.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, KeysView, Mapping, Union
from weakref import ref

from _weakref import _remove_dead_weakref


_NO_VARIABLES: frozenset[str] = frozenset()
_set = object.__setattr__


def _absent() -> None:
    """A table lookup's default: answers as a dead reference does."""


class _Entry(ref):
    """An intern-table entry: a weak reference to the table's object that
    knows its key.  Unlike `weakref.KeyedRef`, whose `__new__` and
    `__init__` are Python functions, it is built in C; `key` is set after."""

    __slots__ = ("key",)


def _weak_table() -> tuple[dict, Callable]:
    """One kind's intern table, a dict from key to an `_Entry` of the one
    object with that value, and `enter(key, value)`, which returns the live
    object under `key`: `value`, unless another thread entered one first.

    `enter` sets the entry's key before one `dict.setdefault` publishes it.
    It and the callback that runs when an entered object goes remove an
    entry only while it is still dead.  The keys hash and compare in C, so
    no other thread runs inside a table operation, no lock is taken, and no
    two live objects ever have one value.
    """
    table: dict = {}

    def remove(entry: _Entry) -> None:
        _remove_dead_weakref(table, entry.key)

    def enter(key, value):
        entry = _Entry(value, remove)
        entry.key = key
        while True:
            live = table.setdefault(key, entry)()
            if live is not None:
                return live
            _remove_dead_weakref(table, key)

    return table, enter


_VARIABLES, _enter_variable = _weak_table()
_COMPOUNDS, _enter_compound = _weak_table()
_LITERALS, _enter_literal = _weak_table()
_SUBSTITUTIONS, _enter_substitution = _weak_table()


class _Node:
    """An immutable, interned term or literal that prints as its text."""

    __slots__ = ("text", "variables", "__weakref__")

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name: str) -> None:
        raise AttributeError("cannot delete field %r" % name)

    def __str__(self) -> str:
        return self.text

    __repr__ = __str__


class Variable(_Node):
    __slots__ = ("name",)

    def __new__(cls, name: str) -> Variable:
        self = _VARIABLES.get(name, _absent)()
        if self is None:
            self = object.__new__(cls)
            _set(self, "name", name)
            _set(self, "text", name)
            _set(self, "variables", frozenset((name,)))
            self = _enter_variable(name, self)
        return self

    def __reduce__(self) -> tuple:
        return Variable, (self.name,)


class Compound(_Node):
    """A function or predicate application; a constant is a compound with
    no arguments, and a literal's atom is a compound over its predicate."""

    __slots__ = ("functor", "args")

    def __new__(cls, functor: str, args: tuple[Term, ...] = ()) -> Compound:
        key = (functor, args)
        self = _COMPOUNDS.get(key, _absent)()
        if self is None:
            self = object.__new__(cls)
            text = "%s(%s)" % (functor, ",".join([a.text for a in args])) if args else functor
            # Ground nodes share one empty set; a node with one non-ground
            # argument shares that argument's set.
            sets = [a.variables for a in args if a.variables] or [_NO_VARIABLES]
            _set(self, "functor", functor)
            _set(self, "args", args)
            _set(self, "text", text)
            _set(self, "variables", sets[0] if len(sets) == 1 else frozenset().union(*sets))
            self = _enter_compound(key, self)
        return self

    def __reduce__(self) -> tuple:
        return Compound, (self.functor, self.args)


Term = Union[Variable, Compound]


class Literal(_Node):
    """A possibly negated atom.

    `sort_key` is the canonical literal order: predicate, then sign, then
    argument text.  `features` is the frozenset of its `literal_features`,
    computed once, when the literal is first built.
    """

    __slots__ = ("atom", "positive", "sort_key", "features")

    def __new__(cls, atom: Compound, positive: bool = True) -> Literal:
        key = (atom, positive)
        self = _LITERALS.get(key, _absent)()
        if self is None:
            self = object.__new__(cls)
            _set(self, "atom", atom)
            _set(self, "positive", positive)
            text = atom.text if positive else "~" + atom.text
            _set(self, "text", text)
            _set(self, "variables", atom.variables)
            sort_key = (atom.functor, 0 if positive else 1, tuple([a.text for a in atom.args]))
            _set(self, "sort_key", sort_key)
            _set(self, "features", frozenset(literal_features(text, atom.args)))
            self = _enter_literal(key, self)
        return self

    def __reduce__(self) -> tuple:
        return Literal, (self.atom, self.positive)


def literal_features(text: str, args: tuple[Term, ...]) -> list:
    """The items a substitution keeps of the literal printed as `text` over
    the atom arguments `args`: its signed head, ``"p"`` or ``"~p"``; an
    ``(f, arity)`` for each compound in `args`; and `text` if it names no
    variable, as a text compares without recursion however deep it is.
    A `Literal` holds its own as `features`; a store load asks it of a
    literal it has read but not built."""
    out: list = [text.partition("(")[0]]
    ground = True
    stack = list(args)
    while stack:
        t = stack.pop()
        if type(t) is Compound:
            out.append((t.functor, len(t.args)))
            stack.extend(t.args)
        else:
            ground = False
    if ground:
        out.append(text)
    return out


class Substitution:
    """An immutable, interned finite map from variable names to terms.

    Identity bindings are dropped at construction, so two substitutions are
    one object exactly when their stored binding maps are equal.  Of equal
    maps built in different orders, the first one built is kept.
    """

    __slots__ = ("_bindings", "__weakref__")

    def __new__(
        cls, bindings: Mapping[str, Term] | Iterable[tuple[str, Term]] = ()
    ) -> Substitution:
        out = {n: t for n, t in dict(bindings).items() if type(t) is not Variable or t.name != n}
        key = frozenset(out.items())
        self = _SUBSTITUTIONS.get(key, _absent)()
        if self is None:
            self = object.__new__(cls)
            self._bindings = out
            self = _enter_substitution(key, self)
        return self

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

    def __reduce__(self) -> tuple:
        return Substitution, (self._bindings,)

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
    compounds settle it at once: they unify exactly when they are one node.
    """
    if type(a) is Compound and type(b) is Compound:
        # Two atoms, mostly: check their heads once, then solve their
        # arguments, rather than compare the whole atoms first.
        if a.functor != b.functor or len(a.args) != len(b.args):
            return None
        stack = list(reversed(list(zip(a.args, b.args))))
    else:
        # What is no node gets `apply`'s TypeError; a literal is no term.
        stack = [(_apply({}, a), _apply({}, b))]
        if type(a) is Literal or type(b) is Literal:
            raise TypeError("cannot unify a Literal; unify its atom")

    d: dict[str, Term] = {}
    while stack:
        s, t = stack.pop()
        if d:
            s = _apply(d, s)
            t = _apply(d, t)
        if s is t:
            continue
        if type(s) is Variable:
            if s.name in t.variables:
                return None
            _bind(d, s.name, t)
        elif type(t) is Variable:
            if t.name in s.variables:
                return None
            _bind(d, t.name, s)
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
    pattern matches only itself.
    """
    if type(p) is Variable:
        bound = d.get(p.name)
        if bound is None:
            out = dict(d)
            out[p.name] = t
            return out
        return d if bound is t else None
    if not p.variables:
        return d if p is t else None
    if type(t) is Variable or p.functor != t.functor or len(p.args) != len(t.args):
        return None
    for pa, ta in zip(p.args, t.args):
        d = _match(pa, ta, d)
        if d is None:
            return None
    return d
