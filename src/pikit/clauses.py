"""Clauses as canonical literal sets, θ-subsumption, and subsumption residue."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .terms import EMPTY, Compound, Literal, Substitution, _match


@dataclass(frozen=True)
class Clause:
    """A duplicate-free disjunction of literals in a fixed canonical order.

    Construction merges duplicate literals and sorts, so clause equality is
    insensitive to the order literals were supplied in.  The empty clause
    prints as ``$false``.
    """

    literals: tuple[Literal, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(set(self.literals), key=lambda l: l.sort_key))
        object.__setattr__(self, "literals", ordered)
        object.__setattr__(self, "_hash", hash(ordered))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def features(self) -> frozenset:
        """What every clause that θ-subsumes this one has.

        One set of three kinds of items: ``"p"``/``"~p"`` for each predicate
        and sign, ``(f, arity)`` for each function symbol and constant, and
        each ground literal.  A substitution keeps all three, so if c
        θ-subsumes d then c's features are a subset of d's.  Literal counts
        and clause lengths give no such condition: ``p(X)|p(Y)`` subsumes
        ``p(a)``.
        """
        out: set = set()
        for lit in self.literals:
            out.add(lit.atom.predicate if lit.positive else "~" + lit.atom.predicate)
            if lit.ground:
                out.add(lit)
            stack = list(lit.atom.args)
            while stack:
                t = stack.pop()
                if isinstance(t, Compound):
                    out.add((t.functor, len(t.args)))
                    stack.extend(t.args)
        return frozenset(out)

    def is_fundamental(self) -> bool:
        """False iff some atom occurs both positively and negatively."""
        pos = {l.atom for l in self.literals if l.positive}
        neg = {l.atom for l in self.literals if not l.positive}
        return not (pos & neg)

    @property
    def is_empty(self) -> bool:
        return not self.literals

    def __iter__(self) -> Iterator[Literal]:
        return iter(self.literals)

    def __len__(self) -> int:
        return len(self.literals)

    def __str__(self) -> str:
        return "|".join([l.text for l in self.literals]) if self.literals else "$false"

    __repr__ = __str__


def subsumes(c1: Clause, c2: Clause) -> Substitution | None:
    """Witness s with apply(s, l) in c2 for every literal l of c1, or None.

    Complete backtracking search over literal-to-literal matchings; the
    first witness in canonical literal order is returned, so the result is
    deterministic.  The empty clause subsumes everything.
    """
    lits1 = c1.literals
    lits2 = c2.literals

    def search(i: int, d: dict) -> dict | None:
        if i == len(lits1):
            return d
        lit = lits1[i]
        for cand in lits2:
            if cand.positive != lit.positive:
                continue
            nxt = _match(lit.atom, cand.atom, d)
            if nxt is None:
                continue
            found = search(i + 1, nxt)
            if found is not None:
                return found
        return None

    found = search(0, {})
    return None if found is None else Substitution(found)


@dataclass(frozen=True)
class AssocClause:
    """A clause together with its association and provenance.

    Input clauses carry the empty association; consensus results carry the
    composed substitution and the ids of their parents.  A member is its
    (clause, assoc) pair: equality and the hash, fixed when it is built,
    ignore `parents`, which only records where the member came from.
    """

    clause: Clause
    assoc: Substitution = EMPTY
    parents: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.clause, self.assoc)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, AssocClause):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.clause == other.clause
            and self.assoc == other.assoc
        )

    @property
    def origin(self) -> str:
        if self.parents is None:
            return "input"
        return "consensus(%d,%d)" % self.parents

    @property
    def entry_text(self) -> str:
        assoc = self.assoc.bindings_text
        return "%s ; assoc%s ; origin %s" % (
            self.clause,
            " " + assoc if assoc else "",
            self.origin,
        )

    def __str__(self) -> str:
        return self.entry_text

    __repr__ = __str__


class ClauseSet:
    """Insertion-ordered set of associated clauses.

    Members are unique by (clause, assoc): the same clause text with a
    different association is kept as a distinct member, since associations
    gate consensus eligibility.  Of two equal members the first one added
    is kept.
    """

    __slots__ = ("_members",)

    def __init__(self, members: Iterable[AssocClause] = ()):
        self._members: dict[AssocClause, None] = dict.fromkeys(members)

    def add(self, member: AssocClause) -> bool:
        """Append a member; False when an equal (clause, assoc) pair exists."""
        if member in self._members:
            return False
        self._members[member] = None
        return True

    def __contains__(self, member: AssocClause) -> bool:
        return member in self._members

    def __iter__(self) -> Iterator[AssocClause]:
        return iter(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def copy(self) -> "ClauseSet":
        out = ClauseSet()
        out._members = self._members.copy()
        return out

    @property
    def members(self) -> tuple[AssocClause, ...]:
        return tuple(self._members)

    def clause_texts(self) -> list[str]:
        return [str(m.clause) for m in self]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClauseSet):
            return NotImplemented
        return self.members == other.members

    def __repr__(self) -> str:
        return "{%s}" % ", ".join(str(m.clause) for m in self)


@dataclass
class Residue:
    """Result of subsumption-minimizing a clause set."""

    kept: ClauseSet


def residue(s: ClauseSet, stats=None, settled: int = 0) -> Residue:
    """Subsumption-minimal subset of `s` that still subsumes every member.

    Deletion looks only at clause content, never at associations.  When two
    members subsume each other (variants or duplicates) the earlier-inserted
    one wins, which keeps runs reproducible and favours established members
    over newcomers.

    Member i is deleted by the first member j, in order, that subsumes it,
    unless i subsumes j back and comes first.  `subsumption_checks` counts
    each ordered pair this decides, once.  Most pairs are decided by the
    clause features alone: j cannot subsume i unless its features are a
    subset of i's, and only the pairs that pass reach `subsumes`.  The count
    is the same whichever way a pair is decided.

    `settled` says that the first `settled` members of `s` are, in any
    order, the kept set of an earlier residue.  That set is an antichain:
    if j covered i and both were kept, i's scan shows that i covers j and
    i < j, and then j's scan deletes j.  So no pair of two settled members
    is searched, and a settled member's scan starts after them.  The kept
    set and the count come out as with the default, 0, which searches
    every pair.
    """
    members = list(s)
    n = len(members)
    feats = [m.clause.features for m in members]
    searched: dict[tuple[int, int], bool] = {}

    def covers(j: int, i: int) -> bool:
        if not feats[j] <= feats[i]:
            return False
        k = (j, i)
        got = searched.get(k)
        if got is None:
            got = searched[k] = subsumes(members[j].clause, members[i].clause) is not None
        return got

    kept: list[AssocClause] = []
    reach: list[int] = []  # per member i: the last j its scan decided
    back: list[tuple[int, int]] = []  # (i, j): j covers i, so i-covers-j was decided
    for i in range(n):
        last = n - 1
        for j in range(settled if i < settled else 0, n):
            if j == i or not covers(j, i):
                continue
            back.append((i, j))
            if not covers(i, j) or j < i:
                last = j
                break
        else:
            kept.append(members[i])
        reach.append(last)
    if stats is not None:
        # The scan of i decided j covers i for every j <= reach[i] but i; a
        # back pair (i, j) is new unless the scan of j already reached i.
        scanned = sum(last + (last < i) for i, last in enumerate(reach))
        stats.subsumption_checks += scanned + sum(1 for i, j in back if i > reach[j])
    return Residue(ClauseSet(kept))
