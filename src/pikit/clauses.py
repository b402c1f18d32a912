"""Clauses as canonical literal sets with their associations, θ-subsumption,
and subsumption residue."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .terms import EMPTY, Literal, Substitution, _match


@dataclass(frozen=True)
class Clause:
    """A duplicate-free disjunction of literals in a fixed canonical order,
    with its association and provenance.

    Construction merges duplicate literals and sorts, so clause equality is
    insensitive to the order literals were supplied in.  The empty clause
    prints as ``$false``.  Input clauses carry the empty association;
    consensus results carry the composed substitution and the ids of their
    parents.  A clause is its (literals, assoc) pair: equality and the
    hash, fixed when it is built, ignore `parents`, which only records
    where the clause came from.
    """

    literals: tuple[Literal, ...] = ()
    assoc: Substitution = EMPTY
    parents: tuple[int, int] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        ordered = tuple(sorted(set(self.literals), key=lambda l: l.sort_key))
        object.__setattr__(self, "literals", ordered)
        object.__setattr__(self, "_hash", hash((ordered, self.assoc)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        return Clause, (self.literals, self.assoc, self.parents)

    @property
    def clause(self) -> "Clause":
        """The same literals with the empty association."""
        return self if self.assoc.is_empty() else Clause(self.literals)

    @property
    def origin(self) -> str:
        if self.parents is None:
            return "input"
        return "consensus(%d,%d)" % self.parents

    @property
    def entry_text(self) -> str:
        assoc = self.assoc.bindings_text
        return "%s ; assoc%s ; origin %s" % (self, " " + assoc if assoc else "", self.origin)

    @cached_property
    def features(self) -> frozenset:
        """What every clause that θ-subsumes this one has, the union of its
        literals' `features`: if c θ-subsumes d, c's features are a subset
        of d's.  Literal counts give no such condition: ``p(X)|p(Y)``
        subsumes ``p(a)``."""
        lits = self.literals
        if not lits:
            return frozenset()
        out = lits[0].features
        for lit in lits[1:]:
            out |= lit.features
        return out

    def is_fundamental(self) -> bool:
        """False iff some atom occurs both positively and negatively."""
        return fundamental(self.literals)

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


def fundamental(literals: Sequence[Literal]) -> bool:
    """False iff some atom occurs in `literals` both positively and
    negatively; a literal list can be tested before a clause is built."""
    positive = {l.atom for l in literals if l.positive}
    return not any(l.atom in positive for l in literals if not l.positive)


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


class ClauseSet:
    """Insertion-ordered set of clauses.

    Members are unique by (literals, assoc): the same clause text with a
    different association is kept as a distinct member, since associations
    gate consensus eligibility.  Of two equal members the first one added
    is kept.
    """

    __slots__ = ("_members",)

    def __init__(self, members: Iterable[Clause] = ()):
        self._members: dict[Clause, None] = dict.fromkeys(members)

    def add(self, member: Clause) -> bool:
        """Append a member; False when an equal (literals, assoc) pair exists."""
        if member in self._members:
            return False
        self._members[member] = None
        return True

    def __contains__(self, member: Clause) -> bool:
        return member in self._members

    def __iter__(self) -> Iterator[Clause]:
        return iter(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def copy(self) -> "ClauseSet":
        out = ClauseSet()
        out._members = self._members.copy()
        return out

    @property
    def members(self) -> tuple[Clause, ...]:
        return tuple(self._members)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClauseSet):
            return NotImplemented
        return self.members == other.members

    def __repr__(self) -> str:
        return "{%s}" % ", ".join(str(m) for m in self)


@dataclass
class Residue:
    """Result of subsumption-minimizing a clause set: the kept members and
    the number of subsumption checks that decided them."""

    kept: ClauseSet
    checks: int


def residue(s: ClauseSet, settled: int = 0) -> Residue:
    """Subsumption-minimal subset of `s` that still subsumes every member.

    Deletion looks only at clause content, never at associations.  When two
    members subsume each other (variants or duplicates) the earlier-inserted
    one wins, which keeps runs reproducible and favours established members
    over newcomers.

    Member i is deleted by the first member j, in order, that subsumes it,
    unless i subsumes j back and comes first.  `checks` counts each ordered
    pair this decides, once.  Most pairs are decided by the clause features
    alone: j cannot subsume i unless its features are a subset of i's, and
    only the pairs that pass reach `subsumes`.  The count is the same
    whichever way a pair is decided.

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
    feats = [m.features for m in members]
    kept: list[Clause] = []
    reach: list[int] = []  # per member i: the last j its scan decided
    back: list[tuple[int, int]] = []  # (i, j): j covers i, so i-covers-j was decided
    for i in range(n):
        last = n - 1
        mi, fi = members[i], feats[i]
        # j covers i when its features are a subset of i's and it subsumes i.
        for j in range(settled if i < settled else 0, n):
            fj = feats[j]
            if j == i or not fj <= fi or subsumes(members[j], mi) is None:
                continue
            back.append((i, j))
            if not (fi <= fj and subsumes(mi, members[j]) is not None) or j < i:
                last = j
                break
        else:
            kept.append(mi)
        reach.append(last)
    # The scan of i decided j covers i for every j <= reach[i] but i; a back
    # pair (i, j) is new unless the scan of j already reached i.
    scanned = sum(last + (last < i) for i, last in enumerate(reach))
    checks = scanned + sum(1 for i, j in back if i > reach[j])
    return Residue(ClauseSet(kept), checks)
