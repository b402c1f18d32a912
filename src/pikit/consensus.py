"""Pairwise consensus, the pair engine, and closure to a fixpoint.

Consensus of two clauses resolves one complementary literal pair under its
mgu, but is only defined when both parents' associations compose with the
mgu to the same substitution; otherwise the attempt is blocked.  Tautological
resolvents are discarded.

One engine, `_attempt_pairs`, enumerates and classifies every attempt, for
batch closure here and for the incremental fold in the compiler.  It indexes
both sides by distinct literal, unifies each complementary literal pair
once, and groups the other side's occurrences by the composition of their
association with the mgu, so it builds only the resolvents of unblocked
attempts and counts the blocked ones; with a trace attached it visits
every attempt, in the same order.  Its one admission rule: a resolvent is
added when no equal (clause, assoc) member is in the caller's `seen` set,
and a duplicate otherwise.  The callers differ only in the pairs they ask
for, in what `seen` holds, and in what they do with the count of the pairs
they did not ask for again.  Saturation is not guaranteed to terminate on
first-order inputs, so every closure takes explicit resource limits and
fails loudly with the partial set when a cap is hit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from .clauses import AssocClause, Clause, ClauseSet
from .terms import Literal, Substitution, apply, compose, unify


@dataclass(frozen=True)
class ResourceLimits:
    """Caps on saturation rounds and on clause count; 0 is a legal cap."""

    max_rounds: int = 100
    max_clauses: int = 10_000

    def __post_init__(self) -> None:
        for name, value in (("max-rounds", self.max_rounds), ("max-clauses", self.max_clauses)):
            if value < 0:
                raise ValueError("%s limit (%d) must not be negative" % (name, value))


DEFAULT_LIMITS = ResourceLimits()


class ResourceLimitExceeded(Exception):
    """A round or clause cap was hit before reaching a fixpoint.

    Carries the partial clause set; saturation is never silently truncated.
    """

    def __init__(self, limit: str, value: int, partial: ClauseSet):
        self.limit = limit
        self.value = value
        self.partial = partial
        self.clause_index: int | None = None
        super().__init__("%s limit (%d) exceeded before reaching a fixpoint" % (limit, value))


class Outcome(str, Enum):
    ADDED = "added"
    BLOCKED = "blocked"
    NON_FUNDAMENTAL = "non_fundamental"
    DUPLICATE = "duplicate"


@dataclass(frozen=True)
class TraceEvent:
    """One record per consensus attempt, consumed by the CLI trace stream."""

    round: int
    parents: tuple[int, int]
    parent_texts: tuple[str, str]
    mgu: Substitution
    outcome: str
    result_text: str | None = None

    def format(self) -> str:
        return "ROUND %d: (%d, %d) mgu=%s -> %s" % (
            self.round,
            self.parents[0],
            self.parents[1],
            self.mgu,
            self.outcome,
        )


Trace = Callable[[TraceEvent], None]


_MISSING = object()


class _Tables:
    """One run's `unify` and `compose` results, each argument pair decided once.

    Both functions are pure and their values immutable, so a value read here
    is the value a new call would return.  A miss calls this module's global,
    whatever it is bound to at the time.  A caller keeps one `_Tables` as long
    as its `seen` set and drops it when it returns, so a pair of members
    met again in a later round reaches neither function again.
    """

    __slots__ = ("unifiers", "composed")

    def __init__(self) -> None:
        self.unifiers: dict = {}
        self.composed: dict = {}

    def unify(self, a, b) -> Substitution | None:
        got = self.unifiers.get((a, b), _MISSING)
        if got is _MISSING:
            got = self.unifiers[a, b] = unify(a, b)
        return got

    def compose(self, s1: Substitution, s2: Substitution) -> Substitution:
        got = self.composed.get((s1, s2))
        if got is None:
            got = self.composed[s1, s2] = compose(s1, s2)
        return got


def complementary_pairs(
    c1: AssocClause, c2: AssocClause
) -> list[tuple[Literal, Literal, Substitution]]:
    """All opposite-sign literal pairs (r in c1, s in c2) whose atoms unify.

    Pairs come out in the canonical literal order of c1 then c2, each with
    its mgu, so enumeration is deterministic.
    """
    pairs = []
    for r in c1.clause.literals:
        for s in c2.clause.literals:
            if r.positive == s.positive or r.atom.predicate != s.atom.predicate:
                continue
            mgu = unify(r.atom, s.atom)
            if mgu is not None:
                pairs.append((r, s, mgu))
    return pairs


def consensus(
    c1: AssocClause,
    c2: AssocClause,
    pair: tuple[Literal, Literal, Substitution],
    parents: tuple[int, int] = (0, 0),
    tables: _Tables | None = None,
) -> AssocClause | Outcome:
    """Consensus of c1 and c2 on one complementary pair.

    `pair` is one of `complementary_pairs(c1, c2)`: its two literals are the
    parents' own objects, so the resolvent drops them by identity.
    Returns Outcome.BLOCKED when the parents' associations do not compose
    consistently with the mgu, Outcome.NON_FUNDAMENTAL when the resolvent is
    tautological, and otherwise the resolvent, associated with the composed
    substitution and carrying `parents`.  With `tables`, each (association,
    mgu) pair is composed once per run.
    """
    r, s, mgu = pair
    composer = compose if tables is None else tables.compose
    a1 = composer(c1.assoc, mgu)
    a2 = composer(c2.assoc, mgu)
    if a1 != a2:
        return Outcome.BLOCKED
    rest = [apply(mgu, l) for l in c1.clause.literals if l is not r]
    rest += [apply(mgu, l) for l in c2.clause.literals if l is not s]
    resolvent = Clause(tuple(rest))
    if not resolvent.is_fundamental():
        return Outcome.NON_FUNDAMENTAL
    return AssocClause(resolvent, a1, parents=parents)


def _occurrences(members: ClauseSet, position: dict, fresh: set | None) -> dict:
    """Each distinct literal of `members` -> its occurrences, in member order.

    An occurrence is (member position, literal position, member, the
    member's position in the base or -1, whether the member is fresh).
    """
    index: dict[Literal, list] = {}
    for i, m in enumerate(members):
        j = position.get(m, -1)
        new = fresh is None or m in fresh
        for k, lit in enumerate(m.clause.literals):
            index.setdefault(lit, []).append((i, k, m, j, new))
    return index


def _attempt_pairs(
    base: ClauseSet,
    new_side: ClauseSet,
    seen: set,
    *,
    tables: _Tables,
    round_no: int = 1,
    trace: Trace | None = None,
    stats=None,
    fresh: set | None = None,
    max_clauses: int | None = None,
) -> tuple[list[AssocClause], int]:
    """Attempt consensus over ordered pairs (D1 in base, D2 in new_side).

    This is the one place consensus attempts are enumerated and classified.
    An attempt is two distinct members and a literal pair (R in D1, S in D2)
    of opposite signs on one predicate whose atoms unify.  Both sides are
    indexed by distinct literal, so each literal pair is unified once, and
    only when some attempt uses it.  An attempt is blocked exactly when the
    two associations compose differently with the mgu, so the holders of S
    are bucketed by that composition: untraced, only D1's bucket is visited
    and the blocked attempts are counted; traced, every attempt is visited
    and reported.  Visits run in (D1, D2, R, S) position order, the order of
    nested loops over members and literals, so events, parent ids,
    admissions and a limit stop come out in that order.

    A resolvent is added when it is not in `seen`, which then grows by it;
    otherwise it is a duplicate.  Parent ids are 1-based positions in `base`
    (0 for a D2 outside it).  When `fresh` is given, pairs of two non-fresh
    members are not attempted: the caller attempted each in an earlier
    round, so each can only repeat its outcome then, blocked,
    non-fundamental or duplicate.  Returns the added clauses in derivation
    order and the number of those repeated attempts.  `tables` holds the
    run's `unify` and `compose` results.  When base plus the added clauses
    outgrows `max_clauses`, ResourceLimitExceeded carries that partial set.
    """
    position = {m: i for i, m in enumerate(base)}
    left = _occurrences(base, position, fresh)
    right: dict[tuple[str, bool], list] = {}
    for lit, occ in _occurrences(new_side, position, fresh).items():
        holders = right.setdefault((lit.atom.predicate, lit.positive), [])
        holders.append((lit, occ, sum(o[4] for o in occ)))
    attempts = repeats = 0
    hits = []
    for r_lit, rs in left.items():
        opposite = right.get((r_lit.atom.predicate, not r_lit.positive))
        if opposite is None:
            continue
        r_fresh = sum(o[4] for o in rs)
        r_at = {o[0]: o[4] for o in rs}
        for s_lit, ss, s_fresh in opposite:
            if len(rs) == len(ss) == 1 and rs[0][0] == ss[0][3]:
                continue  # one member holds both: no attempt uses the pair
            mgu = tables.unify(r_lit.atom, s_lit.atom)
            if mgu is None:
                continue
            # Attempts pair two distinct holders; `both` lists the members
            # that hold R and S, True for a fresh one.  The pairs of two old
            # holders are the repeats, and the rest are attempted now.
            both = [f for o in ss if (f := r_at.get(o[3])) is not None]
            old_pairs = (len(rs) - r_fresh) * (len(ss) - s_fresh) - both.count(False)
            new_pairs = len(rs) * len(ss) - len(both) - old_pairs
            repeats += old_pairs
            if not new_pairs:
                continue
            attempts += new_pairs
            partners = [(o, tables.compose(o[2].assoc, mgu)) for o in ss]
            buckets: dict[Substitution, list] = {}
            if trace is None:
                for o, key in partners:
                    buckets.setdefault(key, []).append((o, key))
            for i1, k1, d1, _, new1 in rs:
                key1 = tables.compose(d1.assoc, mgu)
                for (i2, k2, d2, j2, new2), key2 in (
                    partners if trace is not None else buckets.get(key1, ())
                ):
                    if j2 != i1 and (new1 or new2):
                        hits.append((i1, i2, k1, k2, d1, d2, j2, mgu, key1 != key2))
    if stats is not None:
        stats.consensus_attempts += attempts
    admitted: list[AssocClause] = []
    hits.sort()  # the four positions tell any two hits apart
    for i1, _, k1, k2, d1, d2, j2, mgu, blocked in hits:
        ids = (i1 + 1, j2 + 1)
        if blocked:
            res = outcome = Outcome.BLOCKED
        else:
            pair = (d1.clause.literals[k1], d2.clause.literals[k2], mgu)
            res = consensus(d1, d2, pair, ids, tables)
            if isinstance(res, Outcome):
                outcome = res
            elif res in seen:
                outcome = Outcome.DUPLICATE
            else:
                outcome = Outcome.ADDED
                seen.add(res)
                admitted.append(res)
                if max_clauses is not None and len(base) + len(admitted) > max_clauses:
                    partial = ClauseSet([*base, *admitted])
                    raise ResourceLimitExceeded("max-clauses", max_clauses, partial)
        if trace is not None:
            trace(
                TraceEvent(
                    round_no,
                    ids,
                    (str(d1.clause), str(d2.clause)),
                    mgu,
                    outcome.value,
                    None if isinstance(res, Outcome) else str(res.clause),
                )
            )
    return admitted, repeats


@dataclass
class ClosureResult:
    """A consensus closure with its per-round iterates.

    `iterates[i]` is the i-th saturation iterate (index 0 is the input);
    `rounds` is the fixpoint index: the first i with iterate i+1 == iterate i.
    """

    clauses: ClauseSet
    iterates: list[ClauseSet] = field(default_factory=list)
    rounds: int = 0


def consensus_closure(
    x: ClauseSet,
    limits: ResourceLimits = DEFAULT_LIMITS,
    trace: Trace | None = None,
    stats=None,
) -> ClosureResult:
    """Least fixpoint of the saturation step, reached when a round adds no
    new (clause, assoc) pair.  Raises ResourceLimitExceeded when a cap is
    hit."""
    current = x.copy()
    iterates = [current]
    seen = set(current)
    tables = _Tables()
    fresh: set | None = None  # round 1 attempts every pair
    for i in range(1, limits.max_rounds + 1):
        new, _ = _attempt_pairs(
            current,
            current,
            seen,
            tables=tables,
            round_no=i,
            trace=trace,
            stats=stats,
            fresh=fresh,
            max_clauses=limits.max_clauses,
        )
        if not new:
            return ClosureResult(current, iterates, rounds=i - 1)
        fresh = set(new)
        current = ClauseSet([*current, *new])
        iterates.append(current)
    raise ResourceLimitExceeded("max-rounds", limits.max_rounds, current)
