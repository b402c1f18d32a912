"""Pairwise consensus, the pair engine, and closure to a fixpoint.

Consensus of two clauses resolves one complementary literal pair under its
mgu, but is only defined when both parents' associations compose with the
mgu to the same substitution; otherwise the attempt is blocked.  Tautological
resolvents are discarded.

One engine, `_attempt_pairs`, enumerates and classifies every attempt, for
batch closure here and for the incremental fold in the compiler.  Its one
admission rule: a resolvent is added when its (clause, assoc) key is not in
the caller's `seen` set, and a duplicate otherwise.  The callers differ only
in the pairs they ask for and in what `seen` holds.  Saturation is not
guaranteed to terminate on first-order inputs, so every closure takes
explicit resource limits and fails loudly with the partial set when a cap
is hit.
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
) -> AssocClause | Outcome:
    """Consensus of c1 and c2 on one complementary pair.

    Returns Outcome.BLOCKED when the parents' associations do not compose
    consistently with the mgu, Outcome.NON_FUNDAMENTAL when the resolvent is
    tautological, and otherwise the resolvent, associated with the composed
    substitution and carrying `parents`.
    """
    r, s, mgu = pair
    a1 = compose(c1.assoc, mgu)
    a2 = compose(c2.assoc, mgu)
    if a1 != a2:
        return Outcome.BLOCKED
    rest = [apply(mgu, l) for l in c1.clause.literals if l != r]
    rest += [apply(mgu, l) for l in c2.clause.literals if l != s]
    resolvent = Clause(tuple(rest))
    if not resolvent.is_fundamental():
        return Outcome.NON_FUNDAMENTAL
    return AssocClause(resolvent, a1, parents=parents)


def _attempt_pairs(
    base: ClauseSet,
    new_side: ClauseSet,
    seen: set,
    *,
    round_no: int = 1,
    trace: Trace | None = None,
    stats=None,
    fresh: set | None = None,
    tried: dict | None = None,
    max_clauses: int | None = None,
) -> list[AssocClause]:
    """Attempt consensus over ordered pairs (D1 in base, D2 in new_side).

    This is the one place consensus attempts are enumerated and classified.
    Distinct members only.  A resolvent is added when its (clause, assoc)
    key is not in `seen`, which then grows by that key; otherwise it is a
    duplicate.  Returns the added clauses in derivation order.  Parent ids
    are the 1-based positions of the parents in `base`.  When `fresh` is
    given, pairs of two non-fresh members are skipped: their consensuses
    were all attempted in an earlier round, so they can only repeat old
    outcomes.  When `tried` is given, each pair's attempts are computed
    once and kept there under the pair's (D1 key, D2 key); a later call
    replays them instead of unifying and composing again.  A replay emits the
    same events, with the current round and parent ids, and counts in
    `consensus_attempts` as before.  A replayed resolvent is always a
    duplicate: its key entered `seen` when it was first derived, and a
    caller passes the same `seen` with the same `tried`.  When
    base plus the added clauses outgrows `max_clauses`,
    ResourceLimitExceeded carries that partial set.
    """
    index = {m.key: i + 1 for i, m in enumerate(base)}
    admitted: list[AssocClause] = []
    for d1 in base:
        for d2 in new_side:
            if d1.key == d2.key:
                continue
            if fresh is not None and d1.key not in fresh and d2.key not in fresh:
                continue
            ids = (index.get(d1.key, 0), index.get(d2.key, 0))
            attempts = None if tried is None else tried.get((d1.key, d2.key))
            if attempts is None:
                attempts = [
                    (pair, consensus(d1, d2, pair, parents=ids))
                    for pair in complementary_pairs(d1, d2)
                ]
                if tried is not None:
                    tried[d1.key, d2.key] = attempts
            for pair, res in attempts:
                if stats is not None:
                    stats.consensus_attempts += 1
                if isinstance(res, Outcome):
                    outcome = res
                elif res.key in seen:
                    outcome = Outcome.DUPLICATE
                else:
                    outcome = Outcome.ADDED
                    seen.add(res.key)
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
                            pair[2],
                            outcome.value,
                            None if isinstance(res, Outcome) else str(res.clause),
                        )
                    )
    return admitted


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
    seen = {m.key for m in current}
    fresh: set | None = None  # round 1 attempts every pair
    for i in range(1, limits.max_rounds + 1):
        new = _attempt_pairs(
            current,
            current,
            seen,
            round_no=i,
            trace=trace,
            stats=stats,
            fresh=fresh,
            max_clauses=limits.max_clauses,
        )
        if not new:
            return ClosureResult(current, iterates, rounds=i - 1)
        fresh = {m.key for m in new}
        current = ClauseSet([*current, *new])
        iterates.append(current)
    raise ResourceLimitExceeded("max-rounds", limits.max_rounds, current)
