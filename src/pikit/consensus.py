"""The consensus step, the pair engine, and closure to a fixpoint.

Consensus of two clauses resolves one complementary literal pair under its
mgu, but is only defined when both parents' associations compose with the
mgu to the same substitution; otherwise the attempt is blocked.  Tautological
resolvents are discarded.

One engine, `_Rounds`, enumerates and classifies every consensus attempt,
for the rounds of batch closure here and of the incremental fold in the
compiler.  Each round pairs a base with a new side that lies inside it: the
closure pairs each iterate with itself, the fold its working set with its
support set.  From the second round on, only the pairs with a member that
the previous round added are built (semi-naive evaluation), unless a traced
fold asks for every attempt.  One engine object lives for one closure or
fold call and keeps what passes from round to round: the `seen` admissions,
the fresh members, a memo each of `unify`, `compose` and `apply`, the
attempt count and the round count that the max-rounds cap bounds.  Only
the `unify` and `compose` memos outlive a fold: the KB it returns carries
them, and the next fold into that KB starts from a copy, so a stream of
folds decides each pair once.  Its one admission rule: a resolvent is
added when no equal (literals, assoc) member is in `seen`, and a duplicate
otherwise.  The tests check it against a pairwise reference step in
`tests/oracles.py`.  Saturation is not guaranteed to terminate on first-order
inputs, so every closure takes explicit resource limits and fails loudly
with the partial set when a cap is hit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping

from .clauses import Clause, ClauseSet, fundamental
from .terms import Literal, Substitution, apply, compose, unify


@dataclass(frozen=True)
class ResourceLimits:
    """Caps on saturation rounds and on clause count; 0 is a legal cap.

    `max_rounds` counts every engine round, the last one that finds nothing
    new included.  `compile` leaves that round out of the `rounds` it
    reports, so a KB compiled in N rounds needed N + 1; the fold counts it.
    """

    max_rounds: int = 100
    max_clauses: int = 10_000

    def __post_init__(self) -> None:
        for name, value in (("max-rounds", self.max_rounds), ("max-clauses", self.max_clauses)):
            if value < 0:
                raise ValueError("%s limit (%d) must not be negative" % (name, value))


DEFAULT_LIMITS = ResourceLimits()

# The entries a `unify` or `compose` memo may hold and still ride on the KB
# that a fold returns; a fuller memo is dropped, and the next fold starts
# that table empty.
MEMO_CAP = 10_000


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


def _resolve(
    c1: Clause,
    c2: Clause,
    pair: tuple[Literal, Literal, Substitution],
    assoc: Substitution,
    parents: tuple[int, int],
    applied: Callable[[Substitution, Literal], Literal],
) -> Clause | Outcome:
    """Consensus of c1 and c2 on `pair`, an unblocked attempt whose
    associations compose with its mgu to `assoc`.

    `pair` is (R in c1, S in c2, mgu), R and S the parents' own literals,
    so the resolvent drops them by identity.  Returns the resolvent, which
    carries `assoc` and `parents`, or Outcome.NON_FUNDAMENTAL when it is
    tautological.  `applied` is `apply` or a memo of it: `apply` is pure,
    so a hit is the value a call would build.  The applied literals are
    tested for an atom of both signs before the resolvent is built, so a
    tautology is never sorted or hashed.
    """
    r, s, mgu = pair
    rest = []
    for parent, dropped in ((c1, r), (c2, s)):
        for l in parent.literals:
            if l is not dropped:
                rest.append(applied(mgu, l))
    if not fundamental(rest):
        return Outcome.NON_FUNDAMENTAL
    return Clause(tuple(rest), assoc, parents)


class _Memo(dict):
    """Values of the two-argument function `fn`, keyed by argument pair and
    filled in on a miss; built from a copy of `table`."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable, table: Mapping):
        super().__init__(table)
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(*key)
        return value


class _Rounds:
    """The rounds of one closure or one fold, each pairing a base with a new side.

    `next` runs a round: it attempts consensus over ordered pairs (D1 in
    base, D2 in new_side).  An attempt is two distinct members and a
    literal pair (R in D1, S in D2) of opposite signs on one predicate whose
    atoms unify.  `new_side` lies inside `base`, so one index of `base` by
    distinct literal gives the holders of R, and those of its holders in
    `new_side` the holders of S; each literal pair is unified once, and only
    when some attempt uses it.  An attempt is blocked exactly when the two
    associations compose differently with the mgu, so the holders of S are
    bucketed by that composition: untraced, only D1's bucket is visited and
    the blocked attempts are counted; traced, every attempt is visited and
    reported.  An unblocked resolvent takes the bucket's composition.
    Visits run in (D1, D2, R, S) position order, the order of nested loops
    over the two sides, so events, parent ids (1-based positions in
    `base`), admissions and a limit stop come out in it.  D2 goes by its
    `new_side` position: a fold's support set can hold a member later than
    its working set does.

    The object keeps what passes from round to round of its one call.  A
    resolvent is added when it is not in `seen`, which then grows by it,
    and is a duplicate otherwise.  `fresh` holds what the previous round
    added.  An old pair, of two members of `base` outside `fresh`, met in
    the previous round and can only repeat its outcome: blocked,
    non-fundamental or duplicate.  What one costs is the one way the
    callers differ: the closure neither attempts nor counts it, and the
    fold counts it untraced and attempts it traced, so that each attempt
    gives an event.  `_unify` and `_compose` are `_Memo` dicts of this
    module's `unify` and `compose`, and `_applied` a `functools.cache` of
    `apply`, as the globals are bound when the engine is built: each pure
    function runs once per argument pair per call, so a literal that many
    resolvents share under one mgu is rebuilt once.  The two dicts start
    as copies of `memo`, the tables an earlier fold left (never changed
    here), and `memo` gives them to the next fold while each is below
    `MEMO_CAP`.
    `round` is the number of the last round begun, and round `max_rounds`
    + 1 raises ResourceLimitExceeded with its base instead.  `attempts`
    sums the attempts of the rounds so far, and a fold's repeats with them.
    """

    def __init__(self, seen, max_rounds: int, trace: Trace | None, *, fold=False, memo=None):
        self.seen = set(seen)
        self.max_rounds = max_rounds
        self.trace = trace
        self.fold = fold
        self.fresh: set | None = None
        self.round = 0
        self.attempts = 0
        unifiers, composed = memo or ({}, {})
        self._unify = _Memo(unify, unifiers)
        self._compose = _Memo(compose, composed)
        self._applied = functools.cache(apply)

    @property
    def memo(self) -> tuple[dict, dict]:
        """The `unify` and `compose` memos, each left empty at `MEMO_CAP`."""
        return tuple(t if len(t) < MEMO_CAP else {} for t in (self._unify, self._compose))

    def next(
        self, base: ClauseSet, new_side: ClauseSet, max_clauses: int | None = None
    ) -> list[Clause]:
        """Run the next round and return the clauses it added, in derivation
        order.  When base plus the added clauses outgrows `max_clauses`,
        ResourceLimitExceeded carries that partial set."""
        if self.round >= self.max_rounds:
            raise ResourceLimitExceeded("max-rounds", self.max_rounds, base)
        self.round += 1
        trace, seen = self.trace, self.seen
        unifiers, composed = self._unify, self._compose
        fresh = None if self.fold and trace is not None else self.fresh
        at = {m: j for j, m in enumerate(new_side)}
        index: dict[Literal, list] = {}  # (i in base, k, member, fresh, j in new_side or None)
        for i, m in enumerate(base):
            new = fresh is None or m in fresh
            j = at.get(m)
            for k, lit in enumerate(m.literals):
                index.setdefault(lit, []).append((i, k, m, new, j))
        right: dict[tuple[str, bool], list] = {}
        for lit, occ in index.items():
            if ss := [o for o in occ if o[4] is not None]:
                holders = right.setdefault((lit.atom.functor, lit.positive), [])
                holders.append((lit, ss, sum(o[3] for o in ss)))
        attempts = repeats = 0
        hits = []
        for r_lit, rs in index.items():
            opposite = right.get((r_lit.atom.functor, not r_lit.positive))
            if opposite is None:
                continue
            r_fresh = sum(o[3] for o in rs)
            r_at = {o[0]: o[3] for o in rs}
            for s_lit, ss, s_fresh in opposite:
                if len(rs) == len(ss) == 1 and rs[0][0] == ss[0][0]:
                    continue  # one member holds both: no attempt uses the pair
                mgu = unifiers[r_lit.atom, s_lit.atom]
                if mgu is None:
                    continue
                # Attempts pair two distinct holders; `both` lists the members
                # that hold R and S, True for a fresh one.  The pairs of two old
                # holders are the repeats, and the rest are attempted now.
                both = [f for o in ss if (f := r_at.get(o[0])) is not None]
                old_pairs = (len(rs) - r_fresh) * (len(ss) - s_fresh) - both.count(False)
                new_pairs = len(rs) * len(ss) - len(both) - old_pairs
                repeats += old_pairs
                if not new_pairs:
                    continue
                attempts += new_pairs
                partners = [(o, composed[o[2].assoc, mgu]) for o in ss]
                buckets: dict[Substitution, list] = {}
                if trace is None:
                    for o, key in partners:
                        buckets.setdefault(key, []).append((o, key))
                for i1, k1, d1, new1, _ in rs:
                    key1 = composed[d1.assoc, mgu]
                    for (i2, k2, d2, new2, j2), key2 in (
                        partners if trace is not None else buckets.get(key1, ())
                    ):
                        if i2 != i1 and (new1 or new2):
                            assoc = key1 if key1 == key2 else None  # None: blocked
                            hits.append((i1, j2, k1, k2, i2, d1, d2, mgu, assoc))
        self.attempts += attempts + (repeats if self.fold else 0)
        admitted: list[Clause] = []
        hits.sort()  # the four positions tell any two hits apart
        for i1, _, k1, k2, i2, d1, d2, mgu, assoc in hits:
            ids = (i1 + 1, i2 + 1)
            if assoc is None:
                res = outcome = Outcome.BLOCKED
            else:
                pair = (d1.literals[k1], d2.literals[k2], mgu)
                res = _resolve(d1, d2, pair, assoc, ids, self._applied)
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
                        self.round,
                        ids,
                        (str(d1), str(d2)),
                        mgu,
                        outcome.value,
                        None if isinstance(res, Outcome) else str(res),
                    )
                )
        self.fresh = set(admitted)
        return admitted


@dataclass
class ClosureResult:
    """A consensus closure: the input followed by each round's admissions.

    `rounds` is the fixpoint index, the number of rounds that added a
    clause.  Iterate k is the prefix of `clauses` holding the input and the
    admissions of rounds 1..k, which a trace gives as its `added` events.
    `attempts` counts the consensus attempts of every round, the last
    included.
    """

    clauses: ClauseSet
    rounds: int
    attempts: int


def consensus_closure(
    x: ClauseSet,
    limits: ResourceLimits = DEFAULT_LIMITS,
    trace: Trace | None = None,
) -> ClosureResult:
    """Least fixpoint of the saturation step, reached when a round adds no
    new (literals, assoc) pair.  The input is copied once, and each round's
    admissions are added to that copy.  Raises ResourceLimitExceeded when a
    cap is hit."""
    current = x.copy()
    rounds = _Rounds(current, limits.max_rounds, trace)
    while new := rounds.next(current, current, limits.max_clauses):
        for clause in new:
            current.add(clause)
    return ClosureResult(current, rounds.round - 1, rounds.attempts)
