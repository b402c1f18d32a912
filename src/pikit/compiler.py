"""Prime-implicate compilation, incremental updates, and entailment queries.

Batch compilation saturates the input under consensus and keeps the
subsumption residue.  The incremental path folds one new clause into an
already compiled set: it never attempts consensus between two established
prime implicates, only between the current set and the support set of
newcomers (the added clause plus everything derived from it).
"""

from __future__ import annotations

import hashlib
import re
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .clauses import Clause, ClauseSet, residue, subsumes
from .consensus import (
    DEFAULT_LIMITS,
    ResourceLimitExceeded,
    ResourceLimits,
    Trace,
    _Rounds,
    consensus_closure,
)
from .syntax import Signature
from .terms import Substitution


_STATS_RE = re.compile(r"rounds=(\d+) consensus_attempts=(\d+) subsumption_checks=(\d+)$")


@dataclass
class CompileStats:
    rounds: int = 0
    consensus_attempts: int = 0
    subsumption_checks: int = 0

    def format(self) -> str:
        """The counters as a store's `stats` line and `pikit show` print them."""
        counts = (self.rounds, self.consensus_attempts, self.subsumption_checks)
        return "rounds=%d consensus_attempts=%d subsumption_checks=%d" % counts

    @classmethod
    def parse(cls, text: str) -> "CompileStats | None":
        """The counters that `format` wrote as `text`, or None."""
        m = _STATS_RE.fullmatch(text)
        return None if m is None else cls(*map(int, m.groups()))


@dataclass
class CompiledKB:
    """A compiled set of prime implicates with run statistics and provenance.

    The member set is subsumption-minimal and every member is fundamental;
    a KB whose only member is the empty clause is inconsistent.  A store
    load sets `signature` to the arities the store's entries use, which it
    has collected anyway; it is not kept up to date.  A load for one query
    (`loads_kb` with `query`) keeps, in store order, only the members whose
    features are among that query's, while `signature` still covers every
    entry.  `compile` and
    `add_clause` set `minimal`, since their `pi` is a residue's output; a
    caller who edits `pi` must set it back to False.  `add_clause` also sets
    `memo`, the `unify` and `compose` memos of its fold, which the next fold
    into this KB copies and never changes; `compile`, a store load and a
    hand-built KB carry none.  None of the three takes part in equality.
    """

    pi: ClauseSet
    stats: CompileStats = field(default_factory=CompileStats)
    source_digest: str = ""
    signature: Signature | None = field(default=None, compare=False, repr=False)
    minimal: bool = field(default=False, compare=False, repr=False)
    memo: tuple[dict, dict] | None = field(default=None, compare=False, repr=False)

    @property
    def inconsistent(self) -> bool:
        return len(self.pi) == 1 and next(iter(self.pi)).is_empty


def _digest_texts(texts: Iterable[str]) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode("utf-8"))
        h.update(b"\n")
    return "sha256:" + h.hexdigest()


def clause_set_digest(clauses: Iterable[Clause]) -> str:
    return _digest_texts(str(m) for m in clauses)


def chain_digest(previous: str, clause: Clause) -> str:
    return _digest_texts([previous, str(clause)])


def compile(
    x: Iterable[Clause],
    limits: ResourceLimits = DEFAULT_LIMITS,
    trace: Trace | None = None,
    source_digest: str | None = None,
) -> CompiledKB:
    """Compile a clause set into its prime implicates.

    Non-fundamental inputs are dropped with a warning.  The result is the
    subsumption residue of the consensus closure of the input; a resource
    error from the closure propagates.
    """
    members = ClauseSet(x)
    keep = ClauseSet()
    for m in members:
        if m.is_fundamental():
            keep.add(m)
        else:
            warnings.warn("dropping non-fundamental clause %s" % m, stacklevel=2)
    closure = consensus_closure(keep, limits, trace)
    minimal = residue(closure.clauses)
    stats = CompileStats(closure.rounds, closure.attempts, minimal.checks)
    digest = source_digest if source_digest is not None else clause_set_digest(members)
    return CompiledKB(minimal.kept, stats, digest, minimal=True)


@dataclass
class IncrementalReport:
    """Outcome of folding one clause into a compiled KB.

    `support_history` holds the support-set snapshot after each residue;
    `snapshot_history` the corresponding working-set snapshots (the first
    entry is the initial residue of pi plus the new clause).
    """

    result: CompiledKB
    outcome: str  # "absorbed" | "unchanged" | "recompiled"
    support_history: list[tuple[Clause, ...]] = field(default_factory=list)
    snapshot_history: list[ClauseSet] = field(default_factory=list)


def add_clause(
    kb: CompiledKB,
    clause: Clause,
    limits: ResourceLimits = DEFAULT_LIMITS,
    trace: Trace | None = None,
) -> IncrementalReport:
    """Fold one clause C into a compiled KB, starting from pi(X) plus C.

    This is the paper's incremental algorithm, step for step.  Tautologies
    leave the KB unchanged.  The KB absorbs C when some member of pi(X)
    subsumes it, which is exactly when the residue of pi(X) plus C would
    delete C.  That scan searches only the members whose features are a
    subset of C's, as `residue` does; a member that subsumes C always
    passes, and absorption needs no witness.  Otherwise C joins that
    residue, and each following round takes all consensuses with one parent
    in the working set and one in the support set, re-minimizes, and prunes
    the support set, until two consecutive working sets are equal.  A
    resolvent is added to the support set only when its (literals, assoc)
    pair has never been in it, so clauses the residue deleted from the
    support set never re-enter.

    The rounds are those of the pair engine, `_Rounds`, which keeps the
    call's admissions, `unify`, `compose` and `apply` memos, attempt and
    round counts and cap.  The `unify` and `compose` memos start as copies
    of `kb.memo` and ride on the returned KB (each dropped once it holds
    `consensus.MEMO_CAP` entries), so a stream of folds decides each pair
    once, while every fold into one KB starts from the same tables; the rest
    of the engine does not outlive the call.  From the second round on, an
    untraced fold attempts only the pairs with a member that the previous
    round derived: every other pair met in that round, so its attempts are
    counted, not repeated.  A traced fold attempts every pair, so that each
    attempt gives an event.  Each residue skips the pairs that an earlier
    residue has already left minimal: a round's residue those of the
    previous working set, and the first residue those of pi(X) when
    `kb.minimal` says that `compile` or `add_clause` made it.  A loaded or
    hand-built KB gets the full first residue, since nothing checks that its
    pi(X) is minimal.

    The result is sound: every member is in the consensus closure of X plus
    C.  On first-order inputs it can be coarser than compile(X + [C]).
    Compilation may have subsumed away the association-free clause that was
    the only unblocked route to a consensus, and the surviving variant's
    association then blocks the step.  Where no step is blocked, the two
    routes agree (acceptance criterion 4 checks this).  So "absorbed" only
    means that pi(X) already subsumes C; it does not mean that batch
    compilation would leave the KB unchanged.  For example, a KB can absorb
    a clause whose batch compilation with X is the empty clause.
    """
    if not clause.assoc.is_empty():
        raise ValueError("added clauses must carry the empty association")
    if not clause.is_fundamental():
        return IncrementalReport(kb, "unchanged")
    feats = clause.features
    if any(m.features <= feats and subsumes(m, clause) is not None for m in kb.pi):
        return IncrementalReport(kb, "absorbed", [()], [kb.pi])

    minimal = residue(ClauseSet([*kb.pi, clause]), settled=len(kb.pi) if kb.minimal else 0)
    eta, checks = minimal.kept, minimal.checks
    snapshots = [eta]
    support = ClauseSet([clause])
    support_history = [support.members]
    # The rounds' `seen` is every member ever in the support set, the
    # tombstones included.
    rounds = _Rounds([clause], limits.max_rounds, trace, fold=True, memo=kb.memo)
    previous = ClauseSet()
    # The support set stays a subset of eta: C survives the first residue
    # because nothing in pi(X) subsumes it, and each round keeps only the
    # support members that survive.  So eta plus the new resolvents is the
    # whole working set.  Ordered equality suffices: residue keeps the order
    # of its input, which starts with the previous eta, so two consecutive
    # working sets with equal members have equal order.
    while eta != previous:
        derived = rounds.next(eta, support)
        working = ClauseSet([*eta, *derived])
        if len(working) > limits.max_clauses:
            raise ResourceLimitExceeded("max-clauses", limits.max_clauses, working)
        minimal = residue(working, settled=len(eta))
        previous, eta = eta, minimal.kept
        checks += minimal.checks
        support = ClauseSet(m for m in [*support, *derived] if m in eta)
        support_history.append(support.members)
        snapshots.append(eta)

    stats = CompileStats(rounds.round, rounds.attempts, checks)
    digest = chain_digest(kb.source_digest, clause)
    result = CompiledKB(eta, stats, digest, minimal=True, memo=rounds.memo)
    return IncrementalReport(result, "recompiled", support_history, snapshots)


@dataclass
class BatchReport:
    """Result of folding a sequence of clauses into a compiled KB."""

    result: CompiledKB
    outcomes: list[str] = field(default_factory=list)


def add_clauses(
    kb: CompiledKB,
    clauses: Sequence[Clause],
    limits: ResourceLimits = DEFAULT_LIMITS,
    trace: Trace | None = None,
) -> BatchReport:
    """Fold clauses into the KB one at a time, in order.

    Resource errors propagate annotated with the index of the offending
    clause (`clause_index` on the exception).
    """
    batch = BatchReport(kb)
    for i, c in enumerate(clauses):
        try:
            report = add_clause(batch.result, c, limits, trace)
        except ResourceLimitExceeded as err:
            err.clause_index = i
            raise
        batch.result = report.result
        batch.outcomes.append(report.outcome)
    return batch


@dataclass(frozen=True)
class Entailment:
    """Answer to a clausal entailment query, with its witness if positive."""

    entailed: bool
    witness: Clause | None = None
    substitution: Substitution | None = None
    tautology: bool = False

    def __bool__(self) -> bool:
        return self.entailed


def entails(kb: CompiledKB, query: Clause) -> Entailment:
    """Yes iff some compiled prime implicate subsumes the query clause.

    Non-fundamental queries are valid and answered yes with a tautology
    marker.  The witness implicate and substitution are returned.
    """
    if not query.is_fundamental():
        return Entailment(True, tautology=True)
    for member in kb.pi:
        witness = subsumes(member, query)
        if witness is not None:
            return Entailment(True, member, witness)
    return Entailment(False)
