"""Independent brute-force semantic oracles the tests check the engine against.

Everything here is deliberately separate from the consensus engine: the
propositional prime-implicate oracle enumerates models and minimal covering
clauses directly, so comparing it against the compiler is a genuine
cross-check rather than a tautology.  `satisfiable` decides a ground clause
set by DPLL search instead, for sets whose alphabet is too large for a truth
table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from pikit import AssocClause, Atom, Clause, ClauseSet, Compound, Literal, Substitution, Term, apply


class CapacityError(Exception):
    """A brute-force enumeration would exceed its desk-scale cap."""


@dataclass(frozen=True)
class GroundUniverse:
    """A finite term universe: constants plus function applications up to a depth."""

    constants: tuple[str, ...]
    functions: tuple[tuple[str, int], ...] = ()
    depth_bound: int = 0

    def terms(self) -> list[Term]:
        out: list[Term] = [Compound(c) for c in self.constants]
        seen = {str(t) for t in out}
        for _ in range(self.depth_bound):
            pool = list(out)
            for fn, arity in self.functions:
                for args in itertools.product(pool, repeat=arity):
                    t = Compound(fn, tuple(args))
                    if str(t) not in seen:
                        seen.add(str(t))
                        out.append(t)
        return out


def ground_instances(c: Clause, u: GroundUniverse, cap: int = 100_000) -> list[Clause]:
    """All substitutions of the clause's variables by universe terms."""
    names = sorted(set().union(*[l.variables for l in c.literals]))
    if not names:
        return [c]
    terms = u.terms()
    if not terms:
        raise CapacityError("universe has no ground terms")
    total = len(terms) ** len(names)
    if total > cap:
        raise CapacityError("universe too large: %d instances exceed cap %d" % (total, cap))
    out: list[Clause] = []
    seen: set[str] = set()
    for combo in itertools.product(terms, repeat=len(names)):
        sub = Substitution(dict(zip(names, combo)))
        g = Clause(tuple(apply(sub, l) for l in c.literals))
        if str(g) not in seen:
            seen.add(str(g))
            out.append(g)
    return out


def _plain_clauses(kb: Iterable[Clause | AssocClause] | ClauseSet) -> list[Clause]:
    out = []
    for m in kb:
        out.append(m.clause if isinstance(m, AssocClause) else m)
    return out


def _atom_index(clauses: Sequence[Clause]) -> dict[Atom, int]:
    atoms = sorted({l.atom for c in clauses for l in c.literals}, key=str)
    return {a: i for i, a in enumerate(atoms)}


def _clause_masks(c: Clause, index: dict[Atom, int]) -> tuple[int, int]:
    pos = neg = 0
    for l in c.literals:
        bit = 1 << index[l.atom]
        if l.positive:
            pos |= bit
        else:
            neg |= bit
    return pos, neg


def models_of(clauses: Sequence[Clause], index: dict[Atom, int] | None = None) -> list[int]:
    """Truth-table models of a ground clause set, as true-atom bitmasks."""
    if index is None:
        index = _atom_index(clauses)
    n = len(index)
    masks = [_clause_masks(c, index) for c in clauses]
    full = (1 << n) - 1
    out = []
    for m in range(1 << n):
        if all(m & pos or neg & ~m & full for pos, neg in masks):
            out.append(m)
    return out


def truth_table_entails(kb: Iterable[Clause | AssocClause] | ClauseSet, query: Clause) -> bool:
    """Ground entailment by truth table over the combined atom alphabet."""
    clauses = _plain_clauses(kb)
    index = _atom_index(clauses + [query])
    n = len(index)
    full = (1 << n) - 1
    qpos, qneg = _clause_masks(query, index)
    for m in models_of(clauses, index):
        if not (m & qpos or qneg & ~m & full):
            return False
    return True


def same_models(a: Iterable[Clause | AssocClause], b: Iterable[Clause | AssocClause]) -> bool:
    """Whether two ground clause sets have the same truth-table models."""
    ca, cb = _plain_clauses(a), _plain_clauses(b)
    index = _atom_index(ca + cb)
    return set(models_of(ca, index)) == set(models_of(cb, index))


def satisfiable(clauses: Iterable[Clause]) -> bool:
    """Whether a ground clause set has a model, by DPLL search.

    Davis, Logemann & Loveland (1962): assign every unit clause's literal,
    then split on a literal of the first clause left.  Atoms are numbered
    from 1 and a literal is its atom's number, negated for a negative one.
    """
    index: dict[Atom, int] = {}
    cnf = [
        frozenset(
            index.setdefault(l.atom, len(index) + 1) * (1 if l.positive else -1)
            for l in c.literals
        )
        for c in clauses
    ]
    return _dpll(cnf)


def _dpll(cnf: list[frozenset[int]]) -> bool:
    while True:
        if not cnf:
            return True
        if any(not c for c in cnf):
            return False
        unit = next((c for c in cnf if len(c) == 1), None)
        if unit is None:
            break
        cnf = _assign(cnf, next(iter(unit)))
    lit = next(iter(cnf[0]))
    return _dpll(_assign(cnf, lit)) or _dpll(_assign(cnf, -lit))


def _assign(cnf: list[frozenset[int]], lit: int) -> list[frozenset[int]]:
    """The clauses `lit` leaves open, each without the literal it falsifies."""
    return [c - {-lit} for c in cnf if lit not in c]


def propositional_prime_implicates(
    ground_kb: Iterable[Clause | AssocClause] | ClauseSet, max_atoms: int = 14
) -> list[Clause]:
    """Exactly the propositional prime implicates of a ground clause set.

    Computed semantically: a clause is an implicate iff its literals'
    satisfying-model sets cover every model of the KB, and the prime ones
    are the minimal covers.  Candidate literals can be restricted to those
    occurring in the KB: removing a literal whose atom the KB never
    constrains from an implicate leaves an implicate (flip that atom in any
    countermodel), so minimal implicates never contain foreign literals.
    An unsatisfiable KB has the empty clause as its only prime implicate.
    """
    clauses = _plain_clauses(ground_kb)
    index = _atom_index(clauses)
    if len(index) > max_atoms:
        raise CapacityError("alphabet too large: %d atoms exceed %d" % (len(index), max_atoms))
    models = models_of(clauses, index)
    all_models = (1 << len(models)) - 1

    occurring = sorted(
        {(l.atom, l.positive) for c in clauses for l in c.literals},
        key=lambda p: (str(p[0]), not p[1]),
    )
    sat: list[int] = []
    for atom, positive in occurring:
        bit = 1 << index[atom]
        mask = 0
        for k, m in enumerate(models):
            if bool(m & bit) == positive:
                mask |= 1 << k
        sat.append(mask)

    primes: list[frozenset[int]] = []
    for size in range(0, len(occurring) + 1):
        for combo in itertools.combinations(range(len(occurring)), size):
            atoms_used = {occurring[i][0] for i in combo}
            if len(atoms_used) < size:
                continue  # tautological or duplicate-atom candidate
            cand = frozenset(combo)
            if any(p <= cand for p in primes):
                continue
            cover = 0
            for i in combo:
                cover |= sat[i]
            if cover == all_models:
                primes.append(cand)
    return [
        Clause(tuple(Literal(occurring[i][0], occurring[i][1]) for i in p)) for p in primes
    ]


def check_implicate_semantically(
    kb: Iterable[Clause | AssocClause] | ClauseSet,
    c: Clause,
    u: GroundUniverse,
    max_atoms: int = 16,
) -> bool:
    """Desk-scale semantic implicate check via grounding plus truth table.

    True iff every assignment satisfying all ground instances of the KB
    satisfies some ground instance of the clause.
    """
    theory: list[Clause] = []
    for member in _plain_clauses(kb):
        theory.extend(ground_instances(member, u))
    queries = ground_instances(c, u)
    index = _atom_index(theory + queries)
    n = len(index)
    if n > max_atoms:
        raise CapacityError("grounded problem too large: %d atoms exceed %d" % (n, max_atoms))
    full = (1 << n) - 1
    qmasks = [_clause_masks(q, index) for q in queries]
    for m in models_of(theory, index):
        if not any(m & pos or neg & ~m & full for pos, neg in qmasks):
            return False
    return True
