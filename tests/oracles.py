"""Independent brute-force semantic oracles the tests check the engine against.

Everything here is deliberately separate from the consensus engine: the
propositional prime-implicate oracle enumerates models and minimal covering
clauses directly, so comparing it against the compiler is a genuine
cross-check rather than a tautology.  `satisfiable` decides a ground clause
set by DPLL search instead, for sets whose alphabet is too large for a truth
table.  `complementary_pairs` and `consensus` are the paper's consensus
step taken one pair at a time: the reference that the pair engine's rounds
are checked against.  `reference_tokens` is the clause grammar's original
token scanner,
and `reference_apply`, `reference_unify` and `reference_match` are the
term kernels as first written: recursive `isinstance` walks that apply the
bindings so far to every equation and compare whole terms.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from pikit import (
    Clause,
    Compound,
    Literal,
    Outcome,
    Substitution,
    Term,
    Variable,
    apply,
    compose,
    unify,
)


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


def _atom_index(clauses: Sequence[Clause]) -> dict[Compound, int]:
    atoms = sorted({l.atom for c in clauses for l in c.literals}, key=str)
    return {a: i for i, a in enumerate(atoms)}


def _clause_masks(c: Clause, index: dict[Compound, int]) -> tuple[int, int]:
    pos = neg = 0
    for l in c.literals:
        bit = 1 << index[l.atom]
        if l.positive:
            pos |= bit
        else:
            neg |= bit
    return pos, neg


def models_of(clauses: Sequence[Clause], index: dict[Compound, int] | None = None) -> list[int]:
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


def truth_table_entails(kb: Iterable[Clause], query: Clause) -> bool:
    """Ground entailment by truth table over the combined atom alphabet."""
    clauses = list(kb)
    index = _atom_index(clauses + [query])
    n = len(index)
    full = (1 << n) - 1
    qpos, qneg = _clause_masks(query, index)
    for m in models_of(clauses, index):
        if not (m & qpos or qneg & ~m & full):
            return False
    return True


def same_models(a: Iterable[Clause], b: Iterable[Clause]) -> bool:
    """Whether two ground clause sets have the same truth-table models."""
    ca, cb = list(a), list(b)
    index = _atom_index(ca + cb)
    return set(models_of(ca, index)) == set(models_of(cb, index))


def satisfiable(clauses: Iterable[Clause]) -> bool:
    """Whether a ground clause set has a model, by DPLL search.

    Davis, Logemann & Loveland (1962): assign every unit clause's literal,
    then split on a literal of the first clause left.  Atoms are numbered
    from 1 and a literal is its atom's number, negated for a negative one.
    """
    index: dict[Compound, int] = {}
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
    ground_kb: Iterable[Clause], max_atoms: int = 14
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
    clauses = list(ground_kb)
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
    kb: Iterable[Clause],
    c: Clause,
    u: GroundUniverse,
    max_atoms: int = 16,
) -> bool:
    """Desk-scale semantic implicate check via grounding plus truth table.

    True iff every assignment satisfying all ground instances of the KB
    satisfies some ground instance of the clause.
    """
    theory: list[Clause] = []
    for member in kb:
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


def complementary_pairs(
    c1: Clause, c2: Clause
) -> list[tuple[Literal, Literal, Substitution]]:
    """All opposite-sign literal pairs (r in c1, s in c2) whose atoms unify.

    Pairs come out in the canonical literal order of c1 then c2, each with
    its mgu, so enumeration is deterministic.
    """
    pairs = []
    for r in c1.literals:
        for s in c2.literals:
            if r.positive == s.positive or r.atom.functor != s.atom.functor:
                continue
            mgu = unify(r.atom, s.atom)
            if mgu is not None:
                pairs.append((r, s, mgu))
    return pairs


def consensus(
    c1: Clause,
    c2: Clause,
    pair: tuple[Literal, Literal, Substitution],
    parents: tuple[int, int] = (0, 0),
) -> Clause | Outcome:
    """Consensus of c1 and c2 on one complementary pair, as first written.

    `pair` is one of `complementary_pairs(c1, c2)`: its two literals are the
    parents' own objects, so the resolvent drops them by identity.
    Returns Outcome.BLOCKED when the parents' associations do not compose
    consistently with the mgu.  Otherwise it applies the mgu to every kept
    literal, builds the resolvent with the composed association and
    `parents`, and then asks `is_fundamental()`: Outcome.NON_FUNDAMENTAL
    for a tautology, else the resolvent.
    """
    r, s, mgu = pair
    assoc = compose(c1.assoc, mgu)
    if assoc != compose(c2.assoc, mgu):
        return Outcome.BLOCKED
    rest = [apply(mgu, l) for l in c1.literals if l is not r]
    rest += [apply(mgu, l) for l in c2.literals if l is not s]
    resolvent = Clause(tuple(rest), assoc, parents)
    return resolvent if resolvent.is_fundamental() else Outcome.NON_FUNDAMENTAL


_TOKEN = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>\#[^\n]*)
      | (?P<uident>[A-Z][A-Za-z0-9_]*)
      | (?P<lident>[a-z][A-Za-z0-9_]*)
      | (?P<punct>[(),|~.])
      | (?P<bad>.)
    """,
    re.VERBOSE,
)


def reference_tokens(text: str) -> tuple[list[tuple[str, int]] | None, int | None]:
    """(The tokens with their offsets, None), or (None, the offset of the
    first bad character), by one scan that tries each token kind in turn."""
    tokens = []
    for m in _TOKEN.finditer(text):
        if m.lastgroup == "bad":
            return None, m.start()
        if m.lastgroup not in ("ws", "comment"):
            tokens.append((m.group(), m.start()))
    return tokens, None


def reference_apply(sub, x):
    """`apply` as first written."""
    if isinstance(x, Variable):
        return sub.get(x.name, x)
    if isinstance(x, (Compound, Literal)) and sub.keys().isdisjoint(x.variables):
        return x
    if isinstance(x, Compound):
        return Compound(x.functor, tuple(reference_apply(sub, a) for a in x.args))
    if isinstance(x, Literal):
        return Literal(reference_apply(sub, x.atom), x.positive)
    raise TypeError("cannot apply a substitution to %s" % type(x).__name__)


def _reference_bind(d: dict[str, Term], name: str, term: Term) -> None:
    one = {name: term}
    for k in list(d):
        d[k] = reference_apply(one, d[k])
    d[name] = term


def reference_unify(a: Term, b: Term) -> Substitution | None:
    """`unify` as first written."""
    if isinstance(a, Compound) and isinstance(b, Compound):
        # Two atoms, mostly: check their heads once, then solve their
        # arguments, rather than compare the whole atoms first.
        if a.functor != b.functor or len(a.args) != len(b.args):
            return None
        stack = list(reversed(list(zip(a.args, b.args))))
    else:
        stack = [(a, b)]

    d: dict[str, Term] = {}
    while stack:
        s, t = stack.pop()
        s = reference_apply(d, s)
        t = reference_apply(d, t)
        if s == t:
            continue
        if isinstance(s, Variable):
            if s.name in t.variables:
                return None
            _reference_bind(d, s.name, t)
        elif isinstance(t, Variable):
            if t.name in s.variables:
                return None
            _reference_bind(d, t.name, s)
        else:
            if s.functor != t.functor or len(s.args) != len(t.args):
                return None
            stack.extend(reversed(list(zip(s.args, t.args))))
    return Substitution(d)


def reference_match(p, t, d: dict[str, Term]) -> dict[str, Term] | None:
    """`_match` as first written."""
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
        d = reference_match(pa, ta, d)
        if d is None:
            return None
    return d
