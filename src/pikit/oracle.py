"""Independent brute-force oracles and seeded random instance generation.

Everything here is deliberately separate from the consensus engine: the
propositional prime-implicate oracle enumerates models and minimal covering
clauses directly, so comparing it against the compiler is a genuine
cross-check rather than a tautology.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .clauses import AssocClause, Clause, ClauseSet
from .terms import Atom, Compound, Literal, Substitution, Term, Variable, variables_of


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
    names = sorted(variables_of(c))
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
        g = c.apply_substitution(Substitution(dict(zip(names, combo))))
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


@dataclass(frozen=True)
class GenConfig:
    """Seeded random-instance shape; identical configs yield identical output."""

    num_predicates: int = 3
    max_arity: int = 2
    num_variables: int = 3
    num_constants: int = 2
    num_functions: int = 0
    max_term_depth: int = 0
    clause_len_range: tuple[int, int] = (1, 3)
    kb_size_range: tuple[int, int] = (2, 5)
    seed: int = 0


_PREDICATES = "pqrstuvw"
_CONSTANTS = "abcdef"
_VARIABLES = "XYZUVW"
_FUNCTIONS = "fgh"


def _name(pool: str, i: int) -> str:
    return pool[i] if i < len(pool) else "%s%d" % (pool[0], i)


def _predicate_arity(cfg: GenConfig, i: int) -> int:
    # Arities are a pure function of the config shape (not the seed), so a
    # KB and a separately generated clause always share one signature.
    if cfg.max_arity == 0:
        return 0
    return 1 + (i % cfg.max_arity)


def _gen_term(cfg: GenConfig, rng: random.Random, depth: int) -> Term:
    choices = []
    if cfg.num_variables > 0:
        choices.append("var")
    if cfg.num_constants > 0:
        choices.append("const")
    if cfg.num_functions > 0 and depth < cfg.max_term_depth:
        choices.append("fn")
    kind = rng.choice(choices)
    if kind == "var":
        return Variable(_name(_VARIABLES, rng.randrange(cfg.num_variables)))
    if kind == "const":
        return Compound(_name(_CONSTANTS, rng.randrange(cfg.num_constants)))
    fn = _name(_FUNCTIONS, rng.randrange(cfg.num_functions))
    return Compound(fn, (_gen_term(cfg, rng, depth + 1),))


def _gen_atom(cfg: GenConfig, rng: random.Random) -> Atom:
    i = rng.randrange(cfg.num_predicates)
    arity = _predicate_arity(cfg, i)
    return Atom(_name(_PREDICATES, i), tuple(_gen_term(cfg, rng, 0) for _ in range(arity)))


def _gen_clause(cfg: GenConfig, rng: random.Random) -> Clause:
    lo, hi = cfg.clause_len_range
    want = rng.randint(lo, hi)
    used: dict[Atom, bool] = {}
    literals: list[Literal] = []
    attempts = 0
    while len(literals) < want and attempts < 200:
        attempts += 1
        atom = _gen_atom(cfg, rng)
        if atom in used:
            continue  # avoid duplicate atoms and tautologies alike
        sign = rng.random() < 0.5
        used[atom] = sign
        literals.append(Literal(atom, sign))
    if not literals:
        literals.append(Literal(_gen_atom(cfg, rng), True))
    return Clause(tuple(literals))


def gen_clause(cfg: GenConfig, rng: random.Random | None = None) -> Clause:
    """One seeded random fundamental clause."""
    return _gen_clause(cfg, rng if rng is not None else random.Random(cfg.seed))


def gen_kb(cfg: GenConfig) -> ClauseSet:
    """A seeded random KB of distinct fundamental clauses."""
    rng = random.Random(cfg.seed)
    lo, hi = cfg.kb_size_range
    want = rng.randint(lo, hi)
    out = ClauseSet()
    attempts = 0
    while len(out) < want and attempts < 50 * want:
        attempts += 1
        out.add(AssocClause(_gen_clause(cfg, rng)))
    return out


def vary_seed(cfg: GenConfig, offset: int) -> GenConfig:
    """The same shape with a derived seed (for companion clauses)."""
    return replace(cfg, seed=cfg.seed + offset)
