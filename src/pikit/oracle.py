"""Seeded random instance generation.

The same config always yields the same clauses, so the tests, perfbench and
`scripts/output_hash.py` can name an instance by its seed.  The semantic
oracles that check compilation results live beside the tests, in
`tests/oracles.py`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .clauses import Clause, ClauseSet
from .terms import Compound, Literal, Term, Variable


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


def _gen_atom(cfg: GenConfig, rng: random.Random) -> Compound:
    i = rng.randrange(cfg.num_predicates)
    arity = _predicate_arity(cfg, i)
    return Compound(_name(_PREDICATES, i), tuple(_gen_term(cfg, rng, 0) for _ in range(arity)))


def _gen_clause(cfg: GenConfig, rng: random.Random) -> Clause:
    lo, hi = cfg.clause_len_range
    want = rng.randint(lo, hi)
    used: dict[Compound, bool] = {}
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
        out.add(_gen_clause(cfg, rng))
    return out


def vary_seed(cfg: GenConfig, offset: int) -> GenConfig:
    """The same shape with a derived seed (for companion clauses)."""
    return replace(cfg, seed=cfg.seed + offset)
